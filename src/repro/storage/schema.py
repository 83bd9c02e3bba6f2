"""Relational schemas and physical record layouts.

The paper's microbenchmark relation is::

    create table R (a1 integer not null,
                    a2 integer not null,
                    a3 integer not null,
                    <rest of fields>)

where ``<rest of fields>`` is integer padding bringing the record to 100
bytes (and to other sizes for the record-size sweep of Section 5.2).  This
module describes such schemas and computes the fixed physical layout (field
offsets, record size) used by the slotted pages, so the executor knows which
cache lines a field access touches.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np


class ColumnType(Enum):
    """Supported column types and their physical widths."""

    INT32 = ("i", 4)
    INT64 = ("q", 8)
    FLOAT64 = ("d", 8)
    CHAR = ("s", None)  # fixed-width string; width supplied per column

    def __init__(self, struct_code: str, width: Optional[int]) -> None:
        self.struct_code = struct_code
        self.fixed_width = width


class SchemaError(ValueError):
    """Raised on malformed schema definitions or layout mismatches."""


@dataclass(frozen=True)
class Column:
    """One column of a table schema."""

    name: str
    type: ColumnType = ColumnType.INT32
    width: Optional[int] = None
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name {self.name!r}")
        if self.type is ColumnType.CHAR:
            if not self.width or self.width <= 0:
                raise SchemaError(f"CHAR column {self.name!r} needs a positive width")
        elif self.width is not None and self.width != self.type.fixed_width:
            raise SchemaError(
                f"column {self.name!r}: width {self.width} does not match type {self.type.name}")

    @property
    def byte_width(self) -> int:
        if self.type is ColumnType.CHAR:
            assert self.width is not None
            return self.width
        assert self.type.fixed_width is not None
        return self.type.fixed_width


@dataclass(frozen=True)
class Schema:
    """An ordered collection of columns."""

    columns: Tuple[Column, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("a schema needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")

    @classmethod
    def of(cls, *columns: Column, name: str = "") -> "Schema":
        return cls(columns=tuple(columns), name=name)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"no column named {name!r} in schema {self.name!r}")

    @cached_property
    def _index(self) -> Dict[str, int]:
        return {col.name: i for i, col in enumerate(self.columns)}

    def index_of(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            raise SchemaError(f"no column named {name!r} in schema {self.name!r}")
        return index

    def column_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def transpose(self, rows: Iterable[Sequence]) -> Tuple[Dict[str, tuple], int]:
        """``(column name -> values, row count)`` of ``rows``: the column
        form a bulk load takes.  A row of the wrong arity raises the
        :class:`SchemaError` :meth:`RecordLayout.encode` would."""
        rows = list(rows)
        width = len(self.columns)
        for row in rows:
            if len(row) != width:
                raise SchemaError(f"expected {width} values, got {len(row)}")
        vectors = zip(*rows) if rows else ((),) * width
        return dict(zip(self.column_names(), vectors)), len(rows)


@dataclass(frozen=True)
class RecordLayout:
    """Physical layout of a fixed-size record for a schema.

    ``record_size`` may be larger than the packed width of the declared
    columns; the remainder is anonymous filler, which is exactly how the
    paper's ``<rest of fields>`` padding works.  Field offsets are packed in
    declaration order with no alignment gaps (integers are 4-byte aligned by
    construction because every type width here is a multiple of 4).
    """

    schema: Schema
    record_size: int
    offsets: Tuple[int, ...]

    @classmethod
    def build(cls, schema: Schema, record_size: Optional[int] = None) -> "RecordLayout":
        offsets: List[int] = []
        cursor = 0
        for column in schema:
            offsets.append(cursor)
            cursor += column.byte_width
        packed = cursor
        size = record_size if record_size is not None else packed
        if size < packed:
            raise SchemaError(
                f"record_size {size} is smaller than the packed column width {packed}")
        return cls(schema=schema, record_size=size, offsets=tuple(offsets))

    @cached_property
    def packed_size(self) -> int:
        last = self.schema.columns[-1]
        return self.offsets[-1] + last.byte_width

    @cached_property
    def padding_bytes(self) -> int:
        return self.record_size - self.packed_size

    @cached_property
    def slices(self) -> Tuple[Tuple[int, int], ...]:
        """``(offset, width)`` of every column in declaration order, then of
        the filler when the layout pads: the record cut at its field
        boundaries (one PAX minipage per slice)."""
        slices = [(offset, column.byte_width)
                  for offset, column in zip(self.offsets, self.schema)]
        if self.padding_bytes:
            slices.append((self.packed_size, self.padding_bytes))
        return tuple(slices)

    def offset_of(self, column_name: str) -> int:
        return self.offsets[self.schema.index_of(column_name)]

    def field_slice(self, column_name: str) -> Tuple[int, int]:
        """``(offset, width)`` of a column within the record."""
        idx = self.schema.index_of(column_name)
        return self.offsets[idx], self.schema.columns[idx].byte_width

    @cached_property
    def column_codecs(self) -> Dict[str, Tuple[int, Optional[str], int]]:
        """``name -> (offset, struct format or None for CHAR, width)``.

        The batch read paths decode millions of fields; resolving the
        column's offset and format string once per layout instead of once
        per value keeps the decode loop down to a single ``unpack_from``.
        """
        codecs: Dict[str, Tuple[int, Optional[str], int]] = {}
        for idx, column in enumerate(self.schema.columns):
            code = (None if column.type is ColumnType.CHAR
                    else "<" + column.type.struct_code)
            codecs[column.name] = (self.offsets[idx], code, column.byte_width)
        return codecs

    # ------------------------------------------------------------ encoding
    @cached_property
    def _struct_format(self) -> str:
        parts = ["<"]
        for column in self.schema:
            if column.type is ColumnType.CHAR:
                parts.append(f"{column.byte_width}s")
            else:
                parts.append(column.type.struct_code)
        return "".join(parts)

    def encode(self, values: Sequence) -> bytes:
        """Serialise ``values`` (one per column) into ``record_size`` bytes."""
        if len(values) != len(self.schema):
            raise SchemaError(
                f"expected {len(self.schema)} values, got {len(values)}")
        prepared = [_char_bytes(value, column.byte_width)
                    if column.type is ColumnType.CHAR else value
                    for column, value in zip(self.schema, values)]
        packed = struct.pack(self._struct_format, *prepared)
        return packed.ljust(self.record_size, b"\x00")

    def encode_column(self, column_name: str, value) -> bytes:
        """One column's bytes, exactly as :meth:`encode` lays them down."""
        codec = self.column_codecs.get(column_name)
        if codec is None:
            self.schema.index_of(column_name)  # raises SchemaError
        _offset, code, width = codec
        if code is None:
            return _char_bytes(value, width)
        return struct.pack(code, value)

    def encode_columns(self, columns: Mapping[str, Sequence],
                       count: int) -> List[np.ndarray]:
        """Every declared column of ``count`` rows as a ``(count, width)``
        ``uint8`` array, in schema order: row ``i`` of column ``c`` is the
        bytes :meth:`encode` lays down for that value.

        ``columns`` maps every column name (and no other) to ``count``
        values: a numpy array or any sequence.  Whatever :meth:`encode`
        rejects is rejected here with the same exception type, before any
        byte is produced -- ``CHAR`` values first, through the same
        truncate/NUL-pad rule, then the numeric columns: a numpy integer
        (or, for ``FLOAT64``, float) array by a min/max range check and one
        ``astype``, anything else by one ``struct.pack`` of the column.
        """
        names = self.schema.column_names()
        if set(columns) != set(names):
            raise SchemaError(f"columns {sorted(columns)} do not match the "
                              f"schema's {sorted(names)}")
        for name in names:
            if len(columns[name]) != count:
                raise SchemaError(f"column {name!r} holds {len(columns[name])} "
                                  f"values, expected {count}")
        encoded: Dict[str, np.ndarray] = {}
        for column in self.schema:
            if column.type is ColumnType.CHAR:
                raw = b"".join([_char_bytes(value, column.byte_width)
                                for value in columns[column.name]])
                encoded[column.name] = np.frombuffer(raw, dtype=np.uint8)
        for column in self.schema:
            if column.type is not ColumnType.CHAR:
                encoded[column.name] = _numeric_bytes(column.type,
                                                      columns[column.name], count)
        return [encoded[column.name].reshape(count, column.byte_width)
                for column in self.schema]

    def decode(self, data: bytes) -> Tuple:
        """Deserialise a record previously produced by :meth:`encode`."""
        if len(data) < self.packed_size:
            raise SchemaError(
                f"record buffer of {len(data)} bytes is shorter than packed size {self.packed_size}")
        values = struct.unpack_from(self._struct_format, data)
        out = []
        for column, value in zip(self.schema, values):
            if column.type is ColumnType.CHAR:
                out.append(value.rstrip(b"\x00").decode(errors="replace"))
            else:
                out.append(value)
        return tuple(out)

    def decode_column(self, data: bytes, column_name: str):
        """Decode a single column without materialising the whole record."""
        codec = self.column_codecs.get(column_name)
        if codec is None:
            self.schema.index_of(column_name)  # raises SchemaError
        offset, code, width = codec
        if code is None:
            raw = data[offset:offset + width]
            return raw.rstrip(b"\x00").decode(errors="replace")
        return struct.unpack_from(code, data, offset)[0]


def _char_bytes(value, width: int) -> bytes:
    """A CHAR value truncated / NUL-padded to its fixed width."""
    raw = value.encode() if isinstance(value, str) else bytes(value)
    return raw[:width].ljust(width, b"\x00")


#: Little-endian numpy dtype of each numeric column type (``struct``'s
#: ``<i``, ``<q`` and ``<d``).
_NUMPY_DTYPES = {ColumnType.INT32: np.dtype("<i4"),
                 ColumnType.INT64: np.dtype("<i8"),
                 ColumnType.FLOAT64: np.dtype("<f8")}


def _numeric_bytes(column_type: ColumnType, values: Sequence,
                   count: int) -> np.ndarray:
    """``values`` packed as ``struct`` packs them with the column's code,
    as a flat ``uint8`` array; raises what ``struct.pack`` would."""
    dtype = _NUMPY_DTYPES[column_type]
    code = column_type.struct_code
    if isinstance(values, np.ndarray) and values.ndim == 1 \
            and values.dtype.kind in "biuf":
        if values.dtype.kind == "f" and dtype.kind == "i":
            raise struct.error("required argument is not an integer")
        if dtype.kind == "i" and values.size:
            info = np.iinfo(dtype)
            if int(values.min()) < info.min or int(values.max()) > info.max:
                raise struct.error(f"'{code}' format requires {info.min} "
                                   f"<= number <= {info.max}")
        return values.astype(dtype).view(np.uint8)
    return np.frombuffer(struct.pack(f"<{count}{code}", *values), dtype=np.uint8)


def microbenchmark_schema(record_size: int = 100, name: str = "R") -> Tuple[Schema, RecordLayout]:
    """The paper's relation R/S schema at a given record size.

    Three declared integer attributes ``a1, a2, a3`` followed by anonymous
    integer filler up to ``record_size`` bytes (the paper varies this between
    20 and 200 bytes; the default is the 100 bytes used for most results).
    """
    if record_size < 12:
        raise SchemaError("record_size must be at least 12 bytes (three integers)")
    schema = Schema.of(
        Column("a1", ColumnType.INT32),
        Column("a2", ColumnType.INT32),
        Column("a3", ColumnType.INT32),
        name=name,
    )
    layout = RecordLayout.build(schema, record_size=record_size)
    return schema, layout
