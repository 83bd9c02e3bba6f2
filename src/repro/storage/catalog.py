"""Tables and the system catalog.

A :class:`Table` couples a schema/layout with the heap file holding its
records and any secondary indexes built over it.  The :class:`Catalog` owns
the simulated address space, the buffer pools (separate pools for heap pages
and index pages so the two kinds of data live in distinct address regions),
and the set of tables -- it is the storage-level facade the engine layer
builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from .address_space import AddressSpace

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance (storage <-> index)
    from ..index.btree import BTreeIndex
from .buffer_pool import BufferPool
from .heapfile import PAGE_STYLE_NSM, HeapFile
from .page import DEFAULT_PAGE_SIZE, RecordId, decode_values
from .schema import RecordLayout, Schema


class CatalogError(RuntimeError):
    """Raised for unknown tables/indexes or conflicting definitions."""


@dataclass
class Table:
    """A stored table: schema, layout, heap file and secondary indexes."""

    name: str
    schema: Schema
    layout: RecordLayout
    heap: HeapFile
    indexes: Dict[str, "BTreeIndex"] = field(default_factory=dict)

    # ------------------------------------------------------------ mutation
    def insert(self, values: Sequence) -> RecordId:
        """Insert a row, maintaining every secondary index."""
        rid = self.heap.insert(values)
        if self.indexes:
            for column_name, index in self.indexes.items():
                key = values[self.schema.index_of(column_name)]
                index.insert(key, rid)
        return rid

    def insert_many(self, columns: Mapping[str, Sequence], count: int) -> int:
        """Insert ``count`` rows given column-wise, maintaining every
        secondary index; returns ``count``.

        The heap is packed a page at a time (:meth:`HeapFile.pack`), then
        each row's entries go into the indexes in row order, as
        :meth:`insert` adds them.  Heap pages and index nodes come from
        separate address regions, so the pages, nodes and cursors equal
        those of ``count`` :meth:`insert` calls.  Values a column cannot
        hold and keys a unique index already holds (or that repeat) are
        rejected before anything is written.
        """
        keyed = [(index, _values(columns[name]))
                 for name, index in self.indexes.items()]
        for index, keys in keyed:
            if index.unique:
                _check_unique(index, keys)
        runs = self.heap.pack(columns, count)
        if keyed:
            row = 0
            for page_number, first, placed in runs:
                for slot in range(first, first + placed):
                    rid = RecordId(page_number, slot)
                    for index, keys in keyed:
                        index.insert(keys[row], rid)
                    row += 1
        return count

    def update(self, rid: RecordId, values: Sequence) -> None:
        """Update a row in place, maintaining indexes on changed keys."""
        for column_name in self.indexes:
            self._move_index_entry(rid, column_name,
                                   values[self.schema.index_of(column_name)])
        self.heap.update(rid, values)

    def update_field(self, rid: RecordId, column_name: str, value) -> None:
        """Update one column of a row in place; only an index on that column
        can need maintenance, and only then is the old value decoded."""
        if column_name in self.indexes:
            self._move_index_entry(rid, column_name, value)
        self.heap.update_field(rid, column_name, value)

    def _move_index_entry(self, rid: RecordId, column_name: str, new_key) -> None:
        """Re-key ``rid`` in the index on ``column_name`` if its key changes."""
        old_key = self.heap.read_field(rid, column_name)
        if old_key != new_key:
            index = self.indexes[column_name]
            index.delete(old_key, rid)
            index.insert(new_key, rid)

    def delete(self, rid: RecordId) -> None:
        for column_name, index in self.indexes.items():
            index.delete(self.heap.read_field(rid, column_name), rid)
        self.heap.delete(rid)

    # -------------------------------------------------------------- queries
    @property
    def row_count(self) -> int:
        return self.heap.record_count

    def index_on(self, column_name: str) -> Optional["BTreeIndex"]:
        return self.indexes.get(column_name)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Table({self.name!r}, {self.row_count} rows, indexes={sorted(self.indexes)})"


def _check_unique(index: "BTreeIndex", keys: Sequence) -> None:
    """Raise the ``BTreeError`` inserting ``keys`` into ``index`` would."""
    from ..index.btree import BTreeError  # local import: storage <-> index cycle

    seen = set()
    for key in keys:
        if key in seen or index.search(key):
            raise BTreeError(f"duplicate key {key!r} in unique index {index.name!r}")
        seen.add(key)


def _values(column: Sequence) -> Sequence:
    """A column's values as Python scalars (index keys)."""
    return column.tolist() if isinstance(column, np.ndarray) else column


class Catalog:
    """The storage manager: address space, buffer pools and table registry."""

    def __init__(self,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 address_space: Optional[AddressSpace] = None) -> None:
        self.page_size = page_size
        self.address_space = address_space or AddressSpace()
        self.heap_pool = BufferPool(self.address_space, region="heap", page_size=page_size)
        self.index_pool = BufferPool(self.address_space, region="index", page_size=page_size)
        self._tables: Dict[str, Table] = {}

    # ----------------------------------------------------------- DDL paths
    def create_table(self, name: str, schema: Schema,
                     record_size: Optional[int] = None,
                     layout_style: str = PAGE_STYLE_NSM) -> Table:
        """Create a table; ``layout_style`` picks NSM or PAX page organisation."""
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        layout = RecordLayout.build(schema, record_size=record_size)
        heap = HeapFile(name, layout, self.heap_pool, page_style=layout_style)
        table = Table(name=name, schema=schema, layout=layout, heap=heap)
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[name]

    def create_index(self, table_name: str, column_name: str,
                     unique: bool = False) -> "BTreeIndex":
        """Create (and populate) a non-clustered B+-tree on one column.

        The keys are read a page at a time (one pool fetch per heap page,
        one :func:`decode_values` of the column per page) and handed to
        :meth:`~repro.index.btree.BTreeIndex.bulk_load` with their rids
        in storage order."""
        table = self.table(table_name)
        from ..index.btree import BTreeIndex  # local import: storage <-> index cycle

        table.schema.column(column_name)  # validates existence
        if column_name in table.indexes:
            raise CatalogError(
                f"index on {table_name}.{column_name} already exists")
        index = BTreeIndex(name=f"{table_name}_{column_name}_idx",
                           address_space=self.address_space, unique=unique)
        layout = table.layout
        entries: List[Tuple[object, RecordId]] = []
        for page, slots in table.heap.scan_pages():
            number = page.page_number
            entries.extend(zip(decode_values(page, layout, column_name, slots),
                               [RecordId(number, slot) for slot in slots]))
        index.bulk_load(entries)
        table.indexes[column_name] = index
        return index

    def drop_index(self, table_name: str, column_name: str) -> None:
        table = self.table(table_name)
        if column_name not in table.indexes:
            raise CatalogError(f"no index on {table_name}.{column_name}")
        del table.indexes[column_name]

    # -------------------------------------------------------------- lookups
    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._tables))

    def tables(self) -> Iterator[Table]:
        for name in sorted(self._tables):
            yield self._tables[name]

    def total_data_bytes(self) -> int:
        """Total relation bytes resident (the 'memory resident database' size)."""
        return sum(table.heap.data_bytes() for table in self._tables.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Catalog(tables={list(self.table_names())})"
