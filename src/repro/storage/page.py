"""Slotted pages.

Pages are the unit of buffer-pool management.  Each page owns a byte buffer of
``page_size`` bytes, a small header and a slot directory growing from the end
of the page toward the data area growing from the front -- the classic slotted
page organisation.  Records are stored contiguously, so a sequential scan of a
heap file sweeps virtual addresses monotonically, which is the access pattern
whose L2 behaviour Section 5.2.1 analyses.

Every page is assigned a stable, page-aligned virtual address by the buffer
pool; :meth:`SlottedPage.slot_address` and :meth:`SlottedPage.field_address`
translate a slot (and field offset) into the address the execution engine
presents to the simulated processor.  :func:`decode_values` reads one
column of many slots off either page organisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .schema import VECTOR_DTYPES, vector_of

DEFAULT_PAGE_SIZE = 8192

#: Bytes reserved at the start of each page for the header (page id, slot
#: count, free-space pointer, LSN placeholder).
PAGE_HEADER_BYTES = 24

#: Bytes per slot-directory entry (record offset + record length).
SLOT_ENTRY_BYTES = 4


def records_per_page(page_size: int, record_bytes: int) -> int:
    """Equal-size records a slotted page accepts (each costs its bytes plus a
    slot entry); record ``i`` then starts ``PAGE_HEADER_BYTES + i *
    record_bytes`` into the page."""
    return (page_size - PAGE_HEADER_BYTES) // (record_bytes + SLOT_ENTRY_BYTES)


class PageError(RuntimeError):
    """Raised on invalid page operations (overflow, bad slot, ...)."""


@dataclass(frozen=True, slots=True)
class RecordId:
    """Physical record identifier: (page number, slot number).

    Slotted: an index holds one per record (1.2M at the paper's scale), and
    without a ``__dict__`` each is about a third smaller.
    """

    page_number: int
    slot: int

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return f"RID({self.page_number},{self.slot})"


class SlottedPage:
    """A fixed-size page with a slot directory.

    The implementation stores record payloads in a shared ``bytearray`` and
    keeps the slot directory as Python lists of offsets and lengths.  Deleted
    slots keep their directory entry with a length of ``-1`` (tombstone), as
    real systems do, so record ids of surviving records stay valid.
    """

    #: NSM pages store each record's bytes contiguously.
    columnar = False

    __slots__ = ("page_number", "page_size", "base_address", "_buffer",
                 "_offsets", "_lengths", "_free_offset", "dirty")

    def __init__(self, page_number: int, base_address: int,
                 page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= PAGE_HEADER_BYTES + SLOT_ENTRY_BYTES:
            raise PageError(f"page_size {page_size} is too small")
        self.page_number = page_number
        self.page_size = page_size
        self.base_address = base_address
        self._buffer = bytearray(page_size)
        self._offsets: List[int] = []
        self._lengths: List[int] = []
        self._free_offset = PAGE_HEADER_BYTES
        self.dirty = False

    # ------------------------------------------------------------ capacity
    @property
    def slot_count(self) -> int:
        """Number of slot-directory entries, including tombstones."""
        return len(self._offsets)

    @property
    def live_records(self) -> int:
        return sum(1 for length in self._lengths if length >= 0)

    def free_space(self) -> int:
        """Bytes available for a new record (payload plus its slot entry)."""
        directory_bytes = (self.slot_count + 1) * SLOT_ENTRY_BYTES
        return self.page_size - self._free_offset - directory_bytes

    def has_room_for(self, record_size: int) -> bool:
        return self.free_space() >= record_size

    def room_for(self, record_size: int) -> int:
        """How many more ``record_size``-byte records :meth:`insert` would
        accept, one after another."""
        spare = self.page_size - self._free_offset - self.slot_count * SLOT_ENTRY_BYTES
        return max(spare // (record_size + SLOT_ENTRY_BYTES), 0)

    # ------------------------------------------------------------- mutation
    def append(self, records, count: int, record_size: int) -> int:
        """Lay ``count`` records of ``record_size`` bytes (``records``, their
        bytes back to back) down at the free offset, as that many
        :meth:`insert` calls would; returns the first new slot."""
        if count > self.room_for(record_size):
            raise PageError(
                f"page {self.page_number}: {count} records of {record_size} "
                f"bytes do not fit ({self.free_space()} bytes free)")
        first = len(self._offsets)
        offset = self._free_offset
        end = offset + count * record_size
        self._buffer[offset:end] = records
        self._offsets.extend(range(offset, end, record_size))
        self._lengths.extend([record_size] * count)
        self._free_offset = end
        self.dirty = True
        return first

    def insert(self, record_bytes: bytes) -> int:
        """Insert a record; returns the slot number.

        Raises :class:`PageError` when the record does not fit.
        """
        size = len(record_bytes)
        if not self.has_room_for(size):
            raise PageError(
                f"page {self.page_number}: record of {size} bytes does not fit "
                f"({self.free_space()} bytes free)")
        offset = self._free_offset
        self._buffer[offset:offset + size] = record_bytes
        self._free_offset += size
        self._offsets.append(offset)
        self._lengths.append(size)
        self.dirty = True
        return len(self._offsets) - 1

    def delete(self, slot: int) -> None:
        """Tombstone a slot (space is not compacted)."""
        self._check_slot(slot)
        self._lengths[slot] = -1
        self.dirty = True

    def update_in_place(self, slot: int, record_bytes: bytes) -> None:
        """Overwrite a record of identical size (fixed-size record update)."""
        self._check_slot(slot)
        length = self._lengths[slot]
        if length != len(record_bytes):
            raise PageError(
                f"in-place update requires identical size (old {length}, new {len(record_bytes)})")
        offset = self._offsets[slot]
        self._buffer[offset:offset + length] = record_bytes
        self.dirty = True

    def write_field(self, slot: int, field_offset: int, field_bytes: bytes) -> None:
        """Overwrite ``field_bytes`` at record-relative ``field_offset``: the
        single-field form of :meth:`update_in_place`."""
        self._check_slot(slot)
        if not 0 <= field_offset <= self._lengths[slot] - len(field_bytes):
            raise PageError(
                f"page {self.page_number}: {len(field_bytes)} bytes at offset "
                f"{field_offset} fall outside the {self._lengths[slot]}-byte record")
        position = self._offsets[slot] + field_offset
        self._buffer[position:position + len(field_bytes)] = field_bytes
        self.dirty = True

    # --------------------------------------------------------------- access
    def record_bytes(self, slot: int) -> bytes:
        self._check_slot(slot)
        offset, length = self._offsets[slot], self._lengths[slot]
        return bytes(self._buffer[offset:offset + length])

    def record_view(self, slot: int) -> memoryview:
        """Zero-copy view of a record's bytes (hot path for field decoding)."""
        self._check_slot(slot)
        offset, length = self._offsets[slot], self._lengths[slot]
        return memoryview(self._buffer)[offset:offset + length]

    def field_values(self, offset: int, code: str,
                     slots: Sequence[int]) -> np.ndarray:
        """The fixed-width field at record-relative ``offset`` (``struct``
        format ``code``) of ascending ``slots``, as a new array.  Records
        are appended back to back, so a run of consecutive slots holding
        records of one size -- every run of a fixed-size table -- is one
        strided copy off the page buffer; any other slot list is a gather."""
        dtype = np.dtype(code)
        count = len(slots)
        if count:
            first = slots[0]
            size = self._lengths[first]
            if (slots[count - 1] - first == count - 1 and size > 0
                    and self._lengths[first:first + count].count(size) == count):
                return np.ndarray(count, dtype, self._buffer,
                                  self._offsets[first] + offset, (size,)).copy()
        return self.raw_fields(offset, dtype.itemsize, slots).view(dtype).reshape(count)

    def raw_fields(self, offset: int, width: int,
                   slots: Sequence[int]) -> np.ndarray:
        """``(len(slots), width)`` ``uint8`` copy of the ``width`` bytes at
        record-relative ``offset`` of each slot's record."""
        offsets = self._offsets
        starts = np.array([offsets[slot] for slot in slots], dtype=np.intp)
        page = np.frombuffer(self._buffer, dtype=np.uint8)
        return page[(starts + offset)[:, None] + np.arange(width)]

    def slot_address(self, slot: int) -> int:
        """Virtual address of the first byte of the record in ``slot``."""
        self._check_slot(slot)
        return self.base_address + self._offsets[slot]

    def field_address(self, slot: int, field_offset: int) -> int:
        """Virtual address of byte ``field_offset`` within the record."""
        return self.slot_address(slot) + field_offset

    def slot_addresses(self) -> List[int]:
        """:meth:`slot_address` of every slot, indexed by slot (tombstones
        included, unchecked): one list per page for a scan over its slots."""
        base = self.base_address
        return [base + offset for offset in self._offsets]

    def live_slots(self) -> Iterator[int]:
        for slot, length in enumerate(self._lengths):
            if length >= 0:
                yield slot

    def is_live(self, slot: int) -> bool:
        return 0 <= slot < len(self._lengths) and self._lengths[slot] >= 0

    # ------------------------------------------------------------ internals
    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < len(self._offsets):
            raise PageError(f"page {self.page_number}: invalid slot {slot}")
        if self._lengths[slot] < 0:
            raise PageError(f"page {self.page_number}: slot {slot} is deleted")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"SlottedPage(#{self.page_number}, {self.live_records} records, "
                f"{self.free_space()} bytes free)")


class PaxPage:
    """A PAX (Partition Attributes Across) page for fixed-layout records.

    Instead of storing each record's bytes contiguously, the page is divided
    into one *minipage* per column (plus one for the anonymous record
    padding, so a PAX page holds the same number of records as an NSM page
    of the same size): record ``i``'s value for column ``c`` lives at
    ``minipage(c) + i * width(c)``.  A scan that only touches a few columns
    therefore sweeps a handful of dense value arrays instead of striding
    through whole records -- the cache-conscious layout Ailamaki et al.
    proposed as the remedy for the L2 data stalls this paper measures.

    The class mirrors the :class:`SlottedPage` record interface (``insert``,
    ``record_bytes``, ``record_view``, ``slot_address``, ``field_address``,
    ``live_slots``...) so heap files and the tuple-at-a-time executor work
    unchanged, and adds the columnar surface (``column_address``,
    ``column_values``) the vectorized executor batches over.  Records are
    fixed-size, so the slot directory degenerates to a live-bitmap.
    """

    columnar = True

    __slots__ = ("page_number", "page_size", "base_address", "layout",
                 "capacity", "_buffer", "_live", "_geometry", "dirty")

    def __init__(self, page_number: int, base_address: int, layout,
                 page_size: int = DEFAULT_PAGE_SIZE) -> None:
        record_size = layout.record_size
        capacity = (page_size - PAGE_HEADER_BYTES) // record_size
        if capacity <= 0:
            raise PageError(
                f"page_size {page_size} cannot hold a {record_size}-byte PAX record")
        self.page_number = page_number
        self.page_size = page_size
        self.base_address = base_address
        self.layout = layout
        self.capacity = capacity
        self._buffer = bytearray(page_size)
        self._live: List[bool] = []
        # ``(minipage_offset, record_offset, width)`` per column, in schema
        # order, plus one minipage for the anonymous filler when the layout
        # pads.
        geometry = []
        cursor = PAGE_HEADER_BYTES
        for record_offset, width in layout.slices:
            geometry.append((cursor, record_offset, width))
            cursor += width * capacity
        self._geometry = tuple(geometry)
        self.dirty = False

    # ------------------------------------------------------------ capacity
    @property
    def slot_count(self) -> int:
        """Number of slots ever used, including tombstones."""
        return len(self._live)

    @property
    def live_records(self) -> int:
        return sum(self._live)

    def free_space(self) -> int:
        return (self.capacity - len(self._live)) * self.layout.record_size

    def has_room_for(self, record_size: int) -> bool:
        if record_size != self.layout.record_size:
            raise PageError(
                f"PAX page stores fixed {self.layout.record_size}-byte records, "
                f"got {record_size}")
        return len(self._live) < self.capacity

    def room_for(self, record_size: int) -> int:
        """How many more records :meth:`insert` would accept."""
        self.has_room_for(record_size)  # rejects a foreign record size
        return self.capacity - len(self._live)

    # ------------------------------------------------------------- mutation
    def append(self, minipages: Sequence, count: int) -> int:
        """Lay ``count`` records down as that many :meth:`insert` calls
        would: ``minipages`` holds one run of ``count * width`` bytes per
        ``_geometry`` entry, in slot order.  Returns the first new slot."""
        first = len(self._live)
        if count > self.capacity - first:
            raise PageError(f"PAX page {self.page_number}: {count} records "
                            f"do not fit ({self.capacity - first} free)")
        buffer = self._buffer
        for (offset, _field_offset, width), values in zip(self._geometry, minipages):
            start = offset + first * width
            buffer[start:start + count * width] = values
        self._live.extend([True] * count)
        self.dirty = True
        return first

    def insert(self, record_bytes: bytes) -> int:
        """Scatter one NSM-encoded record across the minipages; returns the slot."""
        if not self.has_room_for(len(record_bytes)):
            raise PageError(f"PAX page {self.page_number} is full "
                            f"({self.capacity} records)")
        slot = len(self._live)
        self._scatter(slot, record_bytes)
        self._live.append(True)
        self.dirty = True
        return slot

    def delete(self, slot: int) -> None:
        """Tombstone a slot (the minipage entries are not compacted)."""
        self._check_slot(slot)
        self._live[slot] = False
        self.dirty = True

    def update_in_place(self, slot: int, record_bytes: bytes) -> None:
        self._check_slot(slot)
        if len(record_bytes) != self.layout.record_size:
            raise PageError(
                f"in-place update requires identical size "
                f"(old {self.layout.record_size}, new {len(record_bytes)})")
        self._scatter(slot, record_bytes)
        self.dirty = True

    def write_field(self, slot: int, field_offset: int, field_bytes: bytes) -> None:
        """Overwrite ``field_bytes`` at record-relative ``field_offset``, in
        the minipage that owns it -- no gather, no scatter."""
        self._check_slot(slot)
        minipage, start, width = self._minipage_of(field_offset)
        if field_offset + len(field_bytes) > start + width:
            raise PageError(
                f"page {self.page_number}: {len(field_bytes)} bytes at offset "
                f"{field_offset} cross a minipage boundary")
        position = minipage + slot * width + (field_offset - start)
        self._buffer[position:position + len(field_bytes)] = field_bytes
        self.dirty = True

    def _scatter(self, slot: int, record_bytes: bytes) -> None:
        buffer = self._buffer
        for offset, field_offset, width in self._geometry:
            position = offset + slot * width
            buffer[position:position + width] = \
                record_bytes[field_offset:field_offset + width]

    def _minipage_of(self, field_offset: int) -> Tuple[int, int, int]:
        """The ``_geometry`` entry whose record range holds ``field_offset``."""
        for entry in self._geometry:
            if entry[1] <= field_offset < entry[1] + entry[2]:
                return entry
        raise PageError(f"field offset {field_offset} outside the "
                        f"{self.layout.record_size}-byte record")

    # --------------------------------------------------------------- access
    def record_bytes(self, slot: int) -> bytes:
        """Reassemble the NSM byte image of the record in ``slot``."""
        self._check_slot(slot)
        out = bytearray(self.layout.record_size)
        buffer = self._buffer
        for offset, field_offset, width in self._geometry:
            position = offset + slot * width
            out[field_offset:field_offset + width] = buffer[position:position + width]
        return bytes(out)

    def record_view(self, slot: int) -> memoryview:
        """Row view of a record (materialised: PAX rows are not contiguous)."""
        return memoryview(self.record_bytes(slot))

    def slot_address(self, slot: int) -> int:
        """Virtual address of the record's first column value."""
        self._check_slot(slot)
        minipage, _, width = self._geometry[0]
        return self.base_address + minipage + slot * width

    def field_address(self, slot: int, field_offset: int) -> int:
        """Virtual address of record-relative byte ``field_offset``.

        The NSM record offset is translated to the owning minipage: byte
        ``field_offset`` of record ``slot`` lives in the minipage of the
        column whose ``[offset, offset + width)`` range contains it.
        """
        minipage, start, width = self._minipage_of(field_offset)
        return self.base_address + minipage + slot * width + (field_offset - start)

    # ------------------------------------------------------------- columnar
    def column_address(self, column_name: str) -> int:
        """Virtual address of the first value in a column's minipage."""
        index = self.layout.schema.index_of(column_name)
        return self.base_address + self._geometry[index][0]

    def column_span(self, column_name: str, slots: Sequence[int]) -> Tuple[int, int]:
        """``(address, bytes)`` of the minipage range covering ``slots``."""
        if not slots:
            return self.column_address(column_name), 0
        index = self.layout.schema.index_of(column_name)
        minipage, _, width = self._geometry[index]
        first, last = min(slots), max(slots)
        address = self.base_address + minipage + first * width
        return address, (last - first + 1) * width

    def column_values(self, column_name: str,
                      slots: Sequence[int]) -> np.ndarray:
        """A column's values for ascending ``slots``, as a new array indexed
        out of its minipage (a slice for consecutive slots)."""
        index = self.layout.schema.index_of(column_name)
        column = self.layout.schema.columns[index]
        base, _, width = self._geometry[index]
        dtype = VECTOR_DTYPES[column.type]
        if dtype == object:
            dtype = np.dtype((np.uint8, width))
        minipage = np.frombuffer(self._buffer, dtype, self.capacity, base)
        count = len(slots)
        if count and slots[count - 1] - slots[0] == count - 1:
            values = minipage[slots[0]:slots[0] + count].copy()
        else:
            values = minipage[np.asarray(slots, dtype=np.intp)]
        return _char_values(values) if values.ndim == 2 else values

    def live_slots(self) -> Iterator[int]:
        for slot, live in enumerate(self._live):
            if live:
                yield slot

    def is_live(self, slot: int) -> bool:
        return 0 <= slot < len(self._live) and self._live[slot]

    # ------------------------------------------------------------ internals
    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < len(self._live):
            raise PageError(f"page {self.page_number}: invalid slot {slot}")
        if not self._live[slot]:
            raise PageError(f"page {self.page_number}: slot {slot} is deleted")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"PaxPage(#{self.page_number}, {self.live_records}/{self.capacity} "
                f"records, {len(self.layout.schema)} minipages)")


def _char_values(raw: np.ndarray) -> np.ndarray:
    """``object`` vector of the ``CHAR`` values whose bytes are the rows of
    ``raw`` (``(count, width)`` ``uint8``): NUL padding stripped, decoded as
    :meth:`~repro.storage.schema.RecordLayout.decode` does."""
    width = raw.shape[1]
    data = raw.tobytes()
    return vector_of([data[start:start + width].rstrip(b"\x00").decode(errors="replace")
                      for start in range(0, len(data), width)], object)


def decode_values(page, layout, column: str, slots: Sequence[int]) -> np.ndarray:
    """``column``'s values for the ascending live ``slots`` of an NSM or PAX
    page, as a new array of the column's :data:`~repro.storage.schema.
    VECTOR_DTYPES` dtype (it never shares the page's memory): one minipage
    read on PAX, one strided copy or gather on NSM.  Pure data work --
    nothing reaches the simulated hardware."""
    if page.columnar:
        return page.column_values(column, slots)
    offset, code, width = layout.column_codecs[column]
    if code is not None:
        return page.field_values(offset, code, slots)
    return _char_values(page.raw_fields(offset, width, slots))
