"""Heap files: unordered collections of fixed-layout records across pages.

A heap file appends records into slotted pages allocated from a buffer pool,
keeps the list of page numbers it owns, and supports the access paths the
microbenchmark needs:

* full sequential scan in storage order (the access pattern of the paper's
  sequential range selection),
* fetch-by-RID (the access pattern of the non-clustered index selection,
  where the leaf entries of the B+-tree point back into the heap), and
* simple record updates/deletes for the OLTP-style workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .buffer_pool import BufferPool
from .page import (PAGE_HEADER_BYTES, PageError, PaxPage, RecordId, SlottedPage,
                   records_per_page)
from .schema import RecordLayout


class HeapFileError(RuntimeError):
    """Raised on invalid heap-file operations."""


@dataclass(frozen=True)
class ScanEntry:
    """One record produced by a physical scan.

    ``address`` is the simulated virtual address of the record's first byte,
    which the executor combines with the layout's field offsets to produce
    the data accesses it presents to the processor model.
    """

    rid: RecordId
    page: SlottedPage
    slot: int
    address: int


#: Supported physical page organisations.
PAGE_STYLE_NSM = "nsm"
PAGE_STYLE_PAX = "pax"
PAGE_STYLES = (PAGE_STYLE_NSM, PAGE_STYLE_PAX)


class HeapFile:
    """An append-oriented file of fixed-layout records.

    ``page_style`` selects the physical page organisation: ``"nsm"`` (the
    default slotted pages the paper's systems use) or ``"pax"`` (one
    minipage per column, so column batches are contiguous and the
    vectorized scan can read them as dense spans).
    """

    #: Pages' worth of records :meth:`pack` lays out per step.
    PACK_CHUNK_PAGES = 64

    def __init__(self, name: str, layout: RecordLayout, buffer_pool: BufferPool,
                 page_style: str = PAGE_STYLE_NSM) -> None:
        if page_style not in PAGE_STYLES:
            raise HeapFileError(f"unknown page style {page_style!r}; "
                                f"expected one of {PAGE_STYLES}")
        self.name = name
        self.layout = layout
        self.buffer_pool = buffer_pool
        self.page_style = page_style
        self._page_numbers: List[int] = []
        self._page_number_set: set = set()
        self._record_count = 0
        self._current_page: Optional[SlottedPage] = None

    # ------------------------------------------------------------ mutation
    def insert(self, values: Sequence) -> RecordId:
        """Encode and append one record; returns its record id."""
        record_bytes = self.layout.encode(values)
        page = self._page_for_insert(len(record_bytes))
        slot = page.insert(record_bytes)
        self._record_count += 1
        return RecordId(page.page_number, slot)

    def pack(self, columns: Mapping[str, Sequence],
             count: int) -> List[Tuple[int, int, int]]:
        """Append ``count`` records given column-wise (column name ->
        ``count`` values), a page at a time; returns ``(page number, first
        slot, records)`` runs in row order.

        Pages, slot directories, allocation and pins end up exactly as
        ``count`` :meth:`insert` calls would leave them: the current fill
        page is topped up first, and each further page comes from the pool
        the way :meth:`_page_for_insert` takes it.  The values are checked
        in full (:meth:`RecordLayout.encode_columns`) before any page is
        touched, and records are laid out :data:`PACK_CHUNK_PAGES` pages'
        worth at a time, so no byte image of the whole relation is held.
        """
        layout = self.layout
        record_size = layout.record_size
        encoded = layout.encode_columns(columns, count)
        columnar = self.page_style == PAGE_STYLE_PAX
        chunk_rows = self.PACK_CHUNK_PAGES * self.records_per_page
        runs: List[Tuple[int, int, int]] = []
        for start in range(0, count, chunk_rows):
            rows = min(chunk_rows, count - start)
            if columnar:
                parts = [column[start:start + rows] for column in encoded]
                if layout.padding_bytes:
                    parts.append(np.zeros((rows, layout.padding_bytes), np.uint8))
                minipages = [memoryview(part).cast("B") for part in parts]
            else:
                image = np.zeros((rows, record_size), np.uint8)
                for (offset, width), column in zip(layout.slices, encoded):
                    image[:, offset:offset + width] = column[start:start + rows]
                records = memoryview(image).cast("B")
            done = 0
            while done < rows:
                page = self._current_page
                room = 0 if page is None else page.room_for(record_size)
                if not room:
                    page = self._next_fill_page()
                    room = page.room_for(record_size)
                    if not room:
                        raise PageError(f"a {record_size}-byte record does "
                                        f"not fit an empty page")
                placed = min(room, rows - done)
                if columnar:
                    first = page.append(
                        [view[done * width:(done + placed) * width]
                         for view, (_, width) in zip(minipages, layout.slices)],
                        placed)
                else:
                    first = page.append(
                        records[done * record_size:(done + placed) * record_size],
                        placed, record_size)
                runs.append((page.page_number, first, placed))
                done += placed
        self._record_count += count
        return runs

    def delete(self, rid: RecordId) -> None:
        page = self._page(rid.page_number)
        page.delete(rid.slot)
        self._record_count -= 1

    def update(self, rid: RecordId, values: Sequence) -> None:
        """In-place update (fixed-size records always fit)."""
        page = self._page(rid.page_number)
        page.update_in_place(rid.slot, self.layout.encode(values))

    def update_field(self, rid: RecordId, column: str, value) -> None:
        """Overwrite one column of the record at ``rid`` where it lies: at
        the slot's field offset on an NSM page, in the column's minipage on
        a PAX page.  The page bytes end up as :meth:`update` of the whole
        record with that one value changed would leave them."""
        offset = self.layout.offset_of(column)
        self.fetch(rid).page.write_field(
            rid.slot, offset, self.layout.encode_column(column, value))

    def _page_for_insert(self, record_size: int) -> SlottedPage:
        page = self._current_page
        if page is None or not page.has_room_for(record_size):
            page = self._next_fill_page()
        return page

    def _next_fill_page(self) -> SlottedPage:
        """Allocate the next fill target, pinned; unpin the previous one."""
        factory = None
        if self.page_style == PAGE_STYLE_PAX:
            layout = self.layout
            page_size = self.buffer_pool.page_size

            def factory(page_number: int, base_address: int) -> PaxPage:
                return PaxPage(page_number, base_address, layout, page_size)

        if self._current_page is not None:
            # The previous fill target was pinned below; release it so a
            # capacity-limited pool may evict it now that it is full.
            self.buffer_pool.unpin(self._current_page.page_number)
        page = self.buffer_pool.allocate_page(factory, pin=True)
        self._page_numbers.append(page.page_number)
        self._page_number_set.add(page.page_number)
        self._current_page = page
        return page

    def _page(self, page_number: int) -> SlottedPage:
        if page_number not in self._page_number_set:
            raise HeapFileError(f"page {page_number} does not belong to heap file {self.name!r}")
        return self.buffer_pool.fetch_page(page_number)

    # -------------------------------------------------------------- queries
    @property
    def record_count(self) -> int:
        return self._record_count

    @property
    def page_count(self) -> int:
        return len(self._page_numbers)

    @property
    def records_per_page(self) -> int:
        """Capacity of one page for this layout (used by cost estimates)."""
        page_size = self.buffer_pool.page_size
        if self.page_style == PAGE_STYLE_PAX:
            return max((page_size - PAGE_HEADER_BYTES) // self.layout.record_size, 1)
        return max(records_per_page(page_size, self.layout.record_size), 1)

    def data_bytes(self) -> int:
        """Bytes of record payload stored (working-set size of a full scan)."""
        return self._record_count * self.layout.record_size

    def page_numbers(self) -> Tuple[int, ...]:
        return tuple(self._page_numbers)

    # ------------------------------------------------------- data checkpoint
    def data_checkpoint(self) -> Tuple[Tuple[int, bytes, bool], ...]:
        """Snapshot every page's raw bytes (plus its dirty flag).

        Together with :meth:`data_restore` this extends the warmed-build
        reuse discipline (``AddressSpace.checkpoint``/``restore``, which
        only rolls back *allocation cursors*) to workloads that mutate
        data in place: the TPC-C-style transaction mix updates records, so
        re-measuring it against a shared build needs the page contents
        rolled back too.  The snapshot is taken and restored entirely at
        the Python level -- no buffer-pool statistics move and nothing is
        charged to the simulated processor, exactly like the address-space
        checkpoint.

        Covers in-place record updates (both NSM slotted pages and PAX
        minipages write through their fixed-size buffers); page *set*
        changes (inserts allocating new pages, deletes) are outside its
        contract -- :meth:`data_restore` asserts the page list is unchanged.
        """
        peek = self.buffer_pool.peek_page
        return tuple((number, bytes(peek(number)._buffer), peek(number).dirty)
                     for number in self._page_numbers)

    def data_restore(self, snapshot: Sequence[Tuple[int, bytes, bool]]) -> None:
        """Write a :meth:`data_checkpoint` snapshot back into the pages."""
        if len(snapshot) != len(self._page_numbers):
            raise HeapFileError(
                f"data_restore of heap file {self.name!r}: snapshot covers "
                f"{len(snapshot)} pages but the file now has "
                f"{len(self._page_numbers)} -- pages were allocated or "
                f"dropped since the checkpoint")
        peek = self.buffer_pool.peek_page
        for page_number, buffer, dirty in snapshot:
            page = peek(page_number)
            page._buffer[:] = buffer
            page.dirty = dirty

    # ----------------------------------------------------------------- scan
    def scan(self) -> Iterator[ScanEntry]:
        """Iterate over all live records in storage order."""
        fetch = self.buffer_pool.fetch_page
        for page_number in self._page_numbers:
            page = fetch(page_number)
            for slot in page.live_slots():
                yield ScanEntry(rid=RecordId(page_number, slot), page=page,
                                slot=slot, address=page.slot_address(slot))

    def scan_pages(self, start: Optional[int] = None,
                   stop: Optional[int] = None) -> Iterator[Tuple[SlottedPage, List[int]]]:
        """Iterate page-at-a-time: ``(page, [live slots])``.

        Both engines' sequential scans use this form.  Each page is fetched
        from the buffer pool once, and the scan decodes the values it needs
        straight off the page it holds (no per-record :meth:`fetch`); it
        charges the per-page buffer-pool management code path once per page
        boundary crossing (one of the candidate explanations in Section
        5.2.2 for the record-size effect on L1 instruction misses).

        ``start``/``stop`` restrict the iteration to a ``[start, stop)``
        slice of the heap's page sequence (the morsel-parallel exchange's
        unit of partitioning); only the selected pages are fetched.
        """
        fetch = self.buffer_pool.fetch_page
        for page_number in self._page_numbers[start:stop]:
            page = fetch(page_number)
            yield page, list(page.live_slots())

    def fetch(self, rid: RecordId) -> ScanEntry:
        """Fetch one record by rid (the index access paths and updates)."""
        page = self._page(rid.page_number)
        if not page.is_live(rid.slot):
            raise HeapFileError(f"record {rid} is deleted")
        return ScanEntry(rid=rid, page=page, slot=rid.slot,
                         address=page.slot_address(rid.slot))

    def read_values(self, rid: RecordId) -> Tuple:
        """Decode the full record at ``rid`` (convenience/tests)."""
        entry = self.fetch(rid)
        return self.layout.decode(bytes(entry.page.record_view(entry.slot)))

    def read_field(self, rid: RecordId, column: str):
        """Decode one column of the record at ``rid``."""
        page = self.fetch(rid).page
        if page.columnar:
            return page.column_values(column, (rid.slot,))[0]
        return self.layout.decode_column(bytes(page.record_view(rid.slot)), column)

    def __len__(self) -> int:
        return self._record_count

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"HeapFile({self.name!r}, {self._record_count} records, "
                f"{self.page_count} pages)")
