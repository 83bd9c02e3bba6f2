"""Eviction/reload round trips through the buffer pool's backing store.

Before the spilling work, a capacity-limited :class:`BufferPool` silently
*discarded* evicted frames: ``fetch_page`` on an evicted page raised, and
any data on it was gone -- a data-loss bug masked only by the default
everything-resident configuration.  These tests pin the fixed contract:

* evicted frames land in the simulated backing store (the ``disk`` region)
  and come back bit-identical on the next fetch;
* dirty victims charge exactly one page write through the ``io`` cost
  model, clean victims charge nothing, and every reload charges one page
  read;
* the LRU victim choice respects recency and pins, and a freshly admitted
  frame is never the victim that makes room for itself;
* ``BufferPoolError`` is reserved for page numbers that were *never*
  allocated (plus genuine misuse: all-pinned-and-full, pin leaks);
* a :class:`HeapFile` survives on a pool far smaller than its data.
"""

from __future__ import annotations

import pytest

from repro.execution import ExecutionContext
from repro.hardware import SimulatedProcessor
from repro.storage import BufferPool, BufferPoolError, microbenchmark_schema
from repro.storage.address_space import AddressSpace
from repro.storage.heapfile import HeapFile
from repro.systems import SYSTEM_B


class RecordingIO:
    """Minimal ``io`` collaborator: records the charged page transfers."""

    def __init__(self):
        self.writes = []
        self.reads = []

    def page_io_out(self, address, nbytes):
        self.writes.append((address, nbytes))

    def page_io_in(self, address, nbytes):
        self.reads.append((address, nbytes))


class TestEvictionRoundTrip:
    def test_dirty_page_survives_eviction_and_reload(self):
        pool = BufferPool(AddressSpace(), capacity_pages=2)
        first = pool.allocate_page()
        slot = first.insert(b"payload-that-must-survive".ljust(64, b"\0"))
        pool.allocate_page()
        pool.allocate_page()          # capacity 2: evicts `first`
        assert not pool.is_resident(first.page_number)
        assert pool.page_exists(first.page_number)
        reloaded = pool.fetch_page(first.page_number)
        assert reloaded.record_bytes(slot) == b"payload-that-must-survive".ljust(64, b"\0")
        assert pool.stats.evictions >= 1
        assert pool.stats.faults == 1
        assert pool.stats.page_reads == 1

    def test_dirty_eviction_charges_one_write_clean_charges_none(self):
        io = RecordingIO()
        pool = BufferPool(AddressSpace(), capacity_pages=1, page_size=8192, io=io)
        dirty = pool.allocate_page()
        dirty.insert(b"x" * 16)
        assert dirty.dirty
        pool.allocate_page()          # evicts the dirty page: one charged write
        assert pool.stats.page_writes == 1
        assert io.writes == [(pool._disk_address(dirty.page_number), 8192)]
        # The victim this time is clean (never written): no charge.
        pool.allocate_page()
        assert pool.stats.page_writes == 1
        assert pool.stats.evictions == 2
        # Reloading charges a read from the same stable disk address.
        pool.fetch_page(dirty.page_number)
        assert pool.stats.page_reads == 1
        assert io.reads == [(pool._disk_address(dirty.page_number), 8192)]

    def test_reload_clears_dirty_until_rewritten(self):
        pool = BufferPool(AddressSpace(), capacity_pages=1)
        page = pool.allocate_page()
        page.insert(b"a" * 8)
        pool.allocate_page()                        # write-back clears dirty
        reloaded = pool.fetch_page(page.page_number)
        assert not reloaded.dirty
        pool.allocate_page()                        # clean re-eviction: no new write
        assert pool.stats.page_writes == 1

    def test_lru_victim_order_respects_recency(self):
        pool = BufferPool(AddressSpace(), capacity_pages=2)
        a = pool.allocate_page()
        b = pool.allocate_page()
        pool.fetch_page(a.page_number)   # touch a: b becomes LRU
        pool.allocate_page()
        assert pool.is_resident(a.page_number)
        assert not pool.is_resident(b.page_number)

    def test_never_allocated_page_still_raises_and_counts_a_fault(self):
        pool = BufferPool(AddressSpace(), capacity_pages=2)
        with pytest.raises(BufferPoolError, match="never allocated"):
            pool.fetch_page(1234)
        assert pool.stats.faults == 1
        assert pool.stats.page_reads == 0

    def test_stats_round_trip(self):
        pool = BufferPool(AddressSpace(), capacity_pages=1)
        page = pool.allocate_page()
        page.insert(b"y" * 4)
        pool.allocate_page()
        pool.fetch_page(page.page_number)
        stats = pool.stats.as_dict()
        assert stats["fetches"] == 1
        assert stats["hits"] == 0
        assert stats["faults"] == 1
        assert stats["evictions"] == 2          # second alloc + the reload's victim
        assert stats["page_writes"] == 1
        assert stats["page_reads"] == 1
        assert stats["hit_rate"] == 0.0


class TestAdmissionExemption:
    """A freshly admitted frame must never be its own eviction victim."""

    def test_fresh_allocation_survives_tight_capacity(self):
        pool = BufferPool(AddressSpace(), capacity_pages=1)
        first = pool.allocate_page()
        first.insert(b"z" * 8)
        second = pool.allocate_page()
        # The new page displaced the old one -- not itself.
        assert pool.is_resident(second.page_number)
        assert not pool.is_resident(first.page_number)
        assert pool.page_exists(first.page_number)

    def test_reload_is_exempt_from_its_own_eviction(self):
        pool = BufferPool(AddressSpace(), capacity_pages=1)
        first = pool.allocate_page()
        pool.allocate_page()
        reloaded = pool.fetch_page(first.page_number)
        assert reloaded is first
        assert pool.is_resident(first.page_number)

    def test_allocate_pinned_returns_a_pinned_page(self):
        pool = BufferPool(AddressSpace(), capacity_pages=1)
        page = pool.allocate_page(pin=True)
        assert pool.pin_count(page.page_number) == 1
        # Pool full of pinned pages: the next allocation must fail cleanly
        # without leaving the pool over capacity...
        with pytest.raises(BufferPoolError, match="pinned"):
            pool.allocate_page()
        assert len(pool) == 1
        assert pool.is_resident(page.page_number)
        # ...and succeed again once the pin is released.
        pool.unpin(page.page_number)
        pool.allocate_page()
        assert len(pool) == 1

    def test_pinned_page_is_never_the_victim(self):
        pool = BufferPool(AddressSpace(), capacity_pages=2)
        pinned = pool.allocate_page(pin=True)
        other = pool.allocate_page()
        pool.allocate_page()
        assert pool.is_resident(pinned.page_number)
        assert not pool.is_resident(other.page_number)


class TestChargedIOThroughContext:
    def test_execution_context_charges_page_transfers(self):
        space = AddressSpace()
        ctx = ExecutionContext(SimulatedProcessor(), SYSTEM_B, space)
        pool = BufferPool(space, capacity_pages=1, io=ctx)
        page = pool.allocate_page()
        page.insert(b"q" * 32)
        pool.allocate_page()                 # dirty eviction: charged write
        pool.fetch_page(page.page_number)    # reload: charged read
        assert ctx.io_stats["page_writes"] == 1
        assert ctx.io_stats["page_reads"] >= 1
        assert ctx.io_stats["bytes_written"] == pool.page_size
        assert ctx.io_stats["bytes_read"] >= pool.page_size


class TestHeapFileOnTinyPool:
    @pytest.mark.parametrize("style", ["nsm", "pax"])
    def test_scan_returns_every_row_despite_evictions(self, style):
        schema, layout = microbenchmark_schema(100)
        pool = BufferPool(AddressSpace(), capacity_pages=2)
        heap = HeapFile("R", layout, pool, page_style=style)
        rows = [(i, i % 7, i * 3) for i in range(300)]
        heap.pack(*heap.layout.schema.transpose(rows))
        assert heap.page_count > 2           # data genuinely exceeds the pool
        assert pool.stats.evictions > 0
        scanned = [heap.read_values(entry.rid)[:3] for entry in list(heap.scan())]
        assert scanned == rows
        assert pool.stats.page_reads > 0     # the scan really faulted pages in
