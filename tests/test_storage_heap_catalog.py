"""Tests for the buffer pool, heap files, tables and the catalog."""

import pytest

from repro.storage import (BufferPool, BufferPoolError, Catalog, CatalogError,
                           HeapFileError, RecordId, microbenchmark_schema)
from repro.storage.address_space import AddressSpace
from repro.storage.heapfile import HeapFile
from repro.storage.schema import RecordLayout


class TestBufferPool:
    def test_allocate_assigns_page_aligned_disjoint_addresses(self):
        pool = BufferPool(AddressSpace(), page_size=8192)
        pages = [pool.allocate_page() for _ in range(4)]
        addresses = [page.base_address for page in pages]
        assert len(set(addresses)) == 4
        assert all(addr % 8192 == 0 for addr in addresses)

    def test_fetch_hit_statistics(self):
        pool = BufferPool(AddressSpace())
        page = pool.allocate_page()
        fetched = pool.fetch_page(page.page_number)
        assert fetched is page
        assert pool.stats.hits == 1
        assert pool.stats.hit_rate == 1.0

    def test_fetch_unknown_page_is_a_fault(self):
        pool = BufferPool(AddressSpace())
        with pytest.raises(BufferPoolError):
            pool.fetch_page(99)
        assert pool.stats.faults == 1

    def test_pin_unpin(self):
        pool = BufferPool(AddressSpace())
        page = pool.allocate_page()
        pool.pin(page.page_number)
        pool.pin(page.page_number)
        assert pool.pin_count(page.page_number) == 2
        pool.unpin(page.page_number)
        pool.unpin(page.page_number)
        assert pool.pin_count(page.page_number) == 0
        with pytest.raises(BufferPoolError):
            pool.unpin(page.page_number)

    def test_capacity_eviction_skips_pinned_pages(self):
        pool = BufferPool(AddressSpace(), capacity_pages=2)
        first = pool.allocate_page()
        pool.pin(first.page_number)
        pool.allocate_page()
        pool.allocate_page()          # must evict the unpinned page
        assert pool.stats.evictions == 1
        assert pool.page_exists(first.page_number)

    def test_all_pinned_and_full_raises(self):
        pool = BufferPool(AddressSpace(), capacity_pages=1)
        page = pool.allocate_page()
        pool.pin(page.page_number)
        with pytest.raises(BufferPoolError):
            pool.allocate_page()


class TestHeapFile:
    def make_heap(self) -> HeapFile:
        schema, layout = microbenchmark_schema(100)
        return HeapFile("R", layout, BufferPool(AddressSpace()))

    def test_insert_scan_roundtrip(self):
        heap = self.make_heap()
        rows = [(i, i * 2, i * 3) for i in range(300)]
        heap.pack(*heap.layout.schema.transpose(rows))
        assert heap.record_count == 300
        scanned = [heap.layout.decode(bytes(e.page.record_view(e.slot))) for e in heap.scan()]
        assert scanned == rows

    def test_records_span_multiple_pages_in_order(self):
        heap = self.make_heap()
        heap.pack(*heap.layout.schema.transpose((i, 0, 0) for i in range(300)))
        assert heap.page_count > 1
        addresses = [entry.address for entry in heap.scan()]
        # Within the file, addresses are strictly increasing page by page.
        per_page = {}
        for entry in heap.scan():
            per_page.setdefault(entry.rid.page_number, []).append(entry.address)
        for addrs in per_page.values():
            assert addrs == sorted(addrs)

    def test_fetch_by_rid(self):
        heap = self.make_heap()
        rid = heap.insert((7, 8, 9))
        entry = heap.fetch(rid)
        assert heap.read_values(rid) == (7, 8, 9)
        assert entry.address == entry.page.slot_address(rid.slot)

    def test_update_and_delete(self):
        heap = self.make_heap()
        rid = heap.insert((1, 2, 3))
        heap.update(rid, (1, 20, 30))
        assert heap.read_values(rid) == (1, 20, 30)
        heap.delete(rid)
        assert heap.record_count == 0
        with pytest.raises(HeapFileError):
            heap.fetch(rid)

    def test_fetch_foreign_page_rejected(self):
        heap = self.make_heap()
        heap.insert((1, 2, 3))
        with pytest.raises(HeapFileError):
            heap.fetch(RecordId(999, 0))

    def test_data_bytes_and_records_per_page(self):
        heap = self.make_heap()
        heap.pack(*heap.layout.schema.transpose((i, 0, 0) for i in range(10)))
        assert heap.data_bytes() == 10 * 100
        assert heap.records_per_page >= 70   # 8 KB page, 100-byte records + slots

    def test_scan_pages_yields_live_slots(self):
        heap = self.make_heap()
        rids = [heap.insert((i, 0, 0)) for i in range(5)]
        heap.delete(rids[2])
        pages = list(heap.scan_pages())
        assert sum(len(slots) for _, slots in pages) == 4


class TestCatalogAndTable:
    def test_create_table_and_insert(self, catalog):
        schema, _ = microbenchmark_schema(100)
        table = catalog.create_table("R", schema, record_size=100)
        table.insert_many(*table.schema.transpose((i, i, i) for i in range(50)))
        assert table.row_count == 50
        assert catalog.table("R") is table
        assert catalog.total_data_bytes() == 50 * 100

    def test_duplicate_table_rejected(self, catalog):
        schema, _ = microbenchmark_schema(100)
        catalog.create_table("R", schema)
        with pytest.raises(CatalogError):
            catalog.create_table("R", schema)

    def test_unknown_table_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.table("missing")

    def test_create_index_populates_from_existing_rows(self, catalog):
        schema, _ = microbenchmark_schema(100)
        table = catalog.create_table("R", schema, record_size=100)
        table.insert_many(*table.schema.transpose((i, i % 7, i) for i in range(200)))
        index = catalog.create_index("R", "a2")
        assert len(index) == 200
        rids = index.search(3)
        assert len(rids) == sum(1 for i in range(200) if i % 7 == 3)

    def test_insert_after_index_creation_maintains_index(self, catalog):
        schema, _ = microbenchmark_schema(100)
        table = catalog.create_table("R", schema, record_size=100)
        table.insert_many(*table.schema.transpose((i, i, i) for i in range(10)))
        index = catalog.create_index("R", "a2")
        table.insert((100, 5, 0))
        assert len(index.search(5)) == 2

    def test_update_moves_index_entry(self, catalog):
        schema, _ = microbenchmark_schema(100)
        table = catalog.create_table("R", schema, record_size=100)
        rid = table.insert((1, 10, 0))
        catalog.create_index("R", "a2")
        table.update(rid, (1, 20, 0))
        index = table.index_on("a2")
        assert index.search(10) == []
        assert index.search(20) == [rid]

    def test_delete_removes_index_entry(self, catalog):
        schema, _ = microbenchmark_schema(100)
        table = catalog.create_table("R", schema, record_size=100)
        rid = table.insert((1, 10, 0))
        catalog.create_index("R", "a2")
        table.delete(rid)
        assert table.index_on("a2").search(10) == []
        assert table.row_count == 0

    def test_duplicate_index_rejected(self, catalog):
        schema, _ = microbenchmark_schema(100)
        catalog.create_table("R", schema)
        catalog.create_index("R", "a2")
        with pytest.raises(CatalogError):
            catalog.create_index("R", "a2")

    def test_drop_index_and_table(self, catalog):
        schema, _ = microbenchmark_schema(100)
        catalog.create_table("R", schema)
        catalog.create_index("R", "a2")
        catalog.drop_index("R", "a2")
        assert catalog.table("R").index_on("a2") is None
        catalog.drop_table("R")
        assert not catalog.has_table("R")

    def test_heap_and_index_pages_live_in_distinct_regions(self, catalog):
        schema, _ = microbenchmark_schema(100)
        table = catalog.create_table("R", schema, record_size=100)
        table.insert_many(*table.schema.transpose((i, i, i) for i in range(100)))
        index = catalog.create_index("R", "a2")
        space = catalog.address_space
        heap_entry = next(table.heap.scan())
        assert space.region_of(heap_entry.address) == "heap"
        match = next(iter(index.range_search(None, None)))
        assert space.region_of(match.entry_address) == "index"
