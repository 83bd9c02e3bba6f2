"""Unit tests for the PAX (minipage) page layout and its storage plumbing."""

import pytest

from repro.engine import Database, Session
from repro.query import SelectionQuery, avg, count_star, range_predicate
from repro.storage import (Catalog, PAGE_HEADER_BYTES, PageError, PaxPage,
                           RecordId, microbenchmark_schema)
from repro.storage.heapfile import PAGE_STYLE_PAX
from repro.storage.schema import ColumnType, RecordLayout
from repro.systems import SYSTEM_B


def make_layout(record_size=100) -> RecordLayout:
    _, layout = microbenchmark_schema(record_size)
    return layout


def make_page(record_size=100, page_size=4096) -> PaxPage:
    return PaxPage(0, 0x4000_0000, make_layout(record_size), page_size=page_size)


class TestPaxPage:
    def test_capacity_matches_record_size(self):
        page = make_page(record_size=100, page_size=4096)
        assert page.capacity == (4096 - PAGE_HEADER_BYTES) // 100

    def test_insert_roundtrips_record_bytes(self):
        layout = make_layout()
        page = make_page()
        record = layout.encode((7, 42, 99))
        slot = page.insert(record)
        assert page.record_bytes(slot) == record
        assert layout.decode(bytes(page.record_view(slot))) == (7, 42, 99)

    def test_column_values_decode_from_minipages(self):
        layout = make_layout()
        page = make_page()
        for i in range(10):
            page.insert(layout.encode((i, i * 2, i * 3)))
        slots = list(page.live_slots())
        assert page.column_values("a2", slots) == [i * 2 for i in range(10)]
        assert page.column_values("a3", [3, 7]) == [9, 21]

    def test_minipage_values_are_contiguous(self):
        layout = make_layout()
        page = make_page()
        for i in range(5):
            page.insert(layout.encode((i, i, i)))
        base = page.column_address("a2")
        for slot in range(5):
            assert page.field_address(slot, layout.offset_of("a2")) == base + slot * 4
        address, span = page.column_span("a2", [1, 2, 3])
        assert address == base + 4
        assert span == 12

    def test_field_address_covers_padding_region(self):
        layout = make_layout(record_size=100)
        page = make_page()
        page.insert(layout.encode((1, 2, 3)))
        # Byte 50 lies in the anonymous filler; it must map into the padding
        # minipage, distinct for distinct slots.
        page.insert(layout.encode((4, 5, 6)))
        assert page.field_address(0, 50) != page.field_address(1, 50)
        with pytest.raises(PageError):
            page.field_address(0, 100)

    def test_delete_tombstones_and_update_in_place(self):
        layout = make_layout()
        page = make_page()
        for i in range(4):
            page.insert(layout.encode((i, i, i)))
        page.delete(2)
        assert list(page.live_slots()) == [0, 1, 3]
        assert not page.is_live(2)
        with pytest.raises(PageError):
            page.record_bytes(2)
        page.update_in_place(3, layout.encode((9, 9, 9)))
        assert layout.decode(page.record_bytes(3)) == (9, 9, 9)

    def test_page_full_raises(self):
        layout = make_layout(record_size=100)
        page = make_page(page_size=256)  # capacity 2
        page.insert(layout.encode((1, 1, 1)))
        page.insert(layout.encode((2, 2, 2)))
        assert not page.has_room_for(100)
        with pytest.raises(PageError):
            page.insert(layout.encode((3, 3, 3)))

    def test_wrong_record_size_rejected(self):
        page = make_page()
        with pytest.raises(PageError):
            page.insert(b"\x00" * 12)


class TestPaxHeapFile:
    def make_table(self, rows=300):
        catalog = Catalog()
        schema, _ = microbenchmark_schema(100, "R")
        table = catalog.create_table("R", schema, record_size=100,
                                     layout_style=PAGE_STYLE_PAX)
        table.insert_many(*table.schema.transpose((i, i % 40, i * 2) for i in range(rows)))
        return catalog, table

    def test_heap_scan_preserves_insert_order(self):
        _, table = self.make_table()
        values = [table.heap.read_values(e.rid) for e in table.heap.scan()]
        assert values == [(i, i % 40, i * 2) for i in range(300)]

    def test_pages_are_pax_pages(self):
        _, table = self.make_table()
        for page, _slots in table.heap.scan_pages():
            assert isinstance(page, PaxPage)
            assert page.columnar

    def test_fetch_update_delete_through_rids(self):
        _, table = self.make_table(rows=50)
        rid = RecordId(0, 10)
        assert table.heap.read_values(rid) == (10, 10, 20)
        table.update(rid, (10, 10, 777))
        assert table.heap.read_values(rid) == (10, 10, 777)
        table.delete(rid)
        assert table.row_count == 49

    def test_index_over_pax_table(self):
        catalog, table = self.make_table()
        catalog.create_index("R", "a2")
        index = table.index_on("a2")
        matches = list(index.range_search(5, 5, include_low=True, include_high=True))
        assert {table.heap.read_values(m.rid)[0] for m in matches} \
            == {i for i in range(300) if i % 40 == 5}

    def test_unknown_layout_style_rejected(self):
        catalog = Catalog()
        schema, _ = microbenchmark_schema(100, "R")
        from repro.storage import HeapFileError
        with pytest.raises(HeapFileError):
            catalog.create_table("R", schema, record_size=100, layout_style="dsm")


class TestPaxCacheBehaviour:
    def test_pax_scan_misses_fewer_l2_lines_than_nsm(self):
        """A vectorized field scan over PAX touches only the needed
        minipages; over NSM it strides whole records -- the L2 data-miss
        gap is the PAX papers' headline effect."""
        import random

        def build(style):
            db = Database()
            columns = [("a1", ColumnType.INT32), ("a2", ColumnType.INT32),
                       ("a3", ColumnType.INT32)]
            db.create_table("R", columns, record_size=100, layout_style=style)
            rng = random.Random(7)
            db.load("R", [(i, rng.randint(1, 50), rng.randint(0, 999))
                          for i in range(3000)])
            return db

        query = SelectionQuery(table="R", aggregates=(avg("a3"), count_star()),
                               predicate=range_predicate("a2", 5, 20))
        misses = {}
        for style in ("nsm", "pax"):
            session = Session(build(style), SYSTEM_B, os_interference=None,
                              engine="vectorized")
            result = session.execute(query, warmup_runs=0)
            misses[style] = result.counters.get("L2_DATA_MISS")
        assert misses["pax"] < 0.6 * misses["nsm"]
