"""Tests for schemas, record layouts, slotted pages and the address space."""

import pytest

from repro.storage.address_space import AddressSpace, AddressSpaceError
from repro.storage.page import (PAGE_HEADER_BYTES, PageError, PaxPage,
                                RecordId, SlottedPage, records_per_page)
from repro.storage.schema import (Column, ColumnType, RecordLayout, Schema, SchemaError,
                                  microbenchmark_schema)


class TestAddressSpace:
    def test_regions_do_not_overlap(self):
        space = AddressSpace()
        regions = space.regions()
        spans = sorted((r.base, r.end) for r in regions.values())
        for (b1, e1), (b2, _) in zip(spans, spans[1:]):
            assert e1 <= b2

    def test_allocation_is_aligned_and_monotonic(self):
        space = AddressSpace()
        a = space.allocate("heap", 100, alignment=64)
        b = space.allocate("heap", 100, alignment=64)
        assert a % 64 == 0 and b % 64 == 0
        assert b >= a + 100

    def test_region_of(self):
        space = AddressSpace()
        addr = space.allocate("index", 10)
        assert space.region_of(addr) == "index"
        assert space.region_of(0) is None

    def test_unknown_region_raises(self):
        with pytest.raises(AddressSpaceError):
            AddressSpace().allocate("not-a-region", 10)

    def test_exhaustion_raises(self):
        space = AddressSpace(region_size=1024)
        space.allocate("heap", 1024)
        with pytest.raises(AddressSpaceError):
            space.allocate("heap", 1)

    def test_bad_alignment_raises(self):
        with pytest.raises(AddressSpaceError):
            AddressSpace().allocate("heap", 10, alignment=3)


class TestSchema:
    def test_microbenchmark_schema_layout(self):
        schema, layout = microbenchmark_schema(100)
        assert schema.column_names() == ("a1", "a2", "a3")
        assert layout.record_size == 100
        assert layout.offsets == (0, 4, 8)
        assert layout.packed_size == 12
        assert layout.padding_bytes == 88

    def test_record_size_smaller_than_fields_rejected(self):
        schema, _ = microbenchmark_schema(100)
        with pytest.raises(SchemaError):
            RecordLayout.build(schema, record_size=8)
        with pytest.raises(SchemaError):
            microbenchmark_schema(8)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of(Column("a"), Column("a"))

    def test_char_column_requires_width(self):
        with pytest.raises(SchemaError):
            Column("name", ColumnType.CHAR)

    def test_encode_decode_roundtrip(self):
        schema = Schema.of(Column("k", ColumnType.INT32), Column("v", ColumnType.INT64),
                           Column("x", ColumnType.FLOAT64), Column("s", ColumnType.CHAR, width=8))
        layout = RecordLayout.build(schema, record_size=64)
        values = (7, 1 << 40, 2.5, "hello")
        data = layout.encode(values)
        assert len(data) == 64
        assert layout.decode(data) == values

    def test_decode_single_column(self):
        _, layout = microbenchmark_schema(100)
        data = layout.encode((1, 2, 3))
        assert layout.decode_column(data, "a2") == 2
        assert layout.decode_column(data, "a3") == 3

    def test_field_slice(self):
        _, layout = microbenchmark_schema(100)
        assert layout.field_slice("a2") == (4, 4)

    def test_encode_wrong_arity_rejected(self):
        _, layout = microbenchmark_schema(100)
        with pytest.raises(SchemaError):
            layout.encode((1, 2))

    def test_index_of_unknown_column(self):
        schema, _ = microbenchmark_schema(100)
        with pytest.raises(SchemaError):
            schema.index_of("nope")


class TestSlottedPage:
    def make_page(self, page_size=8192) -> SlottedPage:
        return SlottedPage(page_number=3, base_address=0x2000_0000, page_size=page_size)

    def test_insert_and_read_back(self):
        page = self.make_page()
        slot = page.insert(b"x" * 100)
        assert page.record_bytes(slot) == b"x" * 100
        assert page.live_records == 1

    def test_slot_and_field_addresses(self):
        page = self.make_page()
        s0 = page.insert(b"a" * 100)
        s1 = page.insert(b"b" * 100)
        assert page.slot_address(s0) == 0x2000_0000 + PAGE_HEADER_BYTES
        assert page.slot_address(s1) == page.slot_address(s0) + 100
        assert page.field_address(s1, 8) == page.slot_address(s1) + 8

    def test_capacity_enforced(self):
        page = self.make_page(page_size=512)
        inserted = 0
        with pytest.raises(PageError):
            while True:
                page.insert(b"r" * 100)
                inserted += 1
        assert 1 <= inserted <= 4
        assert page.live_records == inserted

    def test_delete_tombstones_and_preserves_other_slots(self):
        page = self.make_page()
        s0 = page.insert(b"a" * 10)
        s1 = page.insert(b"b" * 10)
        page.delete(s0)
        assert not page.is_live(s0)
        assert page.record_bytes(s1) == b"b" * 10
        assert list(page.live_slots()) == [s1]
        with pytest.raises(PageError):
            page.record_bytes(s0)

    def test_update_in_place_requires_same_size(self):
        page = self.make_page()
        slot = page.insert(b"a" * 10)
        page.update_in_place(slot, b"c" * 10)
        assert page.record_bytes(slot) == b"c" * 10
        with pytest.raises(PageError):
            page.update_in_place(slot, b"too long" * 10)

    def test_invalid_slot_rejected(self):
        page = self.make_page()
        with pytest.raises(PageError):
            page.record_bytes(0)

    def test_dirty_flag(self):
        page = self.make_page()
        assert page.dirty is False
        page.insert(b"a")
        assert page.dirty is True

    def test_free_space_decreases_monotonically(self):
        page = self.make_page()
        previous = page.free_space()
        for _ in range(5):
            page.insert(b"z" * 50)
            assert page.free_space() < previous
            previous = page.free_space()


class TestAppendOverflow:
    """``append`` lays a whole run of records down or none: a run longer
    than the page's room raises before a byte is written."""

    @staticmethod
    def image(page) -> tuple:
        return (bytes(page._buffer), page.slot_count, page.free_space(),
                page.dirty)

    @pytest.mark.parametrize("layout_style", ["nsm", "pax"])
    def test_a_run_past_the_room_raises_and_leaves_the_page(self, layout_style):
        _, layout = microbenchmark_schema(100, "R")
        if layout_style == "nsm":
            page = SlottedPage(0, 0x2000_0000, 1024)

            def append(count):
                return page.append(bytes([count]) * (count * 100), count, 100)
        else:
            page = PaxPage(0, 0x2000_0000, layout, 1024)

            def append(count):
                return page.append([bytes([count]) * (count * width)
                                    for _, _, width in page._geometry], count)
        append(2)
        page.dirty = False
        room = page.room_for(100)
        assert room > 0
        before = self.image(page)
        with pytest.raises(PageError, match="do not fit"):
            append(room + 1)
        assert self.image(page) == before
        assert append(room) == 2       # the room itself still fits
        assert page.room_for(100) == 0


class TestRecordsPerPage:
    """``records_per_page`` is the one statement of how many equal-size
    records a slotted page takes and where record ``i`` starts: the heap
    file's cost estimate and the spilling join's column-run blocks (which
    charge a row at the slot address such a record would have, without
    building the record) both rely on it matching a real page."""

    @pytest.mark.parametrize("page_size", [256, 512, 8192])
    def test_formula_matches_what_a_real_page_accepts(self, page_size):
        base = 0x4000_0000
        for record_bytes in range(1, page_size):
            page = SlottedPage(0, base, page_size)
            record = bytes(record_bytes)
            accepted = 0
            while page.has_room_for(record_bytes):
                slot = page.insert(record)
                assert (page.slot_address(slot)
                        == base + PAGE_HEADER_BYTES + slot * record_bytes)
                accepted += 1
            assert accepted == records_per_page(page_size, record_bytes), record_bytes
            if not accepted:      # every larger record is refused too
                assert records_per_page(page_size, page_size) == 0
                break

    def test_the_microbenchmark_record(self):
        assert records_per_page(8192, 100) == 78
