"""A point update writes one field: ``Table.update_field`` against the
read-modify-write path it replaced (``oracle.read_modify_write_update``).

The single-field write must be invisible everywhere except on the host
clock: raw page bytes, decoded rows, index contents, the errors raised and
every simulated count of a TPC-C mix are those of decoding the whole record,
changing one value and rewriting all of it.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracle import read_modify_write_update, read_modify_write_updates
from repro.engine.session import Session
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.query.plans import UpdateQuery
from repro.storage import Catalog
from repro.storage.heapfile import HeapFileError
from repro.storage.page import PageError, PaxPage, RecordId, SlottedPage
from repro.storage.schema import Column, ColumnType, RecordLayout, Schema, SchemaError
from repro.systems.vendors import oltp_variant, system_by_key
from repro.workloads.tpcc import TPCCConfig

LAYOUTS = ("nsm", "pax")

#: Every column type, CHAR twice (one narrower than most values drawn).
SCHEMA = Schema.of(Column("k", ColumnType.INT32),
                   Column("big", ColumnType.INT64),
                   Column("tag", ColumnType.CHAR, width=6),
                   Column("ratio", ColumnType.FLOAT64),
                   Column("note", ColumnType.CHAR, width=12),
                   Column("n", ColumnType.INT32),
                   name="T")
PACKED = RecordLayout.build(SCHEMA).record_size
#: No filler, a few filler bytes, a filler wider than any column.
RECORD_SIZES = (PACKED, PACKED + 4, 100)
INDEXED = ("k", "big")

#: CHAR values as ``str`` or ``bytes``, interior and trailing NULs included.
#: Only text that survives decode -> encode: the read-modify-write path
#: rewrites every CHAR column from its *decoded* value, so bytes that are not
#: UTF-8 come back as U+FFFD (``test_undecodable_neighbours_are_left_alone``).
_TEXT = st.text(alphabet="abcxyz\x00", max_size=16).flatmap(
    lambda text: st.sampled_from((text, text.encode())))
VALUES = {
    "k": st.integers(0, 30),
    "big": st.integers(-2 ** 62, 2 ** 62),
    "tag": _TEXT,
    "ratio": st.floats(allow_nan=False, allow_infinity=False, width=64),
    "note": _TEXT,
    "n": st.integers(-2 ** 31, 2 ** 31 - 1),
}
ROWS = 150   # a few pages at every record size


def build_table(layout_style: str, record_size: int):
    catalog = Catalog(page_size=2048)
    table = catalog.create_table("T", SCHEMA, record_size=record_size,
                                 layout_style=layout_style)
    rids = [table.insert((i % 31, i * 1_000_003, f"t{i}", i / 7.0, f"note-{i}", -i))
            for i in range(ROWS)]
    for column in INDEXED:
        catalog.create_index("T", column)
    return table, rids


def index_entries(table):
    return {column: [(match.key, match.rid)
                     for match in index.range_search(None, None)]
            for column, index in table.indexes.items()}


def state(table, rids):
    """Everything an update may leave behind."""
    for index in table.indexes.values():
        index.check_invariants()
    return (table.heap.data_checkpoint(),
            [table.heap.read_values(rid) for rid in rids],
            index_entries(table))


UPDATE = st.sampled_from(sorted(VALUES)).flatmap(
    lambda column: st.tuples(st.integers(0, ROWS - 1), st.just(column),
                             VALUES[column]))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(layout_style=st.sampled_from(LAYOUTS),
       record_size=st.sampled_from(RECORD_SIZES),
       updates=st.lists(UPDATE, min_size=1, max_size=30))
def test_update_field_leaves_what_read_modify_write_leaves(layout_style,
                                                           record_size, updates):
    table, rids = build_table(layout_style, record_size)
    reference, reference_rids = build_table(layout_style, record_size)
    assert rids == reference_rids
    for row, column, value in updates:
        table.update_field(rids[row], column, value)
        read_modify_write_update(reference, rids[row], column, value)
        assert state(table, rids) == state(reference, rids), (row, column, value)


@pytest.mark.parametrize("layout_style", LAYOUTS)
def test_undecodable_neighbours_are_left_alone(layout_style):
    """The one designed difference: a CHAR column holding bytes that are not
    UTF-8 was rewritten as U+FFFD by *any* update of its record (decode with
    ``errors="replace"``, then re-encode); a field write never touches it."""
    table, rids = build_table(layout_style, 100)
    reference, _ = build_table(layout_style, 100)
    for target in (table, reference):
        target.update_field(rids[0], "note", b"\x80raw")
    assert state(table, rids) == state(reference, rids)
    offset, width = table.layout.field_slice("note")
    stored = table.heap.fetch(rids[0]).page.record_bytes(0)[offset:offset + width]
    assert stored == b"\x80raw".ljust(width, b"\0")

    table.update_field(rids[0], "n", 1)
    read_modify_write_update(reference, rids[0], "n", 1)
    image = table.heap.fetch(rids[0]).page.record_bytes(0)
    assert image[offset:offset + width] == stored
    corrupted = reference.heap.fetch(rids[0]).page.record_bytes(0)
    assert corrupted[offset:offset + width] == "\ufffdraw".encode().ljust(width, b"\0")
    assert image[:offset] + image[offset + width:] == \
        corrupted[:offset] + corrupted[offset + width:]


@pytest.mark.parametrize("layout_style", LAYOUTS)
class TestIndexUpkeep:
    def test_update_of_an_indexed_key_moves_its_entry(self, layout_style):
        table, rids = build_table(layout_style, 100)
        victim = rids[40]
        old = table.heap.read_field(victim, "k")
        table.update_field(victim, "k", 77)
        assert victim not in table.index_on("k").search(old)
        assert table.index_on("k").search(77) == [victim]
        assert len(table.index_on("k")) == ROWS
        assert table.heap.read_values(victim)[0] == 77
        table.index_on("k").check_invariants()

    def test_unchanged_indexed_key_leaves_the_index_alone(self, layout_style):
        table, rids = build_table(layout_style, 100)
        index = table.index_on("k")
        index.delete = index.insert = None   # any upkeep call would raise
        table.update_field(rids[40], "k", table.heap.read_field(rids[40], "k"))

    def test_update_of_a_plain_column_touches_no_index(self, layout_style):
        table, rids = build_table(layout_style, 100)
        before = index_entries(table)
        table.heap.read_field = None   # no old value is decoded either
        for index in table.indexes.values():
            index.delete = index.insert = None
        table.update_field(rids[40], "n", 5)
        table.update_field(rids[41], "tag", "abcdefghij")
        del table.heap.read_field
        assert index_entries(table) == before
        assert table.heap.read_values(rids[40])[5] == 5
        assert table.heap.read_values(rids[41])[2] == "abcdef"   # truncated

    def test_whole_row_update_decodes_only_the_indexed_columns(self, layout_style):
        table, rids = build_table(layout_style, 100)
        table.heap.read_values = None   # the old record is never materialised
        table.update(rids[3], (99, 5, "x", 0.5, "y", 1))
        del table.heap.read_values
        assert table.heap.read_values(rids[3]) == (99, 5, "x", 0.5, "y", 1)
        assert table.index_on("k").search(99) == [rids[3]]
        assert table.index_on("big").search(5) == [rids[3]]
        assert len(table.index_on("k")) == len(table.index_on("big")) == ROWS


@pytest.mark.parametrize("layout_style", LAYOUTS)
@pytest.mark.parametrize("update", (lambda table, *args: table.update_field(*args),
                                    read_modify_write_update),
                         ids=("update_field", "read_modify_write"))
class TestErrors:
    """Both paths refuse the same things with the same exceptions."""

    def test_unknown_column(self, layout_style, update):
        table, rids = build_table(layout_style, 100)
        before = state(table, rids)
        with pytest.raises(SchemaError, match="no column named 'ghost'"):
            update(table, rids[0], "ghost", 1)
        assert state(table, rids) == before

    def test_deleted_slot(self, layout_style, update):
        table, rids = build_table(layout_style, 100)
        table.delete(rids[9])
        for column in ("k", "n"):   # indexed and not
            with pytest.raises(HeapFileError, match="is deleted"):
                update(table, rids[9], column, 1)

    def test_foreign_page(self, layout_style, update):
        table, rids = build_table(layout_style, 100)
        with pytest.raises(HeapFileError, match="does not belong"):
            update(table, RecordId(10_000, 0), "n", 1)


class TestPageWriteField:
    def pages(self, record_size=100):
        layout = RecordLayout.build(SCHEMA, record_size=record_size)
        record = layout.encode((1, 2, "tag", 0.5, "note", 3))
        nsm = SlottedPage(0, 0x1000, 2048)
        pax = PaxPage(1, 0x2000, layout, 2048)
        for page in (nsm, pax):
            page.insert(record)
            page.insert(record)
            page.dirty = False
        return layout, nsm, pax

    def test_write_lands_in_the_record_image_and_marks_the_page(self):
        layout, nsm, pax = self.pages()
        offset, width = layout.field_slice("note")
        for page in (nsm, pax):
            page.write_field(1, offset, layout.encode_column("note", "rewritten"))
            assert page.dirty
            assert layout.decode(page.record_bytes(1))[4] == "rewritten"
            assert page.record_bytes(0) == layout.encode((1, 2, "tag", 0.5, "note", 3))

    def test_filler_is_a_field_too(self):
        layout, nsm, pax = self.pages()
        for page in (nsm, pax):
            page.write_field(0, layout.packed_size, b"\xff" * layout.padding_bytes)
            assert page.record_bytes(0)[layout.packed_size:] == \
                b"\xff" * layout.padding_bytes

    def test_out_of_record_writes_are_refused(self):
        layout, nsm, pax = self.pages()
        for page in (nsm, pax):
            with pytest.raises(PageError):
                page.write_field(0, layout.record_size - 2, b"\0\0\0\0")
            with pytest.raises(PageError):
                page.write_field(0, -4, b"\0\0\0\0")
            with pytest.raises(PageError, match="invalid slot"):
                page.write_field(7, 0, b"\0\0\0\0")
            page.delete(1)
            with pytest.raises(PageError, match="is deleted"):
                page.write_field(1, 0, b"\0\0\0\0")
            assert page.record_bytes(0) == layout.encode((1, 2, "tag", 0.5, "note", 3))

    def test_pax_write_may_not_cross_a_minipage(self):
        layout, _, pax = self.pages()
        with pytest.raises(PageError, match="minipage"):
            pax.write_field(0, layout.offset_of("k"), b"\0" * 8)


def test_encode_column_is_the_columns_slice_of_encode():
    layout = RecordLayout.build(SCHEMA, record_size=100)
    values = (7, -2 ** 40, "toolongtag", 2.5, b"by\x00tes", -1)
    record = layout.encode(values)
    for column, value in zip(SCHEMA.column_names(), values):
        offset, width = layout.field_slice(column)
        assert layout.encode_column(column, value) == record[offset:offset + width]
    with pytest.raises(SchemaError):
        layout.encode_column("ghost", 1)


# ---------------------------------------------------------- the TPC-C mix
TXNS = 120


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    return ExperimentRunner(ExperimentConfig(
        tpcc=TPCCConfig(scale=0.003), tpcc_transactions=TXNS,
        os_interference=False))


def _tpcc_mix(runner, layout, engine):
    """Counters, routine invocations, page bytes and index contents of the
    mix, driven the way the TPC-C workload drives it."""
    database, workload, checkpoint, data = runner.tpcc_grid_database(layout)
    database.address_space.restore(checkpoint)
    database.data_restore(data)
    with Session(database, oltp_variant(system_by_key("B")),
                 spec=runner.config.spec, os_interference=None,
                 engine=engine) as session:
        for txn in workload.transactions(TXNS, seed=77):
            session.execute_transaction(txn.statements)
        counters, _, _ = session.measure()
        invocations = dict(session.context.op_invocations)
    pages = database.data_checkpoint()
    assert pages != data, "the mix must apply updates"
    tables = [database.table(name) for name in ("customer", "stock")]
    return (counters.as_dict(), invocations, pages,
            [index_entries(table) for table in tables])


@pytest.mark.parametrize("engine", ("tuple", "vectorized"))
@pytest.mark.parametrize("layout", LAYOUTS)
def test_tpcc_mix_counts_are_those_of_read_modify_write(runner, layout, engine):
    changed = _tpcc_mix(runner, layout, engine)
    with read_modify_write_updates():
        reference = _tpcc_mix(runner, layout, engine)
    assert changed[1]["update_record"] >= TXNS // 2
    for got, expected, what in zip(changed, reference,
                                   ("counters", "routine invocations",
                                    "page bytes", "index contents")):
        assert got == expected, what


@pytest.mark.parametrize("engine", ("tuple", "vectorized"))
def test_execute_update_errors_are_unchanged(runner, engine):
    database, _, checkpoint, data = runner.tpcc_grid_database("nsm")
    database.address_space.restore(checkpoint)
    database.data_restore(data)
    with Session(database, oltp_variant(system_by_key("B")),
                 spec=runner.config.spec, os_interference=None,
                 engine=engine) as session:
        for key in (5, 10 ** 9):   # raised whether or not a row matches
            with pytest.raises(SchemaError, match="no column named 'ghost'"):
                session.execute(UpdateQuery(table="stock", key_column="s_i_id",
                                            key_value=key, set_column="ghost",
                                            set_value=1), warmup_runs=0)
    assert database.data_checkpoint() == data
