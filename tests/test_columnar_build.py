"""Builds: columns in, the one-row insert's page images out.

Every relation is loaded a page at a time from columns
(``HeapFile.pack``) and indexed from a page-at-a-time key read
(``Catalog.create_index``).  The build oracle in ``oracle.py`` is the
record-at-a-time path those replaced.  The contract is identity: each
page's bytes, dirty flag, number, address and slot directory; each heap's
page list, record count and pinned fill page; both pools' frame order,
pins and statistics; the address-space cursors; and every B-tree node's
address, keys and rids.

Checked here for every table of the micro, TPC-D and TPC-C builds, in NSM
and PAX, at the ``ci`` preset and at the benchmark's sizes (``full`` is a
``slow`` test), then for the encoder against ``RecordLayout.encode`` and
for random interleavings of one-row inserts, loads, deletes and field
updates against the oracle.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle import heap_insert_rows, per_row_builds
from repro.engine import Database
from repro.index.btree import BTreeError
from repro.storage.buffer_pool import BufferPool
from repro.storage.heapfile import HeapFile
from repro.storage.address_space import AddressSpace
from repro.storage.page import RecordId
from repro.storage.schema import (Column, ColumnType, RecordLayout, Schema,
                                  SchemaError)
from repro.workloads.micro import MicroWorkload, MicroWorkloadConfig
from repro.workloads.tpcc import TPCCConfig, TPCCWorkload
from repro.workloads.tpcd import TPCDConfig, TPCDWorkload


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------
def page_snapshot(page) -> tuple:
    if page.columnar:
        directory = (tuple(page._live),)
    else:
        directory = (tuple(page._offsets), tuple(page._lengths),
                     page._free_offset)
    return (type(page).__name__, page.page_number, page.base_address,
            bytes(page._buffer), page.dirty, directory)


def pool_snapshot(pool: BufferPool) -> tuple:
    return (tuple(pool._frames), dict(pool._pins), pool.stats.as_dict(),
            tuple(pool._store))


def heap_snapshot(heap: HeapFile) -> tuple:
    current = heap._current_page
    return (tuple(page_snapshot(heap.buffer_pool.peek_page(number))
                  for number in heap.page_numbers()),
            heap.record_count,
            None if current is None else
            (current.page_number, heap.buffer_pool.pin_count(current.page_number)))


def index_snapshot(index) -> tuple:
    nodes = []
    level = [index._root]
    while level:
        following = []
        for node in level:
            if node.is_leaf:
                nodes.append((node.address, tuple(node.keys), tuple(node.rids),
                              None if node.next_leaf is None
                              else node.next_leaf.address))
            else:
                nodes.append((node.address, tuple(node.keys),
                              tuple(child.address for child in node.children)))
                following.extend(node.children)
        level = following
    return tuple(nodes), index.height, index.node_count, index.entry_count


def database_snapshot(db: Database) -> dict:
    catalog = db.catalog
    snapshot = {"cursors": catalog.address_space.checkpoint(),
                "heap_pool": pool_snapshot(catalog.heap_pool),
                "index_pool": pool_snapshot(catalog.index_pool)}
    for table in catalog.tables():
        snapshot[table.name] = (
            heap_snapshot(table.heap),
            {name: index_snapshot(index)
             for name, index in table.indexes.items()})
    return snapshot


def assert_identical(db: Database, oracle: Database) -> None:
    built, expected = database_snapshot(db), database_snapshot(oracle)
    assert built.keys() == expected.keys()
    for key in expected:
        assert built[key] == expected[key], key


# ---------------------------------------------------------------------------
# Workload builds against the oracle
# ---------------------------------------------------------------------------
def micro(scale: float):
    workload = MicroWorkload(MicroWorkloadConfig(scale=scale))

    def build(layout: str) -> Database:
        db = workload.build(layout_style=layout)
        workload.create_selection_index(db)
        return db
    return build


def tpcd(config: TPCDConfig):
    return lambda layout: TPCDWorkload(config).build(layout_style=layout)


def tpcc(config: TPCCConfig):
    return lambda layout: TPCCWorkload(config).build(layout_style=layout)


#: The ``ci`` artifact preset and the benchmark's workload sizes.
BUILDS = {
    "micro-ci": micro(1 / 2000),
    "micro-bench": micro(0.005),
    "micro-grid_vec": micro(0.02),
    "tpcd-ci": tpcd(TPCDConfig(lineitem_rows=400, orders_rows=80,
                               part_rows=40, supplier_rows=20)),
    "tpcd-bench": tpcd(TPCDConfig(lineitem_rows=5_000, orders_rows=500,
                                  part_rows=200, supplier_rows=50)),
    "tpcc-ci": tpcc(TPCCConfig(scale=0.004)),
    "tpcc-bench": tpcc(TPCCConfig()),
}

#: The ``full`` preset (the default configurations).
FULL_BUILDS = {
    "micro-full": micro(MicroWorkloadConfig().scale),
    "tpcd-full": tpcd(TPCDConfig()),
    "tpcc-full": tpcc(TPCCConfig()),
}


def check_build(build, layout: str) -> None:
    db = build(layout)
    with per_row_builds():
        oracle = build(layout)
    assert_identical(db, oracle)


@pytest.mark.parametrize("layout", ("nsm", "pax"))
@pytest.mark.parametrize("name", sorted(BUILDS))
def test_workload_build_equals_the_row_at_a_time_build(name, layout):
    check_build(BUILDS[name], layout)


@pytest.mark.slow
@pytest.mark.parametrize("layout", ("nsm", "pax"))
@pytest.mark.parametrize("name", sorted(FULL_BUILDS))
def test_full_preset_build_equals_the_row_at_a_time_build(name, layout):
    check_build(FULL_BUILDS[name], layout)


def test_generated_rows_are_views_of_the_columns():
    workload = MicroWorkload(MicroWorkloadConfig(scale=1 / 2000))
    columns = workload.r_columns()
    rows = list(workload.generate_r_rows())
    assert rows == list(zip(*(column.tolist() for column in columns.values())))
    assert all(type(value) is int for value in rows[0])
    assert [row[0] for row in rows] == list(range(1, len(rows) + 1))


def test_pack_tops_up_the_pinned_fill_page_in_a_capacity_limited_pool():
    """Pins and evictions follow the one-row path under a tight pool."""
    layout = RecordLayout.build(Schema.of(Column("a"), Column("b")),
                                record_size=40)
    rows = [(i, -i) for i in range(1_000)]
    images = []
    for loader in ("pack", "oracle"):
        pool = BufferPool(AddressSpace(), capacity_pages=2)
        heap = HeapFile("T", layout, pool)
        heap.insert((7, 7))
        if loader == "pack":
            heap.pack(*layout.schema.transpose(rows))
        else:
            heap_insert_rows(heap, rows)
        images.append((heap_snapshot(heap), pool_snapshot(pool),
                       pool.address_space.checkpoint()))
    assert images[0] == images[1]
    assert images[0][1][2]["evictions"] > 0


def test_a_load_into_two_indexes_inserts_their_entries_row_by_row():
    """Both indexes split during the load; ``Table.insert`` interleaves
    their node allocations row by row in the one ``index`` region."""
    rows = [(i, (i * 7) % 50, (i * 13) % 90) for i in range(600)]
    images = []
    for oracle in (False, True):
        db = Database()
        db.create_table("T", [(name, ColumnType.INT32) for name in "abc"])
        db.create_index("T", "b")
        db.create_index("T", "c")
        if oracle:
            with per_row_builds():
                db.load("T", rows)
        else:
            db.load("T", rows)
        images.append(database_snapshot(db))
    assert images[0] == images[1]


# ---------------------------------------------------------------------------
# The encoder against RecordLayout.encode
# ---------------------------------------------------------------------------
CONTRACT_SCHEMA = Schema.of(Column("i", ColumnType.INT32),
                            Column("q", ColumnType.INT64),
                            Column("d", ColumnType.FLOAT64),
                            Column("s", ColumnType.CHAR, width=5))
CONTRACT_LAYOUT = RecordLayout.build(CONTRACT_SCHEMA, record_size=40)

_INT_EDGES = (-2**63 - 1, -2**63, -2**31 - 1, -2**31, -1, 0, 1, 2**31 - 1,
              2**31, 2**63 - 1, 2**63)
_values = st.one_of(
    st.sampled_from(_INT_EDGES), st.integers(), st.booleans(),
    st.floats(allow_nan=False), st.floats(), st.none(),
    st.text(max_size=8), st.binary(max_size=8),
    st.just("héllo wörld"), st.just("\ud800"), st.just(10**400),
    st.integers(min_value=-1, max_value=9))


def outcome(call):
    try:
        return "ok", call()
    except Exception as error:  # the exception *type* is the contract
        return "raised", type(error)


def column_bytes(layout: RecordLayout, values) -> bytes:
    """One row through the transpose and the column encoder, as its
    record bytes."""
    columns, count = layout.schema.transpose([values])
    encoded = layout.encode_columns(columns, count)
    image = bytearray(layout.record_size)
    for (offset, width), column in zip(layout.slices, encoded):
        image[offset:offset + width] = column.tobytes()
    return bytes(image)


@settings(max_examples=400, deadline=None)
@given(st.lists(_values, min_size=3, max_size=5))
def test_column_encoder_matches_encode(values):
    expected = outcome(lambda: CONTRACT_LAYOUT.encode(values))
    assert outcome(lambda: column_bytes(CONTRACT_LAYOUT, values)) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_INT_EDGES), st.integers(),
                          st.booleans()), min_size=3, max_size=3),
       st.text(max_size=8))
def test_numpy_columns_encode_as_their_values_do(numbers, text):
    """A numpy column takes the range-checked ``astype`` path; it must
    accept and reject exactly what ``struct`` does with its values."""
    arrays = []
    for number, dtype in zip(numbers, (np.int64, np.uint64, np.float64)):
        try:
            arrays.append(np.asarray([number], dtype=dtype))
        except (OverflowError, ValueError):
            arrays.append(np.asarray([number], dtype=object))
    columns = dict(zip(("i", "q", "d"), arrays), s=[text])
    scalars = [array[0] for array in arrays] + [text]
    encoded = outcome(lambda: [column.tobytes() for column
                               in CONTRACT_LAYOUT.encode_columns(columns, 1)])
    expected = outcome(lambda: CONTRACT_LAYOUT.encode(scalars))
    if expected[0] == "ok":
        expected = ("ok", [expected[1][offset:offset + width] for offset, width
                           in CONTRACT_LAYOUT.slices[:len(CONTRACT_SCHEMA)]])
    assert encoded == expected


def test_float_array_for_an_integer_column_is_rejected_as_struct_does():
    with pytest.raises(struct.error):
        CONTRACT_LAYOUT.encode([1.0, 0, 0.0, "x"])
    with pytest.raises(struct.error):
        CONTRACT_LAYOUT.encode_columns(
            {"i": np.array([1.0]), "q": [0], "d": [0.0], "s": ["x"]}, 1)


def test_wrong_arity_and_mismatched_columns_raise_schema_error():
    with pytest.raises(SchemaError):
        CONTRACT_LAYOUT.encode([1, 2, 3])
    with pytest.raises(SchemaError):
        CONTRACT_SCHEMA.transpose([(1, 2, 3.0, "x"), (1, 2, 3)])
    with pytest.raises(SchemaError):
        CONTRACT_LAYOUT.encode_columns({"i": [1], "q": [2], "d": [3.0]}, 1)
    with pytest.raises(SchemaError):
        CONTRACT_LAYOUT.encode_columns(
            {"i": [1], "q": [2], "d": [3.0], "s": ["x"], "z": [0]}, 1)
    with pytest.raises(SchemaError):
        CONTRACT_LAYOUT.encode_columns(
            {"i": [1, 2], "q": [2], "d": [3.0], "s": ["x"]}, 1)


def test_a_rejected_load_leaves_the_table_untouched():
    db = Database()
    db.create_table("T", [("a", ColumnType.INT32), ("b", ColumnType.INT32)])
    db.load("T", [(1, 2)])
    before = database_snapshot(db)
    with pytest.raises(struct.error):
        db.load("T", {"a": np.array([1, 2**31]), "b": np.array([0, 0])})
    with pytest.raises(struct.error):
        db.load("T", [(3, 4), (5, "x")])
    assert database_snapshot(db) == before
    db.create_index("T", "a", unique=True)
    before = database_snapshot(db)
    for rows in ([(2, 0), (3, 0), (2, 0)], [(3, 0), (1, 0)]):
        with pytest.raises(BTreeError):
            db.load("T", rows)
        assert database_snapshot(db) == before


# ---------------------------------------------------------------------------
# Random interleavings against the oracle
# ---------------------------------------------------------------------------
_row = st.tuples(st.integers(-50, 50), st.integers(0, 9), st.integers(-3, 3))
_operations = st.lists(st.one_of(
    st.tuples(st.just("insert"), _row),
    st.tuples(st.just("load_rows"), st.lists(_row, max_size=120)),
    st.tuples(st.just("load_columns"), st.lists(_row, max_size=300)),
    st.tuples(st.just("delete"), st.integers(0, 10**6)),
    st.tuples(st.just("update_field"), st.integers(0, 10**6),
              st.sampled_from(("a", "b", "c")), st.integers(-9, 9)),
    st.tuples(st.just("create_index"), st.sampled_from(("b", "c"))),
), max_size=12)


def _apply(db: Database, operations) -> None:
    table = db.table("T")
    live = []
    for operation in operations:
        kind = operation[0]
        if kind == "insert":
            live.append(table.insert(operation[1]))
        elif kind in ("load_rows", "load_columns"):
            rows = operation[1]
            if kind == "load_rows":
                db.load("T", rows)
            else:
                columns = {name: np.asarray(vector, dtype=np.int64)
                           for name, vector in zip("abc", zip(*rows))} \
                    if rows else {name: np.zeros(0, np.int64) for name in "abc"}
                db.load("T", columns)
            live = [RecordId(page, slot)
                    for page in table.heap.page_numbers()
                    for slot in table.heap.buffer_pool.peek_page(page).live_slots()]
        elif kind == "delete" and live:
            table.delete(live.pop(operation[1] % len(live)))
        elif kind == "update_field" and live:
            table.update_field(live[operation[1] % len(live)], operation[2],
                               operation[3])
        elif kind == "create_index" and operation[1] not in table.indexes:
            db.create_index("T", operation[1])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_operations, st.sampled_from(("nsm", "pax")),
       st.sampled_from((16, 40, 100)))
def test_interleaved_loads_equal_the_oracle(operations, layout, record_size):
    images = []
    for oracle in (False, True):
        db = Database(page_size=1024)
        db.create_table("T", [(name, ColumnType.INT32) for name in "abc"],
                        record_size=record_size, layout_style=layout)
        if oracle:
            with per_row_builds():
                _apply(db, operations)
        else:
            _apply(db, operations)
        for index in db.table("T").indexes.values():
            index.check_invariants()
        images.append(database_snapshot(db))
    assert images[0] == images[1]
