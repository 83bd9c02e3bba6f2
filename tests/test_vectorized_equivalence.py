"""Differential harness: the vectorized engine must be indistinguishable
from the tuple engine at the result level, and span charging must be
indistinguishable from per-address charging at the hardware level.

Every planner-producible plan shape (sequential scan, index range and point
access, hash joins, scalar aggregation,
point update) is executed under both engines on seeded random tables, and
the harness asserts row-for-row identical results (same rows, same order)
and identical ``query_setup`` charge counts.  Batch sizes of 1 (degenerate:
every batch is one record), a prime (batches straddle page boundaries
unevenly) and the default 256 are exercised throughout.

The charging half replays the same plans through the production context
(bulk strided cache/TLB operations, the simulation fast path) and through
``oracle.PerAddressContext`` (one probe per address, the reference) on
identically seeded databases and asserts *identical* cache and TLB hit+miss
counts, identical event counters and identical result rows -- span charging
must be a pure simulator optimisation, never a model change.  It covers the
plan shapes and batch sizes the ``--scale ci`` artifact, which runs whole
under the ``per_address`` oracle (``tests/test_reference_oracle.py``), does
not: bare scans, point lookups, and batches of 1 and 7.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest

from oracle import PerAddressContext, hardware_counts
from reference_machine import reference_machine
from repro.engine import Database, Session
from repro.execution import ExecutionContext, execute_plan, execute_update
from repro.hardware import SimulatedProcessor
from repro.query import (ExecutionConfig, JoinQuery, Planner, SelectionQuery,
                         UpdateQuery, avg, count_star, equals, range_predicate)
from repro.query.planner import DefaultPolicy
from repro.query.plans import (HashJoinPlan, IndexPointLookupPlan,
                               IndexRangeScanPlan, SeqScanPlan)
from repro.storage.schema import ColumnType
from repro.systems import SYSTEM_B, SYSTEM_C

BATCH_SIZES = (1, 7, 256)

R_ROWS = 420
S_ROWS = 40
A2_DOMAIN = 60


def build_database(layout_style: str = "nsm", seed: int = 42) -> Database:
    """Seeded random R (with index on a2) and S (unique index on a1)."""
    db = Database()
    columns = [("a1", ColumnType.INT32), ("a2", ColumnType.INT32),
               ("a3", ColumnType.INT32)]
    db.create_table("R", columns, record_size=100, layout_style=layout_style)
    db.create_table("S", columns, record_size=100, layout_style=layout_style)
    rng = random.Random(seed)
    db.load("R", [(i + 1, rng.randint(1, A2_DOMAIN), rng.randint(0, 9_999))
                  for i in range(R_ROWS)])
    db.load("S", [(i + 1, rng.randint(1, A2_DOMAIN), rng.randint(0, 9_999))
                  for i in range(S_ROWS)])
    db.create_index("R", "a2")
    db.create_index("S", "a1", unique=True)
    return db


@pytest.fixture(scope="module")
def database() -> Database:
    return build_database()


def make_context(db: Database, profile=SYSTEM_B, engine: str = "tuple",
                 batch_size: int = 256) -> ExecutionContext:
    return ExecutionContext(
        SimulatedProcessor(), profile, db.address_space,
        execution=ExecutionConfig(engine=engine, batch_size=batch_size))


def run_both(db: Database, plan, batch_size: int, profile=SYSTEM_B):
    """Execute one plan under both engines; assert the differential contract."""
    ctx_tuple = make_context(db, profile)
    ctx_vec = make_context(db, profile, "vectorized", batch_size)
    rows_tuple = execute_plan(plan, db.catalog, ctx_tuple)
    rows_vec = execute_plan(plan, db.catalog, ctx_vec)
    assert rows_vec == rows_tuple
    assert (ctx_vec.op_invocations.get("query_setup")
            == ctx_tuple.op_invocations.get("query_setup") == 1)
    return rows_tuple, ctx_tuple, ctx_vec


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_seq_scan_without_predicate(database, batch_size):
    plan = SeqScanPlan(table="R", predicate=None)
    rows, _, _ = run_both(database, plan, batch_size)
    assert rows == [{}] * R_ROWS  # no output columns requested: empty rows


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_seq_scan_with_predicate(database, batch_size):
    plan = SeqScanPlan(table="R", predicate=range_predicate("a2", 10, 30))
    rows, _, _ = run_both(database, plan, batch_size)
    assert rows  # the window selects something at this seed
    assert all(10 < row["a2"] < 30 for row in rows)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_aggregate_over_seq_scan(database, batch_size):
    plan = Planner(database.catalog, SYSTEM_C).plan(SelectionQuery(
        table="R", aggregates=(avg("a3"), count_star()),
        predicate=range_predicate("a2", 5, 25)))
    assert isinstance(plan.input, SeqScanPlan)
    run_both(database, plan, batch_size, profile=SYSTEM_C)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_index_range_scan(database, batch_size):
    plan = IndexRangeScanPlan(table="R", column="a2", low=10, high=30)
    rows, _, _ = run_both(database, plan, batch_size)
    assert rows
    assert all(10 < row["a2"] < 30 for row in rows)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_index_range_scan_with_residual_predicate(database, batch_size):
    plan = IndexRangeScanPlan(table="R", column="a2", low=5, high=45,
                              residual_predicate=range_predicate("a3", 1000, 9000))
    rows, _, _ = run_both(database, plan, batch_size)
    assert all(1000 < row["a3"] < 9000 for row in rows)


@pytest.mark.parametrize("residual_on_key", (False, True))
def test_index_range_scan_names_its_key_by_the_indexed_column(residual_on_key):
    """The key is emitted under the plan's column, not a fragment of the
    index name: ``line_item_l_ship_date_idx`` used to yield rows keyed
    ``"item"`` (``lineitem.l_shipdate`` -> ``"l"``) under both engines."""
    db = Database()
    db.create_table("line_item", [("l_order_key", ColumnType.INT32),
                                  ("l_ship_date", ColumnType.INT32)],
                    record_size=100)
    db.load("line_item", [(i, (i * 7) % 50) for i in range(200)])
    db.create_index("line_item", "l_ship_date")
    residual = range_predicate("l_ship_date", 10, 30) if residual_on_key else None
    plan = IndexRangeScanPlan(table="line_item", column="l_ship_date",
                              low=0, high=40, residual_predicate=residual)
    rows, _, _ = run_both(db, plan, batch_size=7)
    expected = sorted(key for key in ((i * 7) % 50 for i in range(200))
                      if (10 < key < 30 if residual_on_key else 0 < key < 40))
    assert [row["l_ship_date"] for row in rows] == expected
    assert all(list(row) == ["l_ship_date"] for row in rows)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_aggregate_over_index_range_scan(database, batch_size):
    plan = Planner(database.catalog, SYSTEM_B).plan(SelectionQuery(
        table="R", aggregates=(avg("a3"),),
        predicate=range_predicate("a2", 10, 20), prefer_index_on="a2"))
    assert isinstance(plan.input, IndexRangeScanPlan)
    run_both(database, plan, batch_size)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_index_point_lookup_rows_hold_only_the_rid(database, batch_size):
    """The update path's lookup charges the whole record but emits only the
    one value the update reads."""
    plan = IndexPointLookupPlan(table="S", column="a1", value=7)
    rows, _, _ = run_both(database, plan, batch_size)
    assert len(rows) == 1 and list(rows[0]) == ["__rid__"]
    assert database.catalog.table("S").heap.read_values(rows[0]["__rid__"])[0] == 7


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------
JOIN_QUERY = JoinQuery(left_table="R", right_table="S", left_column="a2",
                       right_column="a1", aggregates=(avg("R.a3"), count_star()))


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_aggregate_over_hash_join(database, batch_size):
    plan = Planner(database.catalog, DefaultPolicy()).plan(JOIN_QUERY)
    rows, _, _ = run_both(database, plan, batch_size)
    assert rows[0]["count(*)"] > 0


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_bare_hash_join_rows_match_in_order(database, batch_size):
    plan = Planner(database.catalog, DefaultPolicy()).plan(JOIN_QUERY)
    join_plan = plan.input
    assert isinstance(join_plan, HashJoinPlan)
    rows, _, _ = run_both(database, join_plan, batch_size)
    assert len(rows) > 0


# ---------------------------------------------------------------------------
# Updates (each engine gets its own identically seeded database)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_update_produces_identical_table_state(batch_size):
    results = {}
    for engine in ("tuple", "vectorized"):
        db = build_database()
        ctx = make_context(db, engine=engine, batch_size=batch_size)
        plan = Planner(db.catalog, SYSTEM_B).plan(UpdateQuery(
            table="S", key_column="a1", key_value=11,
            set_column="a3", set_value=-5))
        updated = execute_update(plan, db.catalog, ctx)
        table = db.table("S")
        contents = [table.heap.read_values(e.rid) for e in table.heap.scan()]
        results[engine] = (updated, contents, ctx.op_invocations.get("query_setup"))
    assert results["tuple"] == results["vectorized"]
    assert results["tuple"][0] == 1


# ---------------------------------------------------------------------------
# The point of the exercise: strictly fewer interpreted invocations
# ---------------------------------------------------------------------------
def test_vectorized_charges_strictly_fewer_invocations(database):
    plan = Planner(database.catalog, DefaultPolicy()).plan(JOIN_QUERY)
    _, ctx_tuple, ctx_vec = run_both(database, plan, 256)
    assert ctx_vec.total_invocations() < ctx_tuple.total_invocations()


def test_vectorized_scan_charges_strictly_fewer_invocations(database):
    plan = Planner(database.catalog, SYSTEM_C).plan(SelectionQuery(
        table="R", aggregates=(count_star(),),
        predicate=range_predicate("a2", 1, 50)))
    _, ctx_tuple, ctx_vec = run_both(database, plan, 256, profile=SYSTEM_C)
    assert ctx_vec.total_invocations() < ctx_tuple.total_invocations()


# ---------------------------------------------------------------------------
# Engines agree on PAX tables too (layout and engine are orthogonal axes)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("batch_size", (7, 256))
def test_differential_contract_holds_on_pax_layout(batch_size):
    db = build_database(layout_style="pax")
    plan = Planner(db.catalog, SYSTEM_B).plan(SelectionQuery(
        table="R", aggregates=(avg("a3"), count_star()),
        predicate=range_predicate("a2", 10, 40)))
    run_both(db, plan, batch_size)


def test_pax_and_nsm_return_identical_results():
    for engine in ("tuple", "vectorized"):
        rows = {}
        for style in ("nsm", "pax"):
            db = build_database(layout_style=style)
            session = Session(db, SYSTEM_B, os_interference=None, engine=engine)
            result = session.execute(SelectionQuery(
                table="R", aggregates=(avg("a3"), count_star()),
                predicate=range_predicate("a2", 10, 40)), warmup_runs=0)
            rows[style] = result.rows
        assert rows["nsm"] == rows["pax"]


# ---------------------------------------------------------------------------
# Span charging vs per-address charging: identical hardware counts
# ---------------------------------------------------------------------------
def run_charge_modes(plan_factory, layout_style: str, engine: str = "vectorized",
                     batch_size: int = 256, profile=SYSTEM_B):
    """Execute one plan through the per-address oracle and the production
    (span) context on identically seeded databases; assert identical rows
    and identical hardware counts."""
    outcomes = {}
    for mode, context, machine in (
            ("per_address", PerAddressContext, reference_machine),
            ("span", ExecutionContext, nullcontext)):
        db = build_database(layout_style=layout_style)
        with machine():
            processor = SimulatedProcessor()
        ctx = context(processor, profile, db.address_space,
                      execution=ExecutionConfig(engine=engine,
                                                batch_size=batch_size))
        rows = execute_plan(plan_factory(db), db.catalog, ctx)
        processor.finalize()
        outcomes[mode] = (rows, hardware_counts(processor))
    rows_span, counts_span = outcomes["span"]
    rows_ref, counts_ref = outcomes["per_address"]
    assert rows_span == rows_ref
    assert counts_span == counts_ref
    return rows_span


CHARGE_MODE_PLANS = {
    "seq_scan": lambda db: SeqScanPlan(table="R",
                                       predicate=range_predicate("a2", 10, 30)),
    "seq_scan_bare": lambda db: SeqScanPlan(table="R", predicate=None),
    "agg_seq_scan": lambda db: Planner(db.catalog, SYSTEM_C).plan(
        SelectionQuery(table="R", aggregates=(avg("a3"), count_star()),
                       predicate=range_predicate("a2", 5, 25))),
    "index_range": lambda db: IndexRangeScanPlan(
        table="R", column="a2", low=5, high=45,
        residual_predicate=range_predicate("a3", 1000, 9000)),
    "point_lookup": lambda db: IndexPointLookupPlan(table="S", column="a1", value=7),
}


@pytest.mark.parametrize("layout_style", ("nsm", "pax"))
@pytest.mark.parametrize("shape", sorted(CHARGE_MODE_PLANS))
def test_span_charging_is_count_identical_vectorized(shape, layout_style):
    factory = CHARGE_MODE_PLANS[shape]
    profile = SYSTEM_C if shape == "agg_seq_scan" else SYSTEM_B
    run_charge_modes(factory, layout_style, engine="vectorized", profile=profile)


@pytest.mark.parametrize("batch_size", (1, 7))
def test_span_charging_count_identical_at_odd_batch_sizes(batch_size):
    run_charge_modes(CHARGE_MODE_PLANS["agg_seq_scan"], "pax",
                     engine="vectorized", batch_size=batch_size,
                     profile=SYSTEM_C)
