"""Differential harness for the morsel-parallel execution subsystem.

``workers=N`` (N > 1) must be *indistinguishable* from the serial engine:
identical result rows, identical cache/TLB/branch/event counts and identical
cycle totals, on every planner-producible plan shape, both page layouts and
both charge modes -- because the exchange operator's charge tapes are
replayed into the real context in canonical morsel order, the partitioning
(and any racing between pool workers) cannot influence a single simulated
event.  The hypothesis section drives arbitrary morsel partitionings
(single-page morsels, one giant morsel, empty tables, batch size 1) at the
same contract, and checks that event counters are commutative under
``merge()``.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import in_process_morsels, morsel_pages as pin_morsel_pages
from repro.engine import Database, Session
from repro.execution.parallel import (ParallelExecution, TapeRecorder,
                                      VecExchangeOperator, fork_available,
                                      partition_pages)
from repro.execution.vectorized import VecSeqScanOperator
from repro.hardware import SimulatedProcessor
from repro.hardware.counters import EventCounters
from repro.query import (JoinQuery, Planner, SelectionQuery, UpdateQuery, avg,
                         count_star, range_predicate)
from repro.query.planner import DefaultPolicy
from repro.storage.schema import ColumnType
from repro.systems import SYSTEM_B, SYSTEM_C

R_ROWS = 420
S_ROWS = 40
A2_DOMAIN = 60

JOIN_QUERY = JoinQuery(left_table="R", right_table="S", left_column="a2",
                       right_column="a1", aggregates=(avg("R.a3"), count_star()))

#: Planner-producible plan shapes, as logical queries plus the planner that
#: lowers them (the exchange engages on the sequential scans inside).
PLAN_SHAPES = {
    "agg_seq_scan": lambda: (SelectionQuery(
        table="R", aggregates=(avg("a3"), count_star()),
        predicate=range_predicate("a2", 5, 25)), SYSTEM_C),
    "agg_seq_scan_wide": lambda: (SelectionQuery(
        table="R", aggregates=(count_star(),),
        predicate=range_predicate("a2", 1, 50)), SYSTEM_C),
    "agg_index_range": lambda: (SelectionQuery(
        table="R", aggregates=(avg("a3"),),
        predicate=range_predicate("a2", 10, 20), prefer_index_on="a2"), SYSTEM_B),
    "hash_join": lambda: (JOIN_QUERY, DefaultPolicy(join_algorithm="hash")),
    "nested_loop_join": lambda: (JOIN_QUERY,
                                 DefaultPolicy(join_algorithm="nested_loop")),
    "index_nested_loop_join": lambda: (JOIN_QUERY,
                                       DefaultPolicy(join_algorithm="index_nested_loop")),
    "update": lambda: (UpdateQuery(table="S", key_column="a1", key_value=11,
                                   set_column="a3", set_value=-5), SYSTEM_B),
}


def build_database(layout_style: str = "nsm", seed: int = 42,
                   r_rows: int = R_ROWS) -> Database:
    db = Database()
    columns = [("a1", ColumnType.INT32), ("a2", ColumnType.INT32),
               ("a3", ColumnType.INT32)]
    db.create_table("R", columns, record_size=100, layout_style=layout_style)
    db.create_table("S", columns, record_size=100, layout_style=layout_style)
    rng = random.Random(seed)
    db.load("R", [(i + 1, rng.randint(1, A2_DOMAIN), rng.randint(0, 9_999))
                  for i in range(r_rows)])
    db.load("S", [(i + 1, rng.randint(1, A2_DOMAIN), rng.randint(0, 9_999))
                  for i in range(S_ROWS)])
    db.create_index("R", "a2")
    db.create_index("S", "a1", unique=True)
    return db


def hardware_counts(processor: SimulatedProcessor) -> dict:
    snap = processor.caches.snapshot()
    return {
        "l1d": snap.l1d, "l1i": snap.l1i, "l2": snap.l2,
        "dtlb": processor.dtlb.stats.as_dict(),
        "itlb": processor.itlb.stats.as_dict(),
        "branch": processor.branch_unit.stats.as_dict(),
        "user": dict(processor.counters.user),
        "sup": dict(processor.counters.sup),
    }


def run_shape(shape: str, parallelism: int, layout: str = "nsm",
              charging=nullcontext, morsels=in_process_morsels,
              morsel_pages=None, batch_size: int = 64):
    """``charging`` is ``nullcontext`` (production bulk charging) or the
    per-address oracle; ``morsels`` the in-process pipeline (the default
    under test: no pool per session) or ``nullcontext`` (what the platform
    gives -- a forked pool where it can fork)."""
    query, policy = PLAN_SHAPES[shape]()
    profile = policy if hasattr(policy, "key") else SYSTEM_B
    db = build_database(layout_style=layout)
    with charging(), morsels():
        session = Session(db, profile, os_interference=None,
                          engine="vectorized", batch_size=batch_size,
                          parallelism=parallelism)
    if not hasattr(policy, "key"):
        session.planner.policy = policy
    with pin_morsel_pages(morsel_pages):
        result = session.execute(query, warmup_runs=0)
    session.processor.finalize()
    counts = hardware_counts(session.processor)
    invocations = dict(session.context.op_invocations)
    session.close()
    return result.rows, counts, invocations


@pytest.mark.parametrize("layout", ("nsm", "pax"))
@pytest.mark.parametrize("shape", sorted(PLAN_SHAPES))
def test_workers_identical_to_serial_every_plan_shape(shape, layout):
    serial = run_shape(shape, 1, layout=layout)
    for workers in (2, 3):
        parallel = run_shape(shape, workers, layout=layout, morsel_pages=1)
        assert parallel[0] == serial[0], "rows diverged"
        assert parallel[1] == serial[1], "hardware counts diverged"
        assert parallel[2] == serial[2], "routine invocations diverged"


@pytest.mark.parametrize("charge_mode", ("span", "per_address"))
def test_workers_identical_under_both_charge_modes(charging):
    serial = run_shape("agg_seq_scan", 1)
    parallel = run_shape("agg_seq_scan", 3, charging=charging,
                         morsel_pages=2)
    assert parallel[:2] == serial[:2]


@pytest.mark.parametrize("batch_size", (1, 7))
def test_workers_identical_at_odd_batch_sizes(batch_size):
    serial = run_shape("hash_join", 1, batch_size=batch_size)
    parallel = run_shape("hash_join", 2, batch_size=batch_size, morsel_pages=1)
    assert parallel[:2] == serial[:2]


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_process_backend_identical_to_serial():
    serial = run_shape("hash_join", 1)
    parallel = run_shape("hash_join", 3, morsels=nullcontext, morsel_pages=2)
    assert parallel[0] == serial[0]
    assert parallel[1] == serial[1]


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_process_backend_sees_updates_between_queries():
    """An update invalidates the forked snapshot; the next exchange re-forks."""
    db = build_database()
    with Session(db, SYSTEM_B, os_interference=None, engine="vectorized",
                 parallelism=2) as session, pin_morsel_pages(2):
        assert session.parallel.forks
        query = SelectionQuery(table="S", aggregates=(avg("a3"), count_star()))
        before = session.execute(query, warmup_runs=0).rows
        session.execute(UpdateQuery(table="S", key_column="a1", key_value=1,
                                    set_column="a3", set_value=123_456),
                        warmup_runs=0)
        after = session.execute(query, warmup_runs=0).rows
    assert before != after
    # The post-update average must reflect the new value, i.e. workers did
    # not serve the stale pre-update snapshot.
    expected = build_database()
    rows = [expected.table("S").heap.read_values(e.rid)
            for e in expected.table("S").heap.scan()]
    values = [(123_456 if a1 == 1 else a3) for a1, _a2, a3 in rows]
    assert after[0]["avg(a3)"] == pytest.approx(sum(values) / len(values))


def test_workers_one_uses_plain_scan_operator():
    """``workers=1`` must not route through the exchange at all."""
    db = build_database()
    session = Session(db, SYSTEM_B, os_interference=None, engine="vectorized",
                      parallelism=1)
    assert session.context.parallel is None
    from repro.execution import build_scan
    from repro.query.plans import SeqScanPlan
    operator = build_scan(SeqScanPlan(table="R", predicate=None),
                          db.catalog, session.context)
    assert isinstance(operator, VecSeqScanOperator)
    session.close()


def test_exchange_on_empty_table_yields_nothing():
    db = Database()
    db.create_table("E", [("a1", ColumnType.INT32)])
    with in_process_morsels():
        parallel = ParallelExecution(db, 2)
    from repro.execution.context import ExecutionContext
    from repro.storage.address_space import AddressSpace
    ctx = ExecutionContext(SimulatedProcessor(), SYSTEM_B, db.address_space)
    exchange = VecExchangeOperator(db.table("E"), ctx, parallel,
                                   output_columns=("a1",))
    assert list(exchange.batches()) == []
    parallel.close()


def test_partition_pages_covers_and_orders():
    assert partition_pages(0, 3) == []
    assert partition_pages(7, 3) == [(0, 3), (3, 6), (6, 7)]
    assert partition_pages(4, 100) == [(0, 4)]
    spans = partition_pages(23, 1)
    assert spans == [(i, i + 1) for i in range(23)]


# ---------------------------------------------------------------------------
# Hypothesis: arbitrary morsel partitionings are count-identical to serial
# ---------------------------------------------------------------------------
_SERIAL_CACHE = {}


def _serial_reference(layout):
    if layout not in _SERIAL_CACHE:
        _SERIAL_CACHE[layout] = run_shape("agg_seq_scan", 1, layout=layout)
    return _SERIAL_CACHE[layout]


@settings(max_examples=12, deadline=None)
@given(morsel_pages=st.integers(min_value=1, max_value=64),
       workers=st.integers(min_value=2, max_value=5),
       layout=st.sampled_from(("nsm", "pax")))
def test_any_morsel_partitioning_matches_serial(morsel_pages, workers, layout):
    serial = _serial_reference(layout)
    parallel = run_shape("agg_seq_scan", workers, layout=layout,
                         morsel_pages=morsel_pages)
    assert parallel[0] == serial[0]
    assert parallel[1] == serial[1]
    assert parallel[2] == serial[2]


# ---------------------------------------------------------------------------
# Commutative merges of event counters
# ---------------------------------------------------------------------------
counts = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.dictionaries(
    st.sampled_from(("INST_RETIRED", "DATA_MEM_REFS", "DCU_LINES_IN",
                     "L2_DATA_MISS", "BR_MISS_PRED_RETIRED")),
    counts, max_size=5), min_size=1, max_size=6),
    st.randoms())
def test_event_counters_merge_commutes(parts, rnd):
    counter_parts = [EventCounters.from_dict(part) for part in parts]
    shuffled = list(counter_parts)
    rnd.shuffle(shuffled)
    merged = EventCounters()
    for counters in shuffled:
        merged.merge(counters)
    for event in {event for part in parts for event in part}:
        assert merged.get(event) == sum(part.get(event, 0) for part in parts)


def test_tape_recorder_records_and_counts_invocations():
    recorder = TapeRecorder(SYSTEM_B)
    recorder.visit("scan_next")
    recorder.visit_batch("predicate", 10)
    recorder.visit_batch("predicate", 0)     # no-op, like the real context
    recorder.read_address(0x100, 8)
    recorder.record_done(3)
    recorder.row_produced(2)
    ops = recorder.take()
    assert [op[0] for op in ops] == ["v", "vb", "dr", "rd", "rp"]
    assert recorder.op_invocations == {"scan_next": 1, "predicate": 1}
    assert recorder.take() == []             # tape drained
