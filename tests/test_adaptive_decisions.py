"""Differential + property harness for the PR 5 runtime decisions:
adaptive join-side selection and adaptive batch sizing.

Contracts pinned here (extending ``tests/test_adaptive.py``, which owns the
PR 4 conjunct-reordering contracts):

* ``adaptivity="off"`` stays *bit-identical* to the engine without the knob
  on **join plans** too -- same rows, same cache/TLB/branch/event counts,
  same routine invocations -- across layouts (the differential harness
  extended to joins).
* A flipped hash join returns rows identical to the static plan **in the
  same order and with the same dict-merge column order**, for seeded random
  tables with duplicate keys on both sides.
* Both decisions are charge-mode independent (span vs per-address produce
  identical cycles -- the L1D pressure signal and the cardinality evidence
  are count-identical by the span-charging contract): the ``--scale ci``
  artifact's adaptive-join and adaptive-batching tables run under the
  ``per_address`` oracle (``tests/test_reference_oracle.py``).
* The payoff is real: greedy flips the planner-wrong join and spends fewer
  cycles than the static control arm; greedy grows a too-small vector and
  spends fewer cycles than the fixed-size control arm.
"""

from __future__ import annotations

import random
import pytest

from oracle import hardware_counts
from repro.adaptive import (AdaptiveExecution, GreedyRankPolicy,
                            RuntimeStatsCollector, StaticPolicy,
                            greedy_batch_size, greedy_flip_join)
from repro.engine import Database, Session
from repro.execution import ExecutionContext, execute_plan
from repro.hardware import SimulatedProcessor
from repro.query import ExecutionConfig, JoinQuery, Planner, avg, count_star
from repro.query.plans import HashJoinPlan, SeqScanPlan
from repro.storage.schema import ColumnType
from repro.systems import SYSTEM_B
from repro.workloads.micro import MicroWorkload, MicroWorkloadConfig

R_ROWS = 420
S_ROWS = 40
KEY_DOMAIN = 25  # small domain -> duplicate join keys on both sides


def build_database(layout_style: str = "nsm", seed: int = 42) -> Database:
    """Seeded random R and S with duplicate keys on both join sides."""
    db = Database()
    columns = [("a1", ColumnType.INT32), ("a2", ColumnType.INT32),
               ("a3", ColumnType.INT32)]
    db.create_table("R", columns, record_size=100, layout_style=layout_style)
    db.create_table("S", columns, record_size=100, layout_style=layout_style)
    rng = random.Random(seed)
    db.load("R", [(i + 1, rng.randint(1, KEY_DOMAIN), rng.randint(0, 9_999))
                  for i in range(R_ROWS)])
    db.load("S", [(rng.randint(1, KEY_DOMAIN), rng.randint(1, KEY_DOMAIN),
                   rng.randint(0, 9_999)) for i in range(S_ROWS)])
    return db


#: The planner-wrong join: build pinned to R, the ~10x larger input.
WRONG_SIDE_JOIN = JoinQuery(left_table="R", right_table="S",
                            left_column="a2", right_column="a1",
                            aggregates=(avg("R.a3"), count_star()),
                            build_side="left")


def run_query(query, adaptivity=None, layout="nsm", batch_size=64, seed=42,
              warmup_runs=0, **session_kwargs):
    """Execute one query; return (rows, hardware counts, invocations, the
    adaptive manager's collector or ``None``)."""
    db = build_database(layout_style=layout, seed=seed)
    kwargs = dict(session_kwargs)
    if adaptivity is not None:
        kwargs["adaptivity"] = adaptivity
    session = Session(db, SYSTEM_B, os_interference=None,
                      engine="vectorized", batch_size=batch_size, **kwargs)
    result = session.execute(query, warmup_runs=warmup_runs)
    session.processor.finalize()
    counts = hardware_counts(session.processor)
    invocations = dict(session.context.op_invocations)
    collector = (session.context.adaptive.collector
                 if session.context.adaptive is not None else None)
    return result.rows, counts, invocations, collector


# ---------------------------------------------------------------------------
# adaptivity="off" stays bit-identical on join plans
# ---------------------------------------------------------------------------
JOIN_QUERIES = {
    "planner_join": lambda: JoinQuery(left_table="R", right_table="S",
                                      left_column="a2", right_column="a1",
                                      aggregates=(avg("R.a3"), count_star())),
    "wrong_side_join": lambda: WRONG_SIDE_JOIN,
}


@pytest.mark.parametrize("layout", ("nsm", "pax"))
@pytest.mark.parametrize("shape", sorted(JOIN_QUERIES))
def test_off_identical_to_unconfigured_engine_on_joins(shape, layout):
    query = JOIN_QUERIES[shape]()
    baseline = run_query(query, adaptivity=None, layout=layout)
    off = run_query(query, adaptivity="off", layout=layout)
    assert off[:3] == baseline[:3]


def test_off_scan_identical_with_configured_batch_size():
    """A small configured vector is page-capped on the legacy path; 'off'
    must reproduce it exactly (the ABS anchor cell's contract)."""
    workload_query = JOIN_QUERIES["planner_join"]()
    for size in (7, 32):
        baseline = run_query(workload_query, adaptivity=None, batch_size=size)
        off = run_query(workload_query, adaptivity="off", batch_size=size)
        assert off[:3] == baseline[:3]


# ---------------------------------------------------------------------------
# Configuration contract
# ---------------------------------------------------------------------------
def test_decision_switches_require_non_off_adaptivity():
    with pytest.raises(ValueError):
        ExecutionConfig(engine="vectorized", adaptive_joins=True)
    with pytest.raises(ValueError):
        ExecutionConfig(engine="vectorized", adaptive_batching=True)
    db = build_database()
    with pytest.raises(ValueError):
        Session(db, SYSTEM_B, os_interference=None, engine="vectorized",
                adaptive_joins=True)
    # Any non-off mode accepts the switches ('static' is the control arm).
    config = ExecutionConfig(engine="vectorized", adaptivity="static",
                             adaptive_joins=True, adaptive_batching=True)
    assert config.adaptive_joins and config.adaptive_batching


def test_join_query_validates_build_side():
    with pytest.raises(ValueError):
        JoinQuery(left_table="R", right_table="S", left_column="a2",
                  right_column="a1", aggregates=(count_star(),),
                  build_side="middle")


def test_planner_honours_build_side_hint():
    db = build_database()
    plan = Planner(db.catalog, SYSTEM_B).plan(WRONG_SIDE_JOIN)
    join = plan.input
    assert isinstance(join, HashJoinPlan)
    assert isinstance(join.build, SeqScanPlan) and join.build.table == "R"
    assert join.probe.table == "S"
    # Without the hint the planner builds on the smaller S.
    neutral = Planner(db.catalog, SYSTEM_B).plan(JOIN_QUERIES["planner_join"]())
    assert neutral.input.build.table == "S"


# ---------------------------------------------------------------------------
# Flip correctness: identical rows, identical order, identical columns
# ---------------------------------------------------------------------------
def bare_join_rows(layout, seed, manager=None):
    """Execute the bare (non-aggregated) wrong-side hash join plan and
    return the materialized row dicts in output order."""
    db = build_database(layout_style=layout, seed=seed)
    plan = Planner(db.catalog, SYSTEM_B).plan(WRONG_SIDE_JOIN).input
    ctx = ExecutionContext(
        SimulatedProcessor(), SYSTEM_B, db.address_space,
        execution=ExecutionConfig(engine="vectorized", batch_size=64,
                                  adaptivity="greedy" if manager else "off"))
    if manager is not None:
        ctx.adaptive = manager
    return execute_plan(plan, db.catalog, ctx)


@pytest.mark.parametrize("layout", ("nsm", "pax"))
@pytest.mark.parametrize("seed", (42, 7, 1999))
def test_flipped_join_rows_order_and_columns_identical(layout, seed):
    static_rows = bare_join_rows(layout, seed)
    manager = AdaptiveExecution("greedy", join_sides=True)
    flipped_rows = bare_join_rows(layout, seed, manager=manager)
    # The greedy policy really flipped (R streamed through the S-side table
    # after the observed build cardinality contradicted the probe estimate).
    assert manager.collector.cardinality("card:R") == R_ROWS
    assert manager.collector.cardinality("card:S") == S_ROWS
    assert flipped_rows == static_rows
    # Column order (dict-merge semantics) is part of the contract.
    assert [tuple(row) for row in flipped_rows] == [tuple(row)
                                                    for row in static_rows]


def test_static_policy_never_flips_and_matches_off_charges():
    query = WRONG_SIDE_JOIN
    off = run_query(query, adaptivity="off")
    static = run_query(query, adaptivity="static", adaptive_joins=True)
    # The unflipped adaptive path charges exactly like the static engine.
    assert static[:3] == off[:3]
    # ... while still observing both input cardinalities.
    collector = static[3]
    assert collector.cardinality("card:R") == R_ROWS
    assert collector.cardinality("card:S") == S_ROWS


def test_warm_flip_uses_historical_cardinalities():
    """With a warm-up execution observed, greedy flips before ingesting a
    single build batch: no wasted hash-build work at all."""
    cold = run_query(WRONG_SIDE_JOIN, adaptivity="greedy", adaptive_joins=True)
    warm = run_query(WRONG_SIDE_JOIN, adaptivity="greedy", adaptive_joins=True,
                     warmup_runs=1)
    static = run_query(WRONG_SIDE_JOIN, adaptivity="static",
                       adaptive_joins=True, warmup_runs=1)
    assert cold[0] == warm[0] == static[0]
    # The flip converts R-side hash_build batches into hash_probe batches.
    assert warm[2]["hash_build"] < static[2]["hash_build"]
    assert warm[2]["hash_probe"] > static[2]["hash_probe"]


# ---------------------------------------------------------------------------
# Policy units: the decision rules themselves
# ---------------------------------------------------------------------------
def test_greedy_flip_join_weighs_evidence_against_expectation():
    stats = RuntimeStatsCollector()
    # No evidence: trust the planner.
    assert not greedy_flip_join("card:R", "card:S", 200, 0, stats)
    # Streamed build rows within hysteresis of the probe expectation: hold.
    assert not greedy_flip_join("card:R", "card:S", 200, 250, stats)
    # Evidence beyond hysteresis: flip.
    assert greedy_flip_join("card:R", "card:S", 200, 251, stats)
    # Historical build cardinality flips before any rows stream.
    stats.observe_cardinality("card:R", 6_000)
    assert greedy_flip_join("card:R", "card:S", 200, 0, stats)
    # Observed probe cardinality overrides a stale planner estimate.
    stats.observe_cardinality("card:S", 50_000)
    assert not greedy_flip_join("card:R", "card:S", 200, 6_000, stats)
    # The static policy never flips, whatever the evidence says.
    assert not StaticPolicy().flip_join("card:R", "card:S", 200, 10**9, stats)
    assert StaticPolicy().batch_size("scan:R", 256, stats) == 256


def test_greedy_batch_size_explores_then_settles():
    stats = RuntimeStatsCollector()
    ladder = (32, 64, 128, 256)
    size = 64
    # Flat pressure profile: exploration touches each rung once, then the
    # largest rung wins (it amortises the per-batch invocation hardest).
    for _ in range(12):
        stats.observe_pressure("k", size, rows=size, l1d_misses=size)  # 1/row
        size = greedy_batch_size("k", size, stats, ladder=ladder)
    assert size == 256
    # A rung whose working set thrashes is disqualified permanently.
    stats.observe_pressure("k", 256, rows=256, l1d_misses=2_560)  # 10/row
    assert greedy_batch_size("k", 256, stats, ladder=ladder) == 128
    assert greedy_batch_size("k", 128, stats, ladder=ladder) == 128


def test_collector_averages_cardinalities_and_sums_pressure():
    stats = RuntimeStatsCollector()
    stats.observe_cardinality("card:R", 100)
    stats.observe_cardinality("card:R", 300)
    stats.observe_cardinality("card:S", 40)
    stats.observe_pressure("scan:R", 128, rows=128, l1d_misses=50)
    stats.observe_pressure("scan:R", 128, rows=128, l1d_misses=70)
    assert stats.cardinality("card:R") == 200.0  # mean of two executions
    assert stats.cardinality("card:S") == 40.0
    assert stats.cardinality("card:T") is None
    rung = stats.pressure_profile("scan:R")[128]
    assert (rung.rows, rung.l1d_misses, rung.batches) == (256, 120, 2)


# ---------------------------------------------------------------------------
# Batch sizing: identical rows, charge-mode independence
# ---------------------------------------------------------------------------
def scan_query():
    from repro.query import SelectionQuery, range_predicate
    return SelectionQuery(table="R", aggregates=(avg("a3"), count_star()),
                          predicate=range_predicate("a2", 3, 17))


@pytest.mark.parametrize("layout", ("nsm", "pax"))
@pytest.mark.parametrize("size", (1, 7, 64, 1024))
def test_adaptive_batching_rows_identical(layout, size):
    query = scan_query()
    baseline = run_query(query, adaptivity=None, layout=layout,
                         batch_size=size)
    for mode in ("static", "greedy"):
        adaptive = run_query(query, adaptivity=mode, adaptive_batching=True,
                             layout=layout, batch_size=size)
        assert adaptive[0] == baseline[0]


def test_batching_composes_with_conjunct_reordering():
    from repro.query import SelectionQuery
    from repro.query.expressions import (ColumnRef, Comparison, ComparisonOp,
                                         Const, conjunction)
    query = SelectionQuery(
        table="R", aggregates=(avg("a3"), count_star()),
        predicate=conjunction(
            Comparison(ComparisonOp.LE, ColumnRef("a1"), Const(400)),
            Comparison(ComparisonOp.GE, ColumnRef("a3"), Const(5_000)),
            Comparison(ComparisonOp.LT, ColumnRef("a2"), Const(3))))
    baseline = run_query(query, adaptivity=None)
    both = run_query(query, adaptivity="greedy", adaptive_batching=True,
                     adaptive_joins=True, batch_size=16)
    assert both[0] == baseline[0]
    collector = both[3]
    assert collector.total_rows_in() > 0          # conjunct stats observed
    assert collector.pressure_profile("scan:R")   # pressure observed


# ---------------------------------------------------------------------------
# The payoff (engine level, microworkload scale)
# ---------------------------------------------------------------------------
def test_runner_adaptive_cells_measure_both_decisions():
    """The experiments layer's AJS/ABS cells: identical rows per mode,
    greedy cheaper than the static control arm, warmed-build reuse."""
    from repro.experiments import (ExperimentConfig, ExperimentRunner,
                                   adaptive_cell)

    runner = ExperimentRunner(ExperimentConfig(
        micro=MicroWorkloadConfig(scale=1.0 / 400.0), os_interference=False))
    for layout in ("nsm", "pax"):
        join_static = runner.measure(adaptive_cell("AJS", layout, "static"))
        join_greedy = runner.measure(adaptive_cell("AJS", layout, "greedy"))
        assert join_static.rows == join_greedy.rows
        assert (join_greedy.counters.get("CPU_CLK_UNHALTED")
                < join_static.counters.get("CPU_CLK_UNHALTED"))
        batch_static = runner.measure(adaptive_cell("ABS", layout, "static"))
        batch_greedy = runner.measure(adaptive_cell("ABS", layout, "greedy"))
        assert batch_static.rows == batch_greedy.rows
        assert (batch_greedy.counters.get("CPU_CLK_UNHALTED")
                < batch_static.counters.get("CPU_CLK_UNHALTED"))
        # Cells are cached: re-measuring returns the same object.
        assert runner.measure(adaptive_cell("AJS", layout, "greedy")) is join_greedy


def test_greedy_flip_beats_static_on_planner_wrong_join():
    workload = MicroWorkload()  # default scale: R=6000, S=200
    query = workload.skewed_join()
    outcomes = {}
    for mode in ("static", "greedy"):
        db = workload.build()
        session = Session(db, SYSTEM_B, os_interference=None,
                          engine="vectorized", adaptivity=mode,
                          adaptive_joins=True)
        outcomes[mode] = session.execute(query, warmup_runs=1)
        session.close()
    static, greedy = outcomes["static"], outcomes["greedy"]
    assert static.rows == greedy.rows
    assert (greedy.counters.get("CPU_CLK_UNHALTED")
            < static.counters.get("CPU_CLK_UNHALTED"))
    # The flip's locality win: the small S-side hash area stays L1D-resident.
    assert greedy.breakdown.components["TL1D"] < static.breakdown.components["TL1D"]


def test_greedy_ladder_beats_static_on_too_small_vectors():
    workload = MicroWorkload(MicroWorkloadConfig(scale=1.0 / 1000.0,
                                                 minimum_r_rows=1200))
    query = workload.sequential_range_selection(0.5)
    outcomes = {}
    for mode in ("static", "greedy"):
        db = workload.build(include_s=False)
        session = Session(db, SYSTEM_B, os_interference=None,
                          engine="vectorized", batch_size=32,
                          adaptivity=mode, adaptive_batching=True)
        outcomes[mode] = session.execute(query, warmup_runs=0)
        session.close()
    static, greedy = outcomes["static"], outcomes["greedy"]
    assert static.rows == greedy.rows
    assert (greedy.counters.get("CPU_CLK_UNHALTED")
            < static.counters.get("CPU_CLK_UNHALTED"))
