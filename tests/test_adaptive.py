"""Differential + property harness for the micro-adaptive execution subsystem.

Contracts pinned here:

* ``adaptivity="off"`` is *bit-identical* to the engine without the knob --
  same rows, same cache/TLB/branch/event counts, same routine invocations --
  on every plan shape, layout and charge mode.  The off path does not
  construct a manager, so this is structural; the tests guard it.
* Every adaptive policy returns *identical result rows* to the static
  engine, for arbitrary conjunct sets -- including ``Not``, ``Between`` and
  ``None``-valued columns (SQL-style: comparisons against NULL are never
  satisfied, so conjuncts are total functions and conjunction commutes).
* Adaptive runs are deterministic, and the collector observes every
  conjunct evaluation the context charged.
* On the skewed-conjunct microworkload the greedy policy measurably reduces
  simulated branch mispredictions and total cycles versus the same charging
  under the static conjunct order.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import (AdaptiveExecution, EpsilonGreedyPolicy,
                            GreedyRankPolicy, RuntimeStatsCollector,
                            StaticPolicy, conjunct_key, flatten_conjuncts,
                            make_policy)
from repro.engine import Database, Session
from repro.query import (ExecutionConfig, SelectionQuery, avg, count_star,
                         range_predicate)
from repro.query.expressions import (And, Between, ColumnRef, Comparison,
                                     ComparisonOp, Const, Not, conjunction)
from repro.storage.schema import ColumnType
from repro.systems import SYSTEM_B
from repro.workloads.micro import MicroWorkload, MicroWorkloadConfig

R_ROWS = 420
A2_DOMAIN = 60


def build_database(layout_style: str = "nsm", seed: int = 42) -> Database:
    db = Database()
    columns = [("a1", ColumnType.INT32), ("a2", ColumnType.INT32),
               ("a3", ColumnType.INT32)]
    db.create_table("R", columns, record_size=100, layout_style=layout_style)
    rng = random.Random(seed)
    db.load("R", [(i + 1, rng.randint(1, A2_DOMAIN), rng.randint(0, 9_999))
                  for i in range(R_ROWS)])
    return db


def multi_conjunct_query() -> SelectionQuery:
    """A 3-conjunct filter in deliberately bad static order."""
    return SelectionQuery(
        table="R", aggregates=(avg("a3"), count_star()),
        predicate=conjunction(
            Comparison(ComparisonOp.LE, ColumnRef("a1"), Const(380)),
            Comparison(ComparisonOp.GE, ColumnRef("a3"), Const(5_000)),
            Comparison(ComparisonOp.LT, ColumnRef("a2"), Const(4))))


def hardware_counts(processor) -> dict:
    snap = processor.caches.snapshot()
    return {
        "l1d": snap.l1d, "l1i": snap.l1i, "l2": snap.l2,
        "dtlb": processor.dtlb.stats.as_dict(),
        "itlb": processor.itlb.stats.as_dict(),
        "branch": processor.branch_unit.stats.as_dict(),
        "user": dict(processor.counters.user),
        "sup": dict(processor.counters.sup),
    }


def run_query(query, adaptivity=None, layout="nsm", charging=nullcontext,
              batch_size=64, seed=42):
    """Execute one query; return (rows, hardware counts, invocations,
    the adaptive manager's collector or ``None``).

    ``charging`` is ``nullcontext`` (production bulk charging) or the
    ``charging`` fixture's per-address oracle."""
    db = build_database(layout_style=layout, seed=seed)
    kwargs = {} if adaptivity is None else {"adaptivity": adaptivity}
    with charging():
        session = Session(db, SYSTEM_B, os_interference=None,
                          engine="vectorized", batch_size=batch_size, **kwargs)
    result = session.execute(query, warmup_runs=0)
    session.processor.finalize()
    counts = hardware_counts(session.processor)
    invocations = dict(session.context.op_invocations)
    collector = (session.context.adaptive.collector
                 if session.context.adaptive is not None else None)
    return result.rows, counts, invocations, collector


# ---------------------------------------------------------------------------
# adaptivity="off" is bit-identical to the engine without the knob
# ---------------------------------------------------------------------------
QUERIES = {
    "single_between": lambda: SelectionQuery(
        table="R", aggregates=(avg("a3"), count_star()),
        predicate=range_predicate("a2", 10, 40)),
    "multi_conjunct": multi_conjunct_query,
    "no_predicate": lambda: SelectionQuery(
        table="R", aggregates=(count_star(),)),
}


@pytest.mark.parametrize("layout", ("nsm", "pax"))
@pytest.mark.parametrize("shape", sorted(QUERIES))
def test_off_identical_to_unconfigured_engine(shape, layout):
    query = QUERIES[shape]()
    baseline = run_query(query, adaptivity=None, layout=layout)
    off = run_query(query, adaptivity="off", layout=layout)
    assert off[:3] == baseline[:3]


@pytest.mark.parametrize("charge_mode", ("span", "per_address"))
def test_off_identical_across_charge_modes(charging):
    query = multi_conjunct_query()
    baseline = run_query(query, adaptivity=None)
    off = run_query(query, adaptivity="off", charging=charging)
    assert off[:3] == baseline[:3]


def test_off_session_attaches_no_manager():
    db = build_database()
    session = Session(db, SYSTEM_B, os_interference=None, engine="vectorized")
    assert session.adaptive is None
    assert session.context.adaptive is None
    assert session.execution.adaptivity == "off"
    assert not session.execution.is_adaptive
    session.close()


def test_execution_config_rejects_unknown_adaptivity():
    with pytest.raises(ValueError):
        ExecutionConfig(adaptivity="clairvoyant")
    with pytest.raises(ValueError):
        make_policy("off")  # "off" is a bypass, not a policy


def test_adaptivity_requires_vectorized_engine():
    """The tuple engine never consults the manager; reject the combination
    instead of silently measuring the non-adaptive path."""
    with pytest.raises(ValueError):
        ExecutionConfig(engine="tuple", adaptivity="greedy")
    db = build_database()
    with pytest.raises(ValueError):
        Session(db, SYSTEM_B, os_interference=None, engine="tuple",
                adaptivity="greedy")
    # Vectorized + off and vectorized + adaptive both construct fine.
    ExecutionConfig(engine="vectorized", adaptivity="greedy")
    ExecutionConfig(engine="tuple", adaptivity="off")


# ---------------------------------------------------------------------------
# Every policy returns identical rows
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("layout", ("nsm", "pax"))
@pytest.mark.parametrize("mode", ("static", "greedy", "epsilon"))
def test_policies_return_identical_rows(mode, layout):
    query = multi_conjunct_query()
    baseline = run_query(query, adaptivity=None, layout=layout)
    adaptive = run_query(query, adaptivity=mode, layout=layout)
    assert adaptive[0] == baseline[0]
    # Adaptive charging differs by design: one predicate invocation per
    # conjunct per batch instead of one per batch.
    assert adaptive[2]["predicate"] > baseline[2]["predicate"]


@pytest.mark.parametrize("mode", ("static", "greedy"))
def test_adaptive_runs_are_deterministic_and_observed(mode):
    query = multi_conjunct_query()
    first = run_query(query, adaptivity=mode)
    second = run_query(query, adaptivity=mode)
    assert second[:3] == first[:3]
    assert second[3].conjuncts == first[3].conjuncts
    # Every charged conjunct evaluation reached the collector, data side
    # and simulated branch side alike.
    collector = first[3]
    assert collector.total_rows_in() > 0
    assert sum(s.branches for s in collector.conjuncts.values()) > 0


# ---------------------------------------------------------------------------
# Hypothesis: arbitrary conjunct sets, None-valued columns, every policy
# ---------------------------------------------------------------------------
class _NullCtx:
    """Charging sink for mask-identity checks (no simulated hardware)."""

    def visit_conjunct_batch(self, operation, outcomes, site=0, key=None):
        pass


_COLUMNS = ("c0", "c1", "c2")

_values = st.one_of(st.integers(min_value=-50, max_value=50), st.none())


def _comparison(column, op, value):
    return Comparison(op, ColumnRef(column), Const(value))


_conjuncts = st.one_of(
    st.builds(_comparison, st.sampled_from(_COLUMNS),
              st.sampled_from(list(ComparisonOp)),
              st.integers(min_value=-50, max_value=50)),
    st.builds(lambda c, lo, width, il, ih: Between(
        ColumnRef(c), Const(lo), Const(lo + width), include_low=il,
        include_high=ih),
        st.sampled_from(_COLUMNS), st.integers(min_value=-50, max_value=50),
        st.integers(min_value=0, max_value=60), st.booleans(), st.booleans()),
    st.builds(lambda c, op, v: Not(_comparison(c, op, v)),
              st.sampled_from(_COLUMNS), st.sampled_from(list(ComparisonOp)),
              st.integers(min_value=-50, max_value=50)),
)


@settings(max_examples=60, deadline=None)
@given(conjuncts=st.lists(_conjuncts, min_size=2, max_size=4),
       rows=st.lists(st.tuples(_values, _values, _values),
                     min_size=0, max_size=40),
       mode=st.sampled_from(("static", "greedy", "epsilon")),
       warm_batches=st.integers(min_value=0, max_value=2))
def test_any_policy_mask_identical_to_static_evaluation(conjuncts, rows, mode,
                                                        warm_batches):
    predicate = And(tuple(conjuncts))
    columns = {name: [row[i] for row in rows]
               for i, name in enumerate(_COLUMNS)}
    count = len(rows)
    reference = predicate.evaluate_batch(columns, count)
    manager = AdaptiveExecution(mode)
    ctx = _NullCtx()
    # Warm the statistics first so learned orders are exercised too.
    for _ in range(warm_batches):
        manager.evaluate_batch(ctx, predicate, columns, count)
    mask = manager.evaluate_batch(ctx, predicate, columns, count)
    assert [bool(m) for m in mask] == [bool(r) for r in reference]


# ---------------------------------------------------------------------------
# Policy behaviour
# ---------------------------------------------------------------------------
def test_flatten_conjuncts_handles_nested_ands():
    a = Comparison(ComparisonOp.LT, ColumnRef("x"), Const(1))
    b = Comparison(ComparisonOp.GT, ColumnRef("y"), Const(2))
    c = Not(Comparison(ComparisonOp.EQ, ColumnRef("z"), Const(3)))
    nested = And((And((a, b)), c))
    assert flatten_conjuncts(nested) == (a, b, c)
    assert flatten_conjuncts(a) == (a,)
    manager = AdaptiveExecution("static")
    assert manager.applies(nested)
    assert not manager.applies(a)
    assert not manager.applies(None)


def test_greedy_rank_orders_by_selectivity_per_cost():
    stats = RuntimeStatsCollector()
    stats.observe_batch("wide", 100, 90)     # selectivity 0.9
    stats.observe_batch("coin", 100, 50)     # selectivity 0.5
    stats.observe_batch("narrow", 100, 5)    # selectivity 0.05
    policy = GreedyRankPolicy()
    keys = ("wide", "coin", "narrow")
    assert policy.order(keys, (1, 1, 1), stats) == (2, 1, 0)
    # A higher evaluation cost demotes an otherwise-selective conjunct.
    assert policy.order(keys, (1, 1, 20), stats) == (1, 0, 2)
    # Unobserved conjuncts assume selectivity 0.5 (tie broken stably).
    fresh = RuntimeStatsCollector()
    assert policy.order(keys, (1, 1, 1), fresh) == (0, 1, 2)
    assert StaticPolicy().order(keys, (1, 1, 1), stats) == (0, 1, 2)


def test_epsilon_policy_is_deterministic():
    stats = RuntimeStatsCollector()
    stats.observe_batch("a", 100, 90)
    stats.observe_batch("b", 100, 10)
    keys, costs = ("a", "b"), (1, 1)

    first = EpsilonGreedyPolicy(epsilon=0.3)
    sequence = [first.order(keys, costs, stats) for _ in range(64)]
    second = EpsilonGreedyPolicy(epsilon=0.3)
    assert [second.order(keys, costs, stats) for _ in range(64)] == sequence
    # Exploration actually happens, and greedy order dominates.
    assert sequence.count((1, 0)) > len(sequence) // 2
    assert (0, 1) in sequence

    with pytest.raises(ValueError):
        EpsilonGreedyPolicy(epsilon=1.5)


def test_conjunct_key_is_stable_across_equal_expressions():
    a = Comparison(ComparisonOp.LT, ColumnRef("x"), Const(1))
    b = Comparison(ComparisonOp.LT, ColumnRef("x"), Const(1))
    assert a is not b and conjunct_key(a) == conjunct_key(b)


# ---------------------------------------------------------------------------
# None semantics of the expression layer (ordering safety)
# ---------------------------------------------------------------------------
def test_null_comparisons_are_never_satisfied():
    row = {"x": None, "y": 5}
    for op in ComparisonOp:
        assert Comparison(op, ColumnRef("x"), Const(3)).evaluate(row) is False
    assert Between(ColumnRef("x"), Const(0), Const(10)).evaluate(row) is False
    assert Between(ColumnRef("y"), Const(None), Const(10)).evaluate(row) is False
    # Batch paths agree with the row path.
    columns = {"x": [None, 1, 7], "y": [5, None, 2]}
    predicate = Between(ColumnRef("x"), Const(0), Const(10))
    assert predicate.evaluate_batch(columns, 3) == [False, True, True]
    comparison = Comparison(ComparisonOp.GT, ColumnRef("y"), Const(1))
    assert comparison.evaluate_batch(columns, 3) == [True, False, True]


# ---------------------------------------------------------------------------
# The payoff: greedy ordering beats static on the skewed workload
# ---------------------------------------------------------------------------
def test_greedy_reduces_mispredictions_and_cycles_on_skewed_workload():
    workload = MicroWorkload(MicroWorkloadConfig(scale=1.0 / 2000.0,
                                                 minimum_r_rows=600))
    query = workload.skewed_conjunct_selection()
    outcomes = {}
    for mode in ("off", "static", "greedy"):
        db = workload.build(include_s=False)
        session = Session(db, SYSTEM_B, os_interference=None,
                          engine="vectorized", adaptivity=mode)
        result = session.execute(query, warmup_runs=0)
        outcomes[mode] = result
        session.close()
    assert (outcomes["static"].rows == outcomes["greedy"].rows
            == outcomes["off"].rows)
    expected = workload.expected_skewed_rows()
    count = sum(1 for _ in workload.generate_r_rows())  # sanity anchor
    assert count == 600 and 0 < expected < count
    static, greedy = outcomes["static"], outcomes["greedy"]
    assert (greedy.counters.get("BR_MISS_PRED_RETIRED")
            < static.counters.get("BR_MISS_PRED_RETIRED"))
    assert (greedy.counters.get("CPU_CLK_UNHALTED")
            < static.counters.get("CPU_CLK_UNHALTED"))
    assert greedy.breakdown.components["TB"] < static.breakdown.components["TB"]
