"""Differential harness for the data-plane kernel backends.

The kernels package (:mod:`repro.execution.kernels`) promises that backend
choice is invisible: same rows, same row order, same column order, and
byte-identical simulated counts.  This suite enforces the promise at two
levels:

* **Kernel-level** (Hypothesis): every kernel contract -- predicate masks,
  compaction, selection, gathers, bucket hashing, spill partitioning,
  aggregate folds -- is driven with adversarial vectors (``None`` values,
  mixed types, NaN, magnitudes past 2**53, duplicate keys, empty and
  size-1 vectors) and the ``array`` backend's outputs are compared against
  the pure-Python oracle element for element.  Gathers must additionally
  preserve object *identity* (the array backend moves PyObject pointers,
  never converts values).
* **Plan-level**: every planner-producible plan shape is executed under
  ``kernel_backend="python"`` and ``"array"`` on identically seeded
  databases -- including the spill path at finite memory budgets and the
  adaptive conjunct-reordering path -- asserting identical rows (order
  included), identical event counters and identical cache/TLB hit+miss
  counts.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database, Session
from repro.execution import ExecutionContext, execute_plan
from repro.execution.kernels import (ARRAY_KERNELS, PYTHON_KERNELS, key_hash,
                                     resolve_kernels, spill_partition_of)
from repro.hardware import SimulatedProcessor
from repro.query import (ExecutionConfig, JoinQuery, Planner, SelectionQuery,
                         avg, count_star, range_predicate)
from repro.query.expressions import (AggregateState, And, ComparisonOp,
                                     count_star as _count_star)
from repro.query.planner import DefaultPolicy
from repro.query.plans import (IndexPointLookupPlan, IndexRangeScanPlan,
                               SeqScanPlan)
from repro.storage.schema import ColumnType
from repro.systems import SYSTEM_B

def array_kernels():
    return resolve_kernels("array")


# ---------------------------------------------------------------------------
# Kernel-level differentials (Hypothesis)
# ---------------------------------------------------------------------------
#: Values a column vector can plausibly carry, tilted toward the edges the
#: array backend guards: None, bools, huge ints (past 2**53 and 2**63),
#: hash(-1) == -2, NaN/inf floats, floats at the exactness boundary.
scalar_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([-1, -2, 2**53, -(2**53), 2**53 - 1, 2**61 - 2,
                     2**61 - 1, 2**63 - 1, -(2**63), 2**64, -(2**64) - 7]),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.sampled_from([0.5, -0.5, 9007199254740993.0, float(2**60)]),
    st.text(max_size=3),
)

vectors = st.lists(scalar_values, max_size=40)
int_vectors = st.lists(
    st.one_of(st.integers(min_value=-10**6, max_value=10**6),
              st.sampled_from([2**53 - 1, 2**53, -(2**53), 2**62, -(2**63)]),
              st.booleans()),
    max_size=40)
masks = st.lists(st.booleans(), max_size=40)
ops = st.sampled_from(list(ComparisonOp))


@settings(max_examples=150, deadline=None)
@given(op=ops, vector=vectors, constant=scalar_values)
def test_compare_const_matches_oracle(op, vector, constant):
    try:
        expected = PYTHON_KERNELS.compare_const(op, vector, constant)
    except TypeError:
        # Mixed-type comparisons raise in Python; the array backend is
        # allowed to raise too (same queries fail either way) -- but it
        # must not silently produce a mask.
        with pytest.raises(TypeError):
            array_kernels().compare_const(op, vector, constant)
        return
    got = array_kernels().compare_const(op, vector, constant)
    assert got == expected
    assert all(type(value) is bool for value in got)


@settings(max_examples=150, deadline=None)
@given(vector=vectors, low=scalar_values, high=scalar_values,
       include_low=st.booleans(), include_high=st.booleans())
def test_between_const_matches_oracle(vector, low, high, include_low,
                                      include_high):
    if low is None or high is None:
        return  # Between short-circuits None bounds before the kernel call
    try:
        expected = PYTHON_KERNELS.between_const(vector, low, high,
                                                include_low, include_high)
    except TypeError:
        with pytest.raises(TypeError):
            array_kernels().between_const(vector, low, high,
                                          include_low, include_high)
        return
    got = array_kernels().between_const(vector, low, high,
                                        include_low, include_high)
    assert got == expected
    assert all(type(value) is bool for value in got)


@settings(max_examples=100, deadline=None)
@given(mask=masks)
def test_mask_negation_matches_oracle(mask):
    ak = array_kernels()
    assert ak.not_mask(mask) == PYTHON_KERNELS.not_mask(mask)


@settings(max_examples=100, deadline=None)
@given(mask=masks)
def test_compact_matches_oracle(mask):
    expected = PYTHON_KERNELS.compact(mask)
    got = array_kernels().compact(mask)
    assert got == expected
    assert all(type(position) is int for position in got)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), vector=vectors)
def test_gather_matches_oracle_and_preserves_identity(data, vector):
    if vector:
        positions = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(vector) - 1), max_size=60))
    else:
        positions = []
    expected = PYTHON_KERNELS.gather(vector, positions)
    got = array_kernels().gather(vector, positions)
    assert len(got) == len(expected)
    # Object identity, not just equality: the array backend must move
    # pointers, never coerce values to numpy scalars.
    assert all(a is b for a, b in zip(got, expected))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), outcomes=masks)
def test_select_matches_oracle(data, outcomes):
    positions = data.draw(st.lists(st.integers(min_value=0, max_value=10**6),
                                   min_size=len(outcomes),
                                   max_size=len(outcomes)))
    expected = PYTHON_KERNELS.select(positions, outcomes)
    got = array_kernels().select(positions, outcomes)
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(keys=vectors, buckets=st.integers(min_value=1, max_value=2**40))
def test_bucket_indices_match_python_hash(keys, buckets):
    expected = [key_hash(key) % buckets for key in keys]
    assert PYTHON_KERNELS.bucket_indices(keys, buckets) == expected
    assert array_kernels().bucket_indices(keys, buckets) == expected


@settings(max_examples=150, deadline=None)
@given(keys=vectors, level=st.integers(min_value=0, max_value=4),
       count=st.integers(min_value=1, max_value=64))
def test_spill_partitions_match_scalar_finalizer(keys, level, count):
    expected = [spill_partition_of(key, level, count) for key in keys]
    assert PYTHON_KERNELS.spill_partitions(keys, level, count) == expected
    assert array_kernels().spill_partitions(keys, level, count) == expected


def _state_fields(state: AggregateState):
    return (state.count, state.total, state.minimum, state.maximum)


def _assert_states_identical(left: AggregateState, right: AggregateState):
    # bool minima/maxima normalize to their int value: the oracle keeps the
    # original object (False), the array backend the extracted int (0).
    # They are `==`-identical everywhere results are rendered or compared.
    def norm(value):
        return int(value) if isinstance(value, bool) else value

    lf = tuple(norm(v) for v in _state_fields(left))
    rf = tuple(norm(v) for v in _state_fields(right))
    for a, b in zip(lf, rf):
        if isinstance(a, float) and isinstance(b, float) \
                and math.isnan(a) and math.isnan(b):
            continue
        assert a == b and type(a) is type(b), (lf, rf)


@settings(max_examples=150, deadline=None)
@given(chunks=st.lists(int_vectors, max_size=4))
def test_fold_matches_sequential_update(chunks):
    agg = avg("x")
    oracle, fast = AggregateState(agg), AggregateState(agg)
    ak = array_kernels()
    for chunk in chunks:
        PYTHON_KERNELS.fold(oracle, chunk)
        ak.fold(fast, chunk)
        _assert_states_identical(oracle, fast)


@settings(max_examples=80, deadline=None)
@given(chunks=st.lists(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=True),
    st.integers(min_value=-2**60, max_value=2**60),
    st.none()), max_size=20), max_size=4))
def test_fold_mixed_and_float_chunks_match(chunks):
    """Float/mixed/None chunks route through the oracle fallback -- the
    result must still be identical to a pure sequential fold."""
    agg = avg("x")
    oracle, fast = AggregateState(agg), AggregateState(agg)
    ak = array_kernels()
    for chunk in chunks:
        try:
            PYTHON_KERNELS.fold(oracle, chunk)
        except TypeError:
            with pytest.raises(TypeError):
                ak.fold(fast, chunk)
            return
        ak.fold(fast, chunk)
        _assert_states_identical(oracle, fast)


@settings(max_examples=80, deadline=None)
@given(counts=st.lists(st.integers(min_value=0, max_value=10**6), max_size=6))
def test_fold_count_matches_sequential_update(counts):
    agg = _count_star()
    oracle, fast = AggregateState(agg), AggregateState(agg)
    ak = array_kernels()
    for count in counts:
        PYTHON_KERNELS.fold_count(oracle, count)
        ak.fold_count(fast, count)
        _assert_states_identical(oracle, fast)


def test_empty_and_single_row_vectors():
    ak = array_kernels()
    assert ak.compare_const(ComparisonOp.LT, [], 3) == []
    assert ak.compare_const(ComparisonOp.LT, [None], 3) == [False]
    assert ak.compact([]) == []
    assert ak.compact([True]) == [0]
    assert ak.gather([], []) == []
    assert ak.bucket_indices([], 7) == []
    assert ak.spill_partitions([], 1, 3) == []


# ---------------------------------------------------------------------------
# Plan-level differentials: every plan shape, python vs array
# ---------------------------------------------------------------------------
R_ROWS = 300
S_ROWS = 36
A2_DOMAIN = 50


def build_database(layout_style: str = "nsm", seed: int = 17) -> Database:
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


JOIN_QUERY = JoinQuery(left_table="R", right_table="S", left_column="a2",
                       right_column="a1", aggregates=(avg("R.a3"), count_star()))


def plan_shapes(catalog):
    """One plan per planner-producible shape (scan/index/joins/aggregate)."""
    shapes = {
        "seq_scan": SeqScanPlan(table="R", predicate=range_predicate("a2", 10, 30)),
        "seq_scan_bare": SeqScanPlan(table="R", predicate=None),
        "index_range": IndexRangeScanPlan(table="R", column="a2", low=10, high=30),
        "index_range_residual": IndexRangeScanPlan(
            table="R", column="a2", low=5, high=45,
            residual_predicate=range_predicate("a3", 1000, 9000)),
        "point_lookup": IndexPointLookupPlan(table="S", column="a1", value=7),
        "aggregate": Planner(catalog, SYSTEM_B).plan(SelectionQuery(
            table="R", aggregates=(avg("a3"), count_star()),
            predicate=range_predicate("a2", 5, 25))),
    }
    for algorithm in ("hash", "nested_loop", "index_nested_loop"):
        shapes[f"join_{algorithm}"] = Planner(
            catalog, DefaultPolicy(join_algorithm=algorithm)).plan(JOIN_QUERY)
    return shapes


def context_state(ctx: ExecutionContext):
    caches = ctx.processor.caches
    return (ctx.processor.counters.as_dict(),
            {level.name: level.stats.as_dict()
             for level in (caches.l1d, caches.l1i, caches.l2)},
            ctx.processor.dtlb.stats.as_dict(),
            dict(ctx.op_invocations),
            dict(ctx.io_stats))


def run_with_backend(db: Database, plan, backend: str, batch_size: int = 64):
    ctx = ExecutionContext(
        SimulatedProcessor(), SYSTEM_B, db.address_space,
        execution=ExecutionConfig(engine="vectorized", batch_size=batch_size,
                                  kernel_backend=backend))
    assert ctx.kernels.name == backend
    rows = execute_plan(plan, db.catalog, ctx)
    return rows, context_state(ctx)


@pytest.mark.parametrize("layout_style", ["nsm", "pax"])
@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_every_plan_shape_is_backend_identical(layout_style, batch_size):
    # A fresh (identically seeded) database per run: executing a plan warms
    # simulator-visible state, so reusing one db would measure run order,
    # not the backend.
    shape_names = list(plan_shapes(build_database(layout_style).catalog))
    for name in shape_names:
        outputs = {}
        for backend in ("python", "array"):
            db = build_database(layout_style)
            plan = plan_shapes(db.catalog)[name]
            outputs[backend] = run_with_backend(db, plan, backend, batch_size)
        rows_py, state_py = outputs["python"]
        rows_ar, state_ar = outputs["array"]
        assert rows_ar == rows_py, name
        assert [tuple(r) for r in rows_ar] == [tuple(r) for r in rows_py], \
            f"{name}: column order diverged"
        assert state_ar == state_py, f"{name}: simulated counts diverged"


def session_result(backend: str, layout: str = "nsm", **session_kwargs):
    db = build_database(layout)
    with Session(db, SYSTEM_B, os_interference=None, engine="vectorized",
                 kernel_backend=backend, **session_kwargs) as session:
        query = JOIN_QUERY
        result = session.execute(query)
        return (result.rows, result.counters.as_dict(),
                dict(session.context.io_stats))


@pytest.mark.parametrize("budget_fraction", [None, 2.0, 1.0, 0.4])
def test_spill_path_is_backend_identical(budget_fraction):
    budget = None
    if budget_fraction is not None:
        budget = int(S_ROWS * 100 * budget_fraction)
    python = session_result("python", memory_budget_bytes=budget)
    array = session_result("array", memory_budget_bytes=budget)
    assert array == python


@pytest.mark.parametrize("adaptivity", ["off", "greedy"])
def test_adaptive_conjuncts_are_backend_identical(adaptivity):
    query = SelectionQuery(
        table="R", aggregates=(count_star(),),
        predicate=And((range_predicate("a2", 5, 40),
                       range_predicate("a3", 500, 9_000),
                       range_predicate("a1", 2, 280))))
    results = {}
    for backend in ("python", "array"):
        db = build_database()
        with Session(db, SYSTEM_B, os_interference=None, engine="vectorized",
                     adaptivity=adaptivity, kernel_backend=backend) as session:
            result = session.execute(query)
            results[backend] = (result.rows, result.counters.as_dict())
    assert results["array"] == results["python"]


# ---------------------------------------------------------------------------
# Backend resolution
# ---------------------------------------------------------------------------
def test_resolve_kernels_explicit_backends():
    assert resolve_kernels("python") is PYTHON_KERNELS
    assert resolve_kernels("array") is ARRAY_KERNELS
    assert resolve_kernels("auto") is ARRAY_KERNELS
    with pytest.raises(ValueError):
        resolve_kernels("simd")


def test_execution_config_validates_backend():
    with pytest.raises(ValueError):
        ExecutionConfig(kernel_backend="simd")
    assert ExecutionConfig(kernel_backend="array").kernel_backend == "array"
