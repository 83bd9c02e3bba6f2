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
  databases at batch sizes 1 and 7, asserting identical rows (order
  included), identical event counters and identical cache/TLB hit+miss
  counts.  The default batch size -- with the spill path at finite memory
  budgets, the adaptive paths and shared-scan recordings -- is the
  ``python_kernels`` oracle's: ``tests/test_reference_oracle.py`` runs the
  ``--scale ci`` artifact with every context on the Python kernels.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.execution import ColumnBatch, ExecutionContext, execute_plan
from repro.execution.kernels import (ARRAY_KERNELS, PYTHON_KERNELS, key_hash,
                                     resolve_kernels, spill_partition_of)
from repro.hardware import SimulatedProcessor
from repro.query import (ExecutionConfig, JoinQuery, Planner, SelectionQuery,
                         avg, count_star, range_predicate)
from repro.query.expressions import (AggregateState, ComparisonOp,
                                     count_star as _count_star)
from repro.query.planner import DefaultPolicy
from repro.query.plans import (IndexPointLookupPlan, IndexRangeScanPlan,
                               SeqScanPlan)
from repro.storage.schema import VECTOR_DTYPES, ColumnType, vector_of
from repro.systems import SYSTEM_B

def array_kernels():
    return resolve_kernels("array")


# ---------------------------------------------------------------------------
# Kernel-level differentials (Hypothesis)
# ---------------------------------------------------------------------------
#: A typed vector of every ``ColumnType`` -- the engine's vectors as
#: ``decode_values`` makes them -- tilted toward the edges: the integer
#: types' extremes, INT64 past 2**53 and 2**61 - 1 (CPython's hash
#: modulus), hash(-1) == -2; NaN, +-inf and -0.0; CHAR text with NULs and
#: non-ASCII characters.  ``object`` vectors of mixed values (``None``,
#: bools, huge ints, text) stand for a batch built from plain sequences.
_INT32 = st.one_of(st.integers(-2 ** 31, 2 ** 31 - 1),
                   st.sampled_from([-2 ** 31, 2 ** 31 - 1, -1, -2, 0]))
_INT64 = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                   st.sampled_from([-2 ** 63, 2 ** 63 - 1, 2 ** 53, 2 ** 53 + 1,
                                    -(2 ** 53) - 1, 2 ** 61 - 2, 2 ** 61 - 1,
                                    2 ** 61, -(2 ** 61) + 1, -1, -2]))
_FLOAT64 = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 0.0, math.nan, math.inf, -math.inf, 0.5, 2.0 ** 53, 2.0 ** 53 + 2]))
_CHAR = st.text(alphabet="ab\x00é日", max_size=4)
_MIXED = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                   st.sampled_from([2 ** 53 + 1, 2 ** 64, -(2 ** 64) - 7]),
                   st.floats(width=32), st.text(max_size=3))
_ELEMENTS = {ColumnType.INT32: _INT32, ColumnType.INT64: _INT64,
             ColumnType.FLOAT64: _FLOAT64, ColumnType.CHAR: _CHAR,
             None: _MIXED}


def _vector(kind, values) -> np.ndarray:
    dtype = VECTOR_DTYPES[kind] if kind is not None else object
    return vector_of(values, dtype)


@st.composite
def typed_vectors(draw, kinds=tuple(_ELEMENTS), max_size=40):
    kind = draw(st.sampled_from(kinds))
    return _vector(kind, draw(st.lists(_ELEMENTS[kind], max_size=max_size)))


#: Constants a predicate can carry: ``None``, bools, ints inside and past
#: every integer range and 2**53, floats (NaN, +-inf, -0.0, past 2**53) and
#: mistyped text.
constants = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10),
    st.sampled_from([2 ** 31 - 1, 2 ** 31, -(2 ** 31) - 1, 2 ** 53, 2 ** 53 + 1,
                     -(2 ** 53) - 1, 2 ** 63 - 1, 2 ** 63, -(2 ** 63) - 1, 2 ** 64]),
    st.floats(), st.sampled_from([-0.0, math.nan, math.inf, 0.5, 2.0 ** 53 + 2,
                                  9007199254740993.0, 1e300]),
    st.sampled_from(["x", "", "é"]))
masks = st.lists(st.booleans(), max_size=40).map(lambda v: np.array(v, dtype=bool))
ops = st.sampled_from(list(ComparisonOp))


def outcome(call):
    """A kernel call's result as dtype and the Python values (and their
    types) ``to_rows`` would yield, or its error's type and message."""
    try:
        result = call()
    except Exception as error:
        return "raised", type(error), str(error)
    assert isinstance(result, np.ndarray)
    rows = ColumnBatch({"v": result}).to_rows()
    return "value", result.dtype, repr([row["v"] for row in rows])


def assert_backends_agree(method, *args):
    expected = outcome(lambda: getattr(PYTHON_KERNELS, method)(*args))
    assert outcome(lambda: getattr(ARRAY_KERNELS, method)(*args)) == expected
    return expected


@settings(max_examples=400, deadline=None)
@given(op=ops, vector=typed_vectors(), constant=constants)
# Where float64 rounds: an INT64 value against a float, a float against an
# int past 2**53, an int past an INT32 vector's range.
@example(ComparisonOp.GT, np.array([2 ** 53 + 1], "<i8"), 2.0 ** 53)
@example(ComparisonOp.EQ, np.array([2.0 ** 53], "<f8"), 2 ** 53 + 1)
@example(ComparisonOp.LT, np.array([5], "<i4"), 2 ** 40)
def test_compare_const_matches_oracle(op, vector, constant):
    expected = assert_backends_agree("compare_const", op, vector, constant)
    if expected[0] == "value":
        assert expected[1] == bool


@settings(max_examples=400, deadline=None)
@given(vector=typed_vectors(), low=constants, high=constants,
       include_low=st.booleans(), include_high=st.booleans())
def test_between_const_matches_oracle(vector, low, high, include_low,
                                      include_high):
    assert_backends_agree("between_const", vector, low, high, include_low,
                          include_high)


@settings(max_examples=100, deadline=None)
@given(mask=masks)
def test_mask_negation_matches_oracle(mask):
    assert_backends_agree("not_mask", mask)


@settings(max_examples=100, deadline=None)
@given(mask=masks)
def test_compact_matches_oracle(mask):
    assert assert_backends_agree("compact", mask)[1] == np.intp


@settings(max_examples=100, deadline=None)
@given(data=st.data(), count=st.integers(0, 40))
def test_scatter_matches_oracle(data, count):
    drawn = data.draw(st.sets(st.integers(0, count - 1))) if count else ()
    positions = np.array(sorted(drawn), dtype=np.intp)
    assert_backends_agree("scatter", positions, count)
    assert PYTHON_KERNELS.compact(ARRAY_KERNELS.scatter(positions, count)
                                  ).tolist() == positions.tolist()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), vector=typed_vectors())
def test_gather_matches_oracle_and_preserves_identity(data, vector):
    drawn = (data.draw(st.lists(st.integers(0, len(vector) - 1), max_size=60))
             if len(vector) else [])
    positions = np.array(drawn, dtype=np.intp)
    expected = assert_backends_agree("gather", vector, positions)
    assert expected[1] == vector.dtype
    if vector.dtype == object:
        # An object vector's values move as they are: same objects.
        got = ARRAY_KERNELS.gather(vector, positions)
        assert all(value is vector[position]
                   for value, position in zip(got, positions.tolist()))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), outcomes=masks)
def test_select_matches_oracle(data, outcomes):
    positions = np.array(data.draw(st.lists(
        st.integers(0, 10 ** 6), min_size=len(outcomes),
        max_size=len(outcomes))), dtype=np.intp)
    assert assert_backends_agree("select", positions, outcomes)[1] == np.intp


@settings(max_examples=300, deadline=None)
@given(keys=typed_vectors(),
       buckets=st.integers(min_value=1, max_value=2**40))
def test_bucket_indices_match_python_hash(keys, buckets):
    expected = [key_hash(key) % buckets for key in keys.tolist()]
    for kernels in (PYTHON_KERNELS, ARRAY_KERNELS):
        got = kernels.bucket_indices(keys, buckets)
        assert got.dtype == np.int64 and got.tolist() == expected


@settings(max_examples=300, deadline=None)
@given(keys=typed_vectors(),
       level=st.integers(min_value=0, max_value=4),
       count=st.integers(min_value=1, max_value=64))
def test_spill_partitions_match_scalar_finalizer(keys, level, count):
    expected = [spill_partition_of(key, level, count) for key in keys.tolist()]
    for kernels in (PYTHON_KERNELS, ARRAY_KERNELS):
        got = kernels.spill_partitions(keys, level, count)
        assert got.dtype == np.int64 and got.tolist() == expected


def _state_fields(state: AggregateState):
    return repr((state.count, state.total, state.minimum, state.maximum))


def _fold_outcome(kernels, chunks):
    state = AggregateState(avg("x"))
    for chunk in chunks:
        try:
            kernels.fold(state, chunk)
        except Exception as error:
            return "raised", type(error), str(error)
    return _state_fields(state)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(tuple(_ELEMENTS)))
def test_fold_matches_sequential_update(data, kind):
    """One column's chunks, of one dtype (or mixed ``object`` values)."""
    chunks = [_vector(kind, chunk) for chunk in data.draw(st.lists(
        st.lists(_ELEMENTS[kind], max_size=20), max_size=4))]
    assert _fold_outcome(ARRAY_KERNELS, chunks) == \
        _fold_outcome(PYTHON_KERNELS, chunks)


@settings(max_examples=100, deadline=None)
@given(chunks=st.lists(st.lists(st.integers(-2 ** 31, 2 ** 31 - 1),
                                min_size=1, max_size=300), max_size=6),
       start=st.sampled_from([0.0, 0.1, -1 / 3, -(2.0 ** 52), 2.0 ** 53 - 10]))
def test_fold_exactness_bound_sees_the_accumulator(chunks, start):
    """INT32 chunks folded into a total that is fractional or near 2**53:
    the exactness bound must see the accumulator, not just the vector.
    (Float and mixed ``object`` chunks are ``test_fold_matches_sequential_update``'s.)"""
    vectors = [np.array(chunk, dtype="<i4") for chunk in chunks]
    states = []
    for kernels in (PYTHON_KERNELS, ARRAY_KERNELS):
        state = AggregateState(avg("x"))
        state.total = start
        for vector in vectors:
            kernels.fold(state, vector)
        states.append(_state_fields(state))
    assert states[0] == states[1]


@settings(max_examples=80, deadline=None)
@given(counts=st.lists(st.integers(min_value=0, max_value=10**6), max_size=6))
def test_fold_count_matches_sequential_update(counts):
    agg = _count_star()
    oracle, fast = AggregateState(agg), AggregateState(agg)
    for count in counts:
        PYTHON_KERNELS.fold_count(oracle, count)
        ARRAY_KERNELS.fold_count(fast, count)
        assert _state_fields(oracle) == _state_fields(fast)


def test_empty_and_single_row_vectors():
    ak = array_kernels()
    empty = np.empty(0, dtype="<i4")
    assert ak.compare_const(ComparisonOp.LT, empty, 3).tolist() == []
    assert ak.compare_const(ComparisonOp.LT, empty, "x").tolist() == []
    assert ak.compare_const(ComparisonOp.LT, np.array([1], "<i4"), None
                            ).tolist() == [False]
    assert ak.compact(np.empty(0, dtype=bool)).tolist() == []
    assert ak.compact(np.array([True])).tolist() == [0]
    assert ak.gather(empty, np.empty(0, dtype=np.intp)).dtype == empty.dtype
    assert ak.bucket_indices(empty, 7).tolist() == []
    assert ak.spill_partitions(empty, 1, 3).tolist() == []


def test_plain_sequences_take_the_oracle_loop():
    """Given lists rather than typed vectors, the oracle runs its loops on
    them and returns lists (a predicate evaluated over plain columns)."""
    kernels = PYTHON_KERNELS
    assert kernels.compare_const(ComparisonOp.GT, [1, None, 3], 1) == \
        [False, False, True]
    assert kernels.compact([False, True]) == [1]
    assert kernels.gather(["a", None], [1, 0]) == [None, "a"]
    assert kernels.scatter([2], 3) == [False, False, True]
    assert kernels.bucket_indices([-1, "a"], 5) == [
        key_hash(-1) % 5, key_hash("a") % 5]


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
@pytest.mark.parametrize("batch_size", [1, 7])
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
