"""Property tests for the columnar batch dataflow and the span-charging
fast path.

Covers the edge cases the differential harness's fixed seeds might miss:
empty batches and empty tables, batch size 1, ``None`` values inside
vectors, duplicate column names across join sides (dict-merge semantics),
column order stability through gather/merge/materialization, and -- via
hypothesis -- the count-identity of the bulk strided/span hardware charging
against per-address probing for arbitrary geometries (including elements
that straddle cache lines and pages).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import Database
from repro.execution import (ColumnBatch, ExecutionContext, OperatorError,
                             execute_plan, merge_gather)
from repro.hardware import SimulatedProcessor
from repro.query import (ExecutionConfig, Planner, SelectionQuery, avg,
                         count_star, range_predicate)
from repro.query.plans import HashJoinPlan, SeqScanPlan
from repro.storage.schema import ColumnType
from repro.systems import SYSTEM_B

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# ColumnBatch invariants
# ---------------------------------------------------------------------------
class TestColumnBatch:
    def test_empty_batch_materializes_no_rows(self):
        assert ColumnBatch({}, 0).to_rows() == []
        assert ColumnBatch({"a": []}).to_rows() == []

    def test_projection_free_batch_keeps_row_count(self):
        batch = ColumnBatch({}, 5)
        assert len(batch) == 5
        assert batch.to_rows() == [{}] * 5

    def test_length_mismatch_rejected(self):
        with pytest.raises(OperatorError):
            ColumnBatch({"a": [1, 2], "b": [1]})

    def test_none_values_survive_gather_and_materialization(self):
        batch = ColumnBatch({"a": [1, None, 3], "b": [None, None, "x"]})
        assert batch.to_rows() == [{"a": 1, "b": None},
                                   {"a": None, "b": None},
                                   {"a": 3, "b": "x"}]
        gathered = batch.gather([2, 0])
        assert gathered.to_rows() == [{"a": 3, "b": "x"}, {"a": 1, "b": None}]

    def test_column_order_is_stable_through_gather(self):
        batch = ColumnBatch({"z": [1, 2], "a": [3, 4], "m": [5, 6]})
        assert batch.column_names() == ("z", "a", "m")
        assert batch.gather([1]).column_names() == ("z", "a", "m")
        assert list(batch.to_rows()[0]) == ["z", "a", "m"]

    def test_vector_accepts_qualified_names(self):
        batch = ColumnBatch({"a2": [7]})
        assert batch.vector("R.a2") == [7]
        with pytest.raises(OperatorError):
            batch.vector("R.missing")

    def test_batch_of_one_row(self):
        batch = ColumnBatch({"a": [42]})
        assert len(batch) == 1
        assert batch.row(0) == {"a": 42}
        assert batch.to_rows() == [{"a": 42}]


class TestMergeGather:
    def test_duplicate_columns_take_right_values_at_left_position(self):
        """dict(build_row); update(probe_row): shared names keep the left
        (build) position but carry the right (probe) value."""
        left = ColumnBatch({"a": [1, 2], "shared": [10, 20]})
        right = ColumnBatch({"shared": [77, 88], "b": [5, 6]})
        merged = merge_gather(left, [0, 1], right, [1, 0])
        assert merged.column_names() == ("a", "shared", "b")
        assert merged.to_rows() == [{"a": 1, "shared": 88, "b": 6},
                                    {"a": 2, "shared": 77, "b": 5}]

    def test_mismatched_position_lists_rejected(self):
        with pytest.raises(OperatorError):
            merge_gather(ColumnBatch({"a": [1]}), [0],
                         ColumnBatch({"b": [2]}), [0, 0])


# ---------------------------------------------------------------------------
# Engine-level edge cases
# ---------------------------------------------------------------------------
def build_db(rows, layout_style="nsm"):
    db = Database()
    columns = [("a1", ColumnType.INT32), ("a2", ColumnType.INT32),
               ("a3", ColumnType.INT32)]
    db.create_table("R", columns, record_size=60, layout_style=layout_style)
    db.create_table("S", columns, record_size=60, layout_style=layout_style)
    db.load("R", rows)
    db.load("S", rows[: max(len(rows) // 4, 1)] if rows else [])
    return db


def run_engines(db, plan, batch_size=256):
    results = {}
    for engine in ("tuple", "vectorized"):
        ctx = ExecutionContext(
            SimulatedProcessor(), SYSTEM_B, db.address_space,
            execution=ExecutionConfig(engine=engine, batch_size=batch_size))
        results[engine] = execute_plan(plan, db.catalog, ctx)
    assert results["vectorized"] == results["tuple"]
    return results["tuple"]


@pytest.mark.parametrize("layout_style", ("nsm", "pax"))
def test_empty_table_yields_empty_batches_everywhere(layout_style):
    db = build_db([], layout_style=layout_style)
    plan = Planner(db.catalog, SYSTEM_B).plan(SelectionQuery(
        table="R", aggregates=(avg("a3"), count_star()),
        predicate=range_predicate("a2", 1, 50)))
    rows = run_engines(db, plan)
    assert rows == [{"avg(a3)": None, "count(*)": 0}]


def test_duplicate_output_columns_across_join_sides_match_tuple_engine():
    """Both sides of the join carry a column named ``a3``; the probe side's
    value must win, exactly as the tuple engine's dict merge decides."""
    rows = [(i + 1, (i % 7) + 1, i * 11) for i in range(50)]
    db = build_db(rows)
    plan = HashJoinPlan(probe=SeqScanPlan(table="R", predicate=None),
                        build=SeqScanPlan(table="S", predicate=None),
                        probe_column="a2", build_column="a1")
    # Request the ambiguous unqualified column from both sides.
    from repro.execution import build_join
    out = {}
    for engine in ("tuple", "vectorized"):
        ctx = ExecutionContext(SimulatedProcessor(), SYSTEM_B, db.address_space,
                               execution=ExecutionConfig(engine=engine))
        operator = build_join(plan, db.catalog, ctx, output_columns=["a3"])
        out[engine] = list(operator.rows())
    assert out["tuple"] == out["vectorized"]
    assert out["tuple"], "the join must produce rows for this check to bite"
    # a3 appears once per row and carries the probe (R) side's value, which
    # is a multiple of 11 by construction.
    for row in out["tuple"]:
        assert row["a3"] % 11 == 0


@SETTINGS
@given(row_count=st.integers(min_value=0, max_value=60),
       batch_size=st.sampled_from([1, 2, 3, 17, 256]),
       layout_style=st.sampled_from(["nsm", "pax"]),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_columnar_engine_matches_tuple_engine_on_random_tables(
        row_count, batch_size, layout_style, seed):
    rng = random.Random(seed)
    rows = [(i + 1, rng.randint(1, 10), rng.randint(0, 99))
            for i in range(row_count)]
    db = build_db(rows, layout_style=layout_style)
    plan = Planner(db.catalog, SYSTEM_B).plan(SelectionQuery(
        table="R", aggregates=(avg("a3"), count_star()),
        predicate=range_predicate("a2", 2, 9)))
    run_engines(db, plan, batch_size=batch_size)


# ---------------------------------------------------------------------------
# Span charging == per-address charging for arbitrary geometries
# ---------------------------------------------------------------------------
def full_counts(processor):
    snap = processor.caches.snapshot()
    return (snap.l1d, snap.l1i, snap.l2, processor.dtlb.stats.as_dict(),
            processor.itlb.stats.as_dict(), dict(processor.counters.user))


@SETTINGS
@given(base=st.integers(min_value=0, max_value=1 << 22),
       stride=st.integers(min_value=1, max_value=512),
       count=st.integers(min_value=0, max_value=300),
       width=st.integers(min_value=1, max_value=64),
       prelude=st.lists(st.integers(min_value=0, max_value=1 << 22),
                        max_size=20))
def test_data_read_strided_is_count_identical_to_scalar_loop(
        base, stride, count, width, prelude):
    """Bulk strided reads must leave every cache, TLB and counter in exactly
    the state a per-address loop produces -- including elements that cross
    line and page boundaries, and starting from a warmed, arbitrary state."""
    bulk = SimulatedProcessor()
    scalar = SimulatedProcessor()
    for processor in (bulk, scalar):
        for addr in prelude:
            processor.data_read(addr, 4)
    bulk.data_read_strided(base, stride, count, width)
    for position in range(count):
        scalar.data_read(base + position * stride, width)
    assert full_counts(bulk) == full_counts(scalar)


@SETTINGS
@given(base=st.integers(min_value=0, max_value=1 << 22),
       refs=st.integers(min_value=1, max_value=200),
       width=st.integers(min_value=1, max_value=64))
def test_data_read_span_matches_per_element_loads(base, refs, width):
    """A contiguous span of ``refs`` ``width``-byte elements charges exactly
    like ``refs`` individual element loads."""
    bulk = SimulatedProcessor()
    scalar = SimulatedProcessor()
    bulk.data_read_span(base, refs * width, refs=refs)
    for position in range(refs):
        scalar.data_read(base + position * width, width)
    assert full_counts(bulk) == full_counts(scalar)
