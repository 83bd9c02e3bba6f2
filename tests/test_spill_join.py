"""Differential harness for the memory-budgeted (spilling) hash join.

The grace/hybrid spilling path must be invisible at the result level: for
*every* ``memory_budget_bytes`` -- from "everything fits" down to budgets
smaller than a single build row -- the vectorized hash join must produce
exactly the rows the unbudgeted in-memory join produces, in the same
probe-major order, with the same dict-merge column order.  These tests pin
that contract deterministically (a ladder of budgets straddling the build
side's footprint), adversarially (Hypothesis drawing random budgets, batch
sizes and layouts) and across the other engine axes (tuple engine, charge
modes).

Also covered here: the hash-area resize when the observed build
cardinality exceeds the planner's estimate (satellite of the same PR), the
``partition_count`` policy decision, and the config-level validation of
the budget knob.

The spill file holds column-run blocks; ``TestSpillBlocksMatchPickledOracle``
runs the same joins through the pickled slotted-page file it replaced
(``oracle.PickledSpillFile``) and requires identical rows, counters, I/O and
pool statistics, and ``TestRobustnessLadder`` measures the positional
demotion rule on a skewed build without judging it.
"""

from __future__ import annotations

import importlib.util
import random
from contextlib import nullcontext
from itertools import count, takewhile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.execution.vectorized as vectorized_mod
from oracle import PerAddressContext, per_address_sessions, pickled_spill_files
from reference_machine import reference_machine
from repro.adaptive.policy import (MAX_PARTITIONS, AdaptivePolicy,
                                   GreedyRankPolicy, plan_partition_count)
from repro.adaptive import AdaptiveExecution
from repro.adaptive.stats import RuntimeStatsCollector
from repro.engine import Database, Session
from repro.execution import ExecutionContext, build_scan, execute_plan
from repro.execution.kernels import spill_partition_of
from repro.execution.vectorized import VecHashJoinOperator
from repro.hardware import SimulatedProcessor
from repro.query import ExecutionConfig, JoinQuery, Planner, count_star
from repro.query.planner import DefaultPolicy
from repro.query.plans import HashJoinPlan
from repro.storage.buffer_pool import BufferPool
from repro.storage.schema import ColumnType
from repro.systems import SYSTEM_B

from test_vectorized_equivalence import hardware_counts

R_ROWS = 108
S_ROWS = 12
KEY_DOMAIN = 18          # R.a2 in [1, 18], S.a1 unique in [1, 12]: ~2/3 match

JOIN_QUERY = JoinQuery(left_table="R", right_table="S",
                       left_column="a2", right_column="a1",
                       aggregates=(count_star(),))

#: Build side footprint: S_ROWS rows at record_size 100.
BUILD_BYTES = S_ROWS * 100


def build_database(layout_style: str = "nsm", seed: int = 7,
                   s_rows: int = S_ROWS, s_key=None,
                   r_rows: int = R_ROWS) -> Database:
    """``s_key`` gives every S row that one join key (an unsplittable build
    side) instead of the unique ``1..s_rows``; a callable maps the row
    index to its key (duplicate-heavy or skewed builds)."""
    db = Database()
    columns = [("a1", ColumnType.INT32), ("a2", ColumnType.INT32),
               ("a3", ColumnType.INT32)]
    db.create_table("R", columns, record_size=100, layout_style=layout_style)
    db.create_table("S", columns, record_size=100, layout_style=layout_style)
    rng = random.Random(seed)
    db.load("R", [(i + 1, rng.randint(1, KEY_DOMAIN), rng.randint(0, 9_999))
                  for i in range(r_rows)])
    key_of = s_key if callable(s_key) else (lambda i: s_key or i + 1)
    db.load("S", [(key_of(i), rng.randint(1, KEY_DOMAIN),
                   rng.randint(0, 9_999)) for i in range(s_rows)])
    return db


def join_plan_for(db: Database) -> HashJoinPlan:
    plan = Planner(db.catalog, DefaultPolicy(join_algorithm="hash")).plan(JOIN_QUERY)
    assert isinstance(plan.input, HashJoinPlan)
    return plan.input


def run_join(layout: str, budget, batch_size: int = 64,
             context=ExecutionContext, seed: int = 7, db=None):
    """One spilling-join execution on a fresh seeded database (``context``
    is the production context or the per-address oracle, which runs on the
    reference machine)."""
    db = db or build_database(layout, seed=seed)
    with reference_machine() if context is PerAddressContext else nullcontext():
        processor = SimulatedProcessor()
    ctx = context(processor, SYSTEM_B, db.address_space,
                  execution=ExecutionConfig(engine="vectorized",
                                            batch_size=batch_size,
                                            memory_budget_bytes=budget))
    rows = execute_plan(join_plan_for(db), db.catalog, ctx)
    return rows, ctx


@pytest.fixture(scope="module")
def baselines():
    """Unbudgeted reference rows per layout (the identity target)."""
    return {layout: run_join(layout, None)[0] for layout in ("nsm", "pax")}


# Budgets straddling the build footprint: everything-resident, exactly the
# footprint, fractions that force 2..many partitions, and degenerate
# budgets below one row / one page.
BUDGET_LADDER = (10 * BUILD_BYTES, 2 * BUILD_BYTES, BUILD_BYTES,
                 BUILD_BYTES // 2, BUILD_BYTES // 4, 350, 96)


class TestBudgetSweepIdentity:
    @pytest.mark.parametrize("layout", ["nsm", "pax"])
    @pytest.mark.parametrize("budget", BUDGET_LADDER)
    def test_rows_identical_at_every_budget(self, baselines, layout, budget):
        rows, ctx = run_join(layout, budget)
        assert rows == baselines[layout]
        # Same dict-merge column order, not just equal mappings.
        if rows:
            assert list(rows[0]) == list(baselines[layout][0])

    @pytest.mark.parametrize("layout", ["nsm", "pax"])
    def test_tight_budgets_actually_spill(self, layout):
        _, ctx = run_join(layout, BUILD_BYTES // 2)
        assert ctx.io_stats["page_reads"] > 0
        assert ctx.io_stats["page_writes"] > 0

    @pytest.mark.parametrize("layout", ["nsm", "pax"])
    def test_resident_budgets_do_no_io(self, layout):
        _, ctx = run_join(layout, 10 * BUILD_BYTES)
        assert ctx.io_stats["page_reads"] == 0
        assert ctx.io_stats["page_writes"] == 0

    def test_spilled_join_matches_tuple_engine(self, baselines):
        db = build_database("nsm")
        ctx = ExecutionContext(SimulatedProcessor(), SYSTEM_B, db.address_space)
        tuple_rows = execute_plan(join_plan_for(db), db.catalog, ctx)
        spilled_rows, _ = run_join("nsm", BUILD_BYTES // 3)
        assert spilled_rows == tuple_rows == baselines["nsm"]


class TestBudgetOverruns:
    """A partition no re-partitioning can shrink is built over budget at
    the recursion cap -- and counted, not silent."""

    @pytest.mark.parametrize("layout", ["nsm", "pax"])
    def test_all_equal_build_keys_report_the_overrun(self, layout):
        in_memory, ctx = run_join(layout, None,
                                  db=build_database(layout, s_key=7))
        assert in_memory and ctx.io_stats["budget_overruns"] == 0
        rows, ctx = run_join(layout, BUILD_BYTES // 2,
                             db=build_database(layout, s_key=7))
        assert rows == in_memory
        assert ctx.io_stats["budget_overruns"] >= 1

    @pytest.mark.parametrize("layout", ["nsm", "pax"])
    def test_half_budget_shape_reports_none(self, layout):
        _, ctx = run_join(layout, BUILD_BYTES // 2)
        assert ctx.io_stats["page_writes"] > 0
        assert ctx.io_stats["budget_overruns"] == 0


class TestChargeModeIdentity:
    """Span charging must stay a pure simulator optimisation under spilling."""

    @pytest.mark.parametrize("budget", [BUILD_BYTES // 2, 350])
    def test_span_and_per_address_agree(self, budget):
        outcomes = {}
        for mode, context in (("per_address", PerAddressContext),
                              ("span", ExecutionContext)):
            rows, ctx = run_join("pax", budget, context=context)
            processor = ctx.processor
            processor.finalize()
            snap = processor.caches.snapshot()
            counts = {
                "l1d": snap.l1d, "l2": snap.l2,
                "dtlb": processor.dtlb.stats.as_dict(),
                "user": dict(processor.counters.user),
                "sup": dict(processor.counters.sup),
            }
            outcomes[mode] = (rows, counts, ctx.io_stats.copy())
        rows_span, counts_span, io_span = outcomes["span"]
        rows_ref, counts_ref, io_ref = outcomes["per_address"]
        assert rows_span == rows_ref
        assert counts_span == counts_ref
        assert io_span == io_ref


# ---------------------------------------------------------------------------
# Column-run blocks vs the pickled slotted-page file they replaced
# ---------------------------------------------------------------------------
#: A build side larger than one spill page, so "one page" is a real budget
#: (and a probe side larger still, so the planner keeps building on S).
BIG_S_ROWS = 180
BIG_R_ROWS = 400
BIG_BUILD_BYTES = BIG_S_ROWS * 100
PAGE = 8192

BUILDS = {
    "unique": None,
    # Three keys of 60 rows (6,000 bytes) each: a level-0 partition that
    # holds two of them is re-partitioned at half the footprint, and below
    # one key's footprint the recursion runs into its cap.
    "duplicate-heavy": lambda i: 1 + i % 3,
}


@pytest.fixture
def spill_pools(monkeypatch):
    """Every buffer pool a budgeted join creates while the test runs."""
    pools = []

    def recording(*args, **kwargs):
        pools.append(BufferPool(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(vectorized_mod, "BufferPool", recording)
    return pools


def measure_join(layout, budget, batch_size, s_key, pools,
                 charging=nullcontext):
    """Everything one budgeted join produces and charges."""
    del pools[:]
    db = build_database(layout, s_rows=BIG_S_ROWS, s_key=s_key,
                        r_rows=BIG_R_ROWS)
    with charging():
        session = Session(db, SYSTEM_B, os_interference=None,
                          engine="vectorized", batch_size=batch_size,
                          memory_budget_bytes=budget)
    ctx = session.context
    rows = execute_plan(join_plan_for(db), db.catalog, ctx)
    counters = ctx.processor.finalize().as_dict()
    outcome = {"rows": rows, "cycles": counters["CPU_CLK_UNHALTED"],
               "counters": counters, "hardware": hardware_counts(ctx.processor),
               "io": dict(ctx.io_stats),
               "pools": [pool.stats.as_dict() for pool in pools]}
    session.close()
    return outcome


class TestSpillBlocksMatchPickledOracle:
    @pytest.mark.parametrize("charging", [nullcontext, per_address_sessions],
                             ids=["production", "per-address"])
    @pytest.mark.parametrize("build", sorted(BUILDS))
    @pytest.mark.parametrize("batch_size", [7, 256])
    @pytest.mark.parametrize("budget", [
        None, 2 * BIG_BUILD_BYTES, BIG_BUILD_BYTES, BIG_BUILD_BYTES // 2,
        BIG_BUILD_BYTES // 4, PAGE], ids=["inf", "2x", "1x", "0.5x", "0.25x",
                                          "one-page"])
    @pytest.mark.parametrize("layout", ["nsm", "pax"])
    def test_blocks_and_pickled_pages_agree(self, spill_pools, layout, budget,
                                            batch_size, build, charging):
        blocks = measure_join(layout, budget, batch_size, BUILDS[build],
                              spill_pools, charging)
        with pickled_spill_files():
            pickled = measure_join(layout, budget, batch_size, BUILDS[build],
                                   spill_pools, charging)
        for key in blocks:   # rows and their order first: the clearest diff
            assert blocks[key] == pickled[key], f"{key} diverged"
        if budget is not None and budget < BIG_BUILD_BYTES:
            assert blocks["pools"] and blocks["pools"][0]["page_writes"] > 0

    def test_the_duplicate_heavy_build_recurses_to_the_cap(self, spill_pools):
        """The ladder above is only a re-partitioning test if it re-partitions."""
        outcome = measure_join("nsm", BIG_BUILD_BYTES // 4, 256,
                               BUILDS["duplicate-heavy"], spill_pools)
        assert outcome["io"]["budget_overruns"] >= 1


class TestSpilledRowFootprint:
    """The one designed difference from the pickled file: a spilled row is
    charged at ``record_bytes`` whatever its projection holds -- the pickled
    file charged a row whose pickle outgrew the slot at the pickle's size."""

    ROW_BYTES = 8     # < the pickle of a (position, (a1, a2, a3)) record

    def _run(self, budget):
        class Recording(ExecutionContext):
            writes = None

            def write_address(self, address, size=4):
                self.writes.append((address, size))
                super().write_address(address, size)

        db = build_database("nsm", s_rows=BIG_S_ROWS, r_rows=BIG_R_ROWS)
        ctx = Recording(SimulatedProcessor(), SYSTEM_B, db.address_space,
                        execution=ExecutionConfig(engine="vectorized",
                                                  batch_size=64,
                                                  memory_budget_bytes=budget))
        ctx.writes = []
        plan = join_plan_for(db)
        columns = ["a1", "a2", "a3"]
        op = VecHashJoinOperator(
            build_scan(plan.probe, db.catalog, ctx, columns),
            build_scan(plan.build, db.catalog, ctx, columns),
            plan.probe_column, plan.build_column, ctx,
            build_row_estimate=BIG_S_ROWS, probe_row_estimate=BIG_R_ROWS,
            batch_size=64, build_row_bytes=self.ROW_BYTES)
        return list(op.rows()), ctx, getattr(op, "spill_pool", None)

    def test_wide_projection_spills_at_record_bytes(self):
        reference, _, pool = self._run(None)
        assert reference and pool is None
        for budget in (BIG_S_ROWS * self.ROW_BYTES // 2, 64, self.ROW_BYTES):
            rows, ctx, pool = self._run(budget)
            assert rows == reference
            pages = {pool.peek_page(number).base_address
                     for number in takewhile(pool.page_exists, count())}
            sizes = {size for address, size in ctx.writes
                     if address & ~(PAGE - 1) in pages}
            assert sizes == {self.ROW_BYTES}
            assert ctx.io_stats["page_writes"] > 0


class TestRobustnessLadder:
    """``examples/spill_join.py``'s budget x skew grid: a measurement of the
    positional demotion rule, not a judgement of it -- the rows must not
    change and the numbers must be reproducible; what they should be is
    the victim-policy question ROADMAP item 8 leaves open."""

    @pytest.fixture(scope="class")
    def example(self):
        path = Path(__file__).resolve().parent.parent / "examples" / "spill_join.py"
        spec = importlib.util.spec_from_file_location("spill_join_example", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_the_skewed_build_ends_on_its_smallest_partition(self, example):
        keys = example.ladder_build_keys("skewed", 180, 5, random.Random(1))
        sizes = [0] * 5
        for key in keys:
            sizes[spill_partition_of(key, 0, 5)] += 1
        assert sizes == sorted(sizes, reverse=True) and sizes[-1] < sizes[0]

    def test_rows_hold_and_the_numbers_repeat(self, example):
        # ladder_cell itself asserts row identity with the in-memory join.
        first = example.robustness_ladder(s_rows=180, r_rows=300)
        assert first == example.robustness_ladder(s_rows=180, r_rows=300)
        assert {cell["skew"] for cell in first} == {"uniform", "skewed"}
        assert any(cell["page_writes"] for cell in first)
        assert all(0 <= cell["max_depth"] <= 4 for cell in first)


@given(budget=st.integers(min_value=64, max_value=4 * BUILD_BYTES),
       layout=st.sampled_from(["nsm", "pax"]),
       batch_size=st.sampled_from([1, 7, 64]))
@settings(max_examples=15, deadline=None)
def test_hypothesis_random_budgets_are_invisible(budget, layout, batch_size):
    reference, _ = run_join(layout, None, batch_size=64)
    rows, _ = run_join(layout, budget, batch_size=batch_size)
    assert rows == reference


class TestSessionBudget:
    def test_session_threads_budget_to_context(self):
        db = build_database("nsm")
        session = Session(db, SYSTEM_B, os_interference=None,
                          engine="vectorized",
                          memory_budget_bytes=BUILD_BYTES // 2)
        result = session.execute(JOIN_QUERY)
        assert session.context.execution is session.execution
        assert session.execution.memory_budget_bytes == BUILD_BYTES // 2
        assert session.context.io_stats["page_reads"] > 0
        assert result.rows[0]["count(*)"] > 0


# ---------------------------------------------------------------------------
# Hash-area resize on build-estimate overflow
# ---------------------------------------------------------------------------
def _drain_columns(op):
    cols = {}
    order = None
    for batch in op.batches():
        if order is None:
            order = list(batch.columns)
        for name, vector in batch.columns.items():
            cols.setdefault(name, []).extend(vector)
    return order, cols


def _make_join_op(db, ctx, build_row_estimate, probe_row_estimate=R_ROWS):
    plan = join_plan_for(db)
    probe = build_scan(plan.probe, db.catalog, ctx, [plan.probe_column])
    build = build_scan(plan.build, db.catalog, ctx, [plan.build_column])
    return VecHashJoinOperator(probe, build, plan.probe_column,
                               plan.build_column, ctx,
                               build_row_estimate=build_row_estimate,
                               probe_row_estimate=probe_row_estimate,
                               batch_size=ctx.execution.batch_size,
                               build_row_bytes=100)


class _FlipOnSecondBuildBatch(AdaptivePolicy):
    """Policy stub: abandon the planner's sides once a build batch is in."""

    def flip_join(self, build_key, probe_key, probe_estimate,
                  seen_build_rows, stats):
        return seen_build_rows > 0


class TestHashAreaResize:
    """Observed build cardinality beyond the estimate doubles (and
    re-charges) the hash area instead of silently under-modelling it --
    for every hashed side: the planner's build side whether or not a
    join-side manager is attached, and the probe side after a flip."""

    S_BIG = 40   # build side larger than the deliberate estimate of 16

    def _run(self, estimate, budget=None, probe_estimate=R_ROWS,
             adaptivity="off", policy=None):
        db = build_database("nsm", s_rows=self.S_BIG)
        ctx = ExecutionContext(
            SimulatedProcessor(), SYSTEM_B, db.address_space,
            execution=ExecutionConfig(engine="vectorized", batch_size=32,
                                      memory_budget_bytes=budget,
                                      adaptivity=adaptivity,
                                      adaptive_joins=adaptivity != "off"))
        if adaptivity != "off":
            ctx.adaptive = AdaptiveExecution(adaptivity, join_sides=True)
            if policy is not None:
                ctx.adaptive.policy = policy
        op = _make_join_op(db, ctx, build_row_estimate=estimate,
                           probe_row_estimate=probe_estimate)
        order, cols = _drain_columns(op)
        return order, cols, ctx

    def test_underestimated_build_output_is_identical(self):
        order_small, cols_small, ctx_small = self._run(estimate=16)
        order_exact, cols_exact, ctx_exact = self._run(estimate=self.S_BIG)
        assert cols_small == cols_exact
        assert order_small == order_exact
        # The resize re-charged the rehash: strictly more build work.
        assert (ctx_small.op_invocations["hash_build"]
                > ctx_exact.op_invocations["hash_build"])

    def test_resize_under_memory_budget(self):
        budget = self.S_BIG * 100        # fully resident hybrid, tiny estimate
        order_small, cols_small, _ = self._run(estimate=16, budget=budget)
        order_exact, cols_exact, _ = self._run(estimate=self.S_BIG)
        assert cols_small == cols_exact
        assert order_small == order_exact

    def test_static_control_arm_resizes_exactly_like_off(self):
        """``adaptivity="static"`` + ``adaptive_joins`` never flips, so it
        must stay the cycle-identical control arm when the build side
        outgrows its estimate too (it used to skip the resize)."""
        order_off, cols_off, ctx_off = self._run(estimate=16)
        order_static, cols_static, ctx_static = self._run(
            estimate=16, adaptivity="static")
        order_exact, cols_exact, _ = self._run(estimate=self.S_BIG)
        assert cols_static == cols_off == cols_exact
        assert order_static == order_off == order_exact
        assert ctx_static.op_invocations == ctx_off.op_invocations
        assert (ctx_static.processor.finalize().get("CPU_CLK_UNHALTED")
                == ctx_off.processor.finalize().get("CPU_CLK_UNHALTED"))
        assert (hardware_counts(ctx_static.processor)
                == hardware_counts(ctx_off.processor))

    def test_flipped_join_resizes_the_probe_side_table(self):
        """A flip on the second build batch hashes the probe side instead;
        its area is sized by the probe estimate and must double past it."""
        order_exact, cols_exact, _ = self._run(estimate=self.S_BIG)
        order_small, cols_small, ctx_small = self._run(
            estimate=16, probe_estimate=16, adaptivity="static",
            policy=_FlipOnSecondBuildBatch())
        order_twin, cols_twin, ctx_twin = self._run(
            estimate=self.S_BIG, adaptivity="static",
            policy=_FlipOnSecondBuildBatch())
        assert cols_small == cols_twin == cols_exact
        assert order_small == order_twin == order_exact
        # Both runs flipped (the probe side was hashed, the rest of the
        # build side streamed) ...
        assert ctx_twin.op_invocations["hash_build"] > 1
        assert ctx_twin.op_invocations["hash_probe"] >= 2
        # ... and the under-estimated one re-charged its rehashes.
        assert (ctx_small.op_invocations["hash_build"]
                > ctx_twin.op_invocations["hash_build"])


# ---------------------------------------------------------------------------
# partition_count policy decision
# ---------------------------------------------------------------------------
class TestPartitionCountPolicy:
    def test_no_budget_means_one_partition(self):
        assert plan_partition_count(10_000, 100, None) == 1

    def test_fitting_footprint_stays_resident(self):
        # 10 rows * 100 bytes * 1.2 fudge = 1200 <= 10000
        assert plan_partition_count(10, 100, 10_000) == 1

    def test_fudge_boundary(self):
        # 11 * 100 * 1.2 = 1320 exactly
        assert plan_partition_count(11, 100, 1320) == 1
        assert plan_partition_count(11, 100, 1319) == 2

    def test_grace_fanout_is_ceiling_division(self):
        # 100 * 100 * 1.2 = 12000 -> ceil(12000 / 5000) = 3
        assert plan_partition_count(100, 100, 5_000) == 3

    def test_fanout_clamps_to_max(self):
        assert plan_partition_count(1_000_000, 100, 1) == MAX_PARTITIONS

    def test_static_policy_trusts_the_estimate(self):
        stats = RuntimeStatsCollector()
        stats.observe_cardinality("card:S", 10_000)   # ignored by static
        assert AdaptivePolicy().partition_count("card:S", 10, 100, 2_000,
                                                stats) == 1

    def test_greedy_policy_prefers_the_observation(self):
        stats = RuntimeStatsCollector()
        greedy = GreedyRankPolicy()
        # Cold: no observation yet, fall back to the estimate.
        assert greedy.partition_count("card:S", 10, 100, 2_000, stats) == 1
        # Warm: the observed build is 20x the estimate.
        stats.observe_cardinality("card:S", 200)
        assert (greedy.partition_count("card:S", 10, 100, 2_000, stats)
                == plan_partition_count(200, 100, 2_000) == 12)


# ---------------------------------------------------------------------------
# Config-level validation of the knob
# ---------------------------------------------------------------------------
class TestBudgetValidation:
    def test_budget_requires_the_vectorized_engine(self):
        with pytest.raises(ValueError, match="vectorized"):
            ExecutionConfig(engine="tuple", memory_budget_bytes=1_000)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ExecutionConfig(engine="vectorized", memory_budget_bytes=0)

    def test_none_budget_is_always_valid(self):
        assert ExecutionConfig(engine="tuple").memory_budget_bytes is None
