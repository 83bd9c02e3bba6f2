"""Tests for expressions, logical/physical plans and the planner."""

import pytest

from repro.query import (Aggregate, AggregateFunction, AggregateState, And, Between,
                         ColumnRef, Comparison, ComparisonOp, Const, ExpressionError,
                         JoinQuery, Not, Or, Planner, PlannerError, SelectionQuery,
                         UpdateQuery, avg, count_star, describe_plan, equals,
                         extract_range_bounds, range_predicate)
from repro.query.planner import DefaultPolicy
from repro.query.plans import (AggregatePlan, HashJoinPlan, IndexNestedLoopJoinPlan,
                               IndexPointLookupPlan, IndexRangeScanPlan,
                               NestedLoopJoinPlan, SeqScanPlan, UpdatePlan)
from repro.storage import Catalog, microbenchmark_schema
from repro.systems import SYSTEM_A, SYSTEM_B


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
class TestExpressions:
    def test_range_predicate_matches_paper_qualification(self):
        predicate = range_predicate("a2", 10, 20)
        assert predicate.evaluate({"a2": 15}) is True
        assert predicate.evaluate({"a2": 10}) is False      # strict lower bound
        assert predicate.evaluate({"a2": 20}) is False      # strict upper bound
        assert predicate.comparison_count() == 2
        assert predicate.columns() == {"a2"}

    def test_range_predicate_inclusive_bounds(self):
        predicate = range_predicate("a2", 10, 20, include_low=True, include_high=True)
        assert predicate.evaluate({"a2": 10}) and predicate.evaluate({"a2": 20})

    def test_comparisons(self):
        row = {"x": 5}
        assert Comparison(ComparisonOp.LT, ColumnRef("x"), Const(6)).evaluate(row)
        assert Comparison(ComparisonOp.GE, ColumnRef("x"), Const(5)).evaluate(row)
        assert not Comparison(ComparisonOp.NE, ColumnRef("x"), Const(5)).evaluate(row)

    def test_qualified_column_lookup_falls_back_to_short_name(self):
        assert ColumnRef("R.a3").evaluate({"a3": 7}) == 7
        with pytest.raises(ExpressionError):
            ColumnRef("R.a9").evaluate({"a3": 7})

    def test_and_or_not(self):
        t = Comparison(ComparisonOp.GT, ColumnRef("x"), Const(0))
        f = Comparison(ComparisonOp.LT, ColumnRef("x"), Const(0))
        row = {"x": 1}
        assert And((t, t)).evaluate(row)
        assert not And((t, f)).evaluate(row)
        assert Or((f, t)).evaluate(row)
        assert Not(f).evaluate(row)
        assert And((t, f)).comparison_count() == 2

    def test_equals_helper(self):
        assert equals("k", 3).evaluate({"k": 3})


class TestAggregates:
    def test_avg_sum_count_min_max(self):
        values = [1, 2, 3, 4]
        for function, expected in ((AggregateFunction.AVG, 2.5),
                                   (AggregateFunction.SUM, 10.0),
                                   (AggregateFunction.MIN, 1),
                                   (AggregateFunction.MAX, 4)):
            state = AggregateState(Aggregate(function, "x"))
            for value in values:
                state.update(value)
            assert state.result() == expected
        count = AggregateState(count_star())
        for value in values:
            count.update(1)
        assert count.result() == 4

    def test_empty_avg_is_none_and_empty_count_is_zero(self):
        assert AggregateState(avg("x")).result() is None
        assert AggregateState(count_star()).result() == 0

    def test_non_count_aggregate_requires_column(self):
        with pytest.raises(ExpressionError):
            Aggregate(AggregateFunction.AVG, None)

    def test_label(self):
        assert avg("a3").label == "avg(a3)"
        assert count_star().label == "count(*)"


# ---------------------------------------------------------------------------
# Bounds extraction
# ---------------------------------------------------------------------------
class TestRangeBoundExtraction:
    def test_between_extraction(self):
        bounds = extract_range_bounds(range_predicate("a2", 5, 9), "a2")
        assert (bounds.low, bounds.high) == (5, 9)
        assert bounds.include_low is False and bounds.include_high is False

    def test_single_comparison_extraction(self):
        bounds = extract_range_bounds(Comparison(ComparisonOp.LE, ColumnRef("a2"), Const(7)), "a2")
        assert bounds.low is None and bounds.high == 7 and bounds.include_high

    def test_wrong_column_returns_none(self):
        assert extract_range_bounds(range_predicate("a1", 5, 9), "a2") is None

    def test_unsupported_shape_returns_none(self):
        pred = And((range_predicate("a2", 1, 5), equals("a1", 3)))
        assert extract_range_bounds(pred, "a2") is None


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------
def build_catalog(rows=800, with_index=True) -> Catalog:
    catalog = Catalog()
    schema, _ = microbenchmark_schema(100, "R")
    table = catalog.create_table("R", schema, record_size=100)
    table.insert_many((i, i % 100 + 1, i) for i in range(rows))
    schema_s, _ = microbenchmark_schema(100, "S")
    s = catalog.create_table("S", schema_s, record_size=100)
    s.insert_many((i, i, i) for i in range(1, 41))
    if with_index:
        catalog.create_index("R", "a2")
    return catalog


class TestPlanner:
    def selection(self, lo=0, hi=11, prefer_index="a2") -> SelectionQuery:
        return SelectionQuery(table="R", aggregates=(avg("a3"),),
                              predicate=range_predicate("a2", lo, hi),
                              prefer_index_on=prefer_index)

    def test_selective_query_uses_index_when_policy_allows(self):
        planner = Planner(build_catalog(), SYSTEM_B)
        plan = planner.plan(self.selection())
        assert isinstance(plan, AggregatePlan)
        assert isinstance(plan.input, IndexRangeScanPlan)
        assert plan.input.low == 0 and plan.input.high == 11

    def test_system_a_policy_never_uses_index(self):
        planner = Planner(build_catalog(), SYSTEM_A)
        plan = planner.plan(self.selection())
        assert isinstance(plan.input, SeqScanPlan)

    def test_unselective_query_falls_back_to_seq_scan(self):
        planner = Planner(build_catalog(), SYSTEM_B)
        plan = planner.plan(self.selection(lo=0, hi=100))
        assert isinstance(plan.input, SeqScanPlan)

    def test_missing_index_falls_back_to_seq_scan(self):
        planner = Planner(build_catalog(with_index=False), SYSTEM_B)
        plan = planner.plan(self.selection())
        assert isinstance(plan.input, SeqScanPlan)

    def test_no_preference_means_seq_scan(self):
        planner = Planner(build_catalog(), SYSTEM_B)
        plan = planner.plan(self.selection(prefer_index=None))
        assert isinstance(plan.input, SeqScanPlan)

    def test_selectivity_estimate_roughly_uniform(self):
        planner = Planner(build_catalog(), SYSTEM_B)
        bounds = extract_range_bounds(range_predicate("a2", 0, 11), "a2")
        estimate = planner.estimate_selectivity("R", bounds)
        assert 0.02 <= estimate <= 0.2

    def test_hash_join_builds_on_smaller_input(self):
        planner = Planner(build_catalog(), SYSTEM_B)
        query = JoinQuery(left_table="R", right_table="S", left_column="a2",
                          right_column="a1", aggregates=(avg("R.a3"),))
        plan = planner.plan(query)
        assert isinstance(plan.input, HashJoinPlan)
        assert plan.input.build.table == "S"
        assert plan.input.probe.table == "R"

    def test_nested_loop_policy(self):
        policy = DefaultPolicy(join_algorithm="nested_loop")
        planner = Planner(build_catalog(), policy)
        query = JoinQuery(left_table="R", right_table="S", left_column="a2",
                          right_column="a1", aggregates=(avg("R.a3"),))
        plan = planner.plan(query)
        assert isinstance(plan.input, NestedLoopJoinPlan)
        # Smaller relation goes on the inner side.
        assert plan.input.inner.table == "S"

    def test_index_nested_loop_policy_requires_inner_index(self):
        catalog = build_catalog()
        catalog.create_index("S", "a1", unique=True)
        policy = DefaultPolicy(join_algorithm="index_nested_loop")
        planner = Planner(catalog, policy)
        query = JoinQuery(left_table="R", right_table="S", left_column="a2",
                          right_column="a1", aggregates=(avg("R.a3"),))
        plan = planner.plan(query)
        assert isinstance(plan.input, IndexNestedLoopJoinPlan)

    def test_update_plan_requires_index(self):
        catalog = build_catalog(with_index=False)
        planner = Planner(catalog, SYSTEM_B)
        with pytest.raises(PlannerError):
            planner.plan(UpdateQuery(table="R", key_column="a2", key_value=3,
                                     set_column="a3", set_value=0))
        catalog.create_index("R", "a2")
        plan = planner.plan(UpdateQuery(table="R", key_column="a2", key_value=3,
                                        set_column="a3", set_value=0))
        assert isinstance(plan, UpdatePlan)
        assert isinstance(plan.lookup, IndexPointLookupPlan)

    def test_describe_plan_mentions_access_paths(self):
        planner = Planner(build_catalog(), SYSTEM_B)
        text = describe_plan(planner.plan(self.selection()))
        assert "Aggregate" in text and "IndexRangeScan" in text
        query = JoinQuery(left_table="R", right_table="S", left_column="a2",
                          right_column="a1", aggregates=(avg("R.a3"),))
        assert "HashJoin" in describe_plan(planner.plan(query))

    def test_selection_query_requires_aggregates(self):
        with pytest.raises(ValueError):
            SelectionQuery(table="R", aggregates=())


# ---------------------------------------------------------------------------
# Selectivity estimation walks pages, decodes only the sample
# ---------------------------------------------------------------------------
def full_walk_estimate(table, bounds) -> float:
    """The estimator as it was first written: a ``ScanEntry`` per live
    record, every ``step``-th one decoded.  Kept here as the reference."""
    column = bounds.column.split(".")[-1]
    step = max(table.heap.record_count // 1000, 1)
    values = [table.layout.decode_column(bytes(entry.page.record_view(entry.slot)), column)
              for position, entry in enumerate(table.heap.scan())
              if position % step == 0]
    if not values:
        return 1.0
    lo_data, hi_data = min(values), max(values)
    span = float(hi_data - lo_data) or 1.0
    low = bounds.low if bounds.low is not None else lo_data
    high = bounds.high if bounds.high is not None else hi_data
    return max(min(max(float(high) - float(low), 0.0) / span, 1.0), 0.0)


def estimator_cases():
    pytest.importorskip("numpy")
    from repro.workloads import MicroWorkload, MicroWorkloadConfig
    from repro.workloads.tpcc import TPCCWorkload
    from repro.workloads.tpcd import TPCDConfig, TPCDWorkload
    micro = MicroWorkload(MicroWorkloadConfig(scale=1.0 / 400.0))
    yield "R-nsm", micro.build(layout_style="nsm"), "R", "a2", micro.config.a2_domain
    yield "R-pax", micro.build(layout_style="pax"), "R", "a2", micro.config.a2_domain
    tpcd = TPCDWorkload(TPCDConfig(lineitem_rows=5000, orders_rows=500,
                                   part_rows=200, supplier_rows=50))
    yield "lineitem", tpcd.build(), "lineitem", "l_shipdate", 2400
    tpcc = TPCCWorkload()
    yield "customer", tpcc.build(), "customer", "c_balance", 50_000


def test_page_walk_estimate_equals_full_walk_estimate():
    import random
    rng = random.Random(14)
    for label, database, table_name, column, domain in estimator_cases():
        table = database.table(table_name)
        assert table.heap.record_count // 1000 > 1, f"{label}: sampling not exercised"
        # Holes in the slot sequence: the sample is over *live* records.
        for rid in [entry.rid for entry in table.heap.scan()][5:400:7]:
            table.delete(rid)
        planner = Planner(database.catalog, SYSTEM_B)
        for _ in range(20):
            low, high = sorted(rng.sample(range(-10, domain + 10), 2))
            bounds = extract_range_bounds(range_predicate(column, low, high), column)
            if rng.random() < 0.2:
                bounds = extract_range_bounds(   # one-sided: the sample's own max
                    Comparison(ComparisonOp.GT, ColumnRef(column), Const(low)), column)
            assert (planner.estimate_selectivity(table_name, bounds)
                    == full_walk_estimate(table, bounds)), label


def test_page_walk_estimate_makes_the_same_buffer_pool_requests():
    for label, database, table_name, column, domain in estimator_cases():
        table = database.table(table_name)
        pool = table.heap.buffer_pool
        bounds = extract_range_bounds(range_predicate(column, 1, domain // 20), column)

        def stats_delta(work):
            before = pool.stats.as_dict()
            work()
            after = pool.stats.as_dict()
            return {key: after[key] - before[key] for key in after if key != "hit_rate"}

        walked = stats_delta(lambda: full_walk_estimate(table, bounds))
        planner = Planner(database.catalog, SYSTEM_B)
        estimated = stats_delta(lambda: planner.estimate_selectivity(table_name, bounds))
        assert estimated == walked, label
        assert estimated["fetches"] == table.heap.page_count
