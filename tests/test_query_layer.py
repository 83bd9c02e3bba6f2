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
# Selectivity estimation reads the two ends of the index, never the heap
# ---------------------------------------------------------------------------
def planned_selections():
    """``(label, database, index-eligible selections)`` for everything the
    repository plans through an index: the micro ``IRS`` (measured and
    warm-up windows) at every selectivity-sweep point, the TPC-D suite and
    the statements of a seeded TPC-C stream, on NSM and PAX pages."""
    from repro.workloads import MicroWorkload, MicroWorkloadConfig
    from repro.workloads.sweeps import SELECTIVITY_POINTS
    from repro.workloads.tpcc import TPCCWorkload
    from repro.workloads.tpcd import TPCDConfig, TPCDWorkload
    micro = MicroWorkload(MicroWorkloadConfig(scale=1.0 / 400.0))
    tpcd = TPCDWorkload(TPCDConfig(lineitem_rows=5000, orders_rows=500,
                                   part_rows=200, supplier_rows=50))
    tpcc = TPCCWorkload()
    for layout in ("nsm", "pax"):
        database = micro.build(layout_style=layout)
        micro.create_selection_index(database)
        yield f"micro-{layout}", database, [
            micro.indexed_range_selection(selectivity, offset)
            for selectivity in SELECTIVITY_POINTS + (micro.config.selectivity,)
            for offset in (0.0, 1.0)]
        yield f"tpcd-{layout}", tpcd.build(layout_style=layout), tpcd.queries()
        yield f"tpcc-{layout}", tpcc.build(layout_style=layout), [
            statement for txn in tpcc.transactions(60, seed=11)
            for statement in txn.statements]


def index_eligible(database, query) -> bool:
    return (isinstance(query, SelectionQuery)
            and query.prefer_index_on is not None
            and database.table(query.table).index_on(query.prefer_index_on) is not None)


def test_index_decisions_equal_the_heap_walk_oracle():
    from oracle import heap_walk_estimate
    from repro.systems import ALL_SYSTEMS
    from repro.systems.vendors import oltp_variant
    policies = tuple(ALL_SYSTEMS) + (oltp_variant(SYSTEM_B),)
    for label, database, queries in planned_selections():
        queries = [query for query in queries if index_eligible(database, query)]
        assert queries, f"{label}: nothing index-eligible"
        tables = [database.table(name)
                  for name in sorted({query.table for query in queries})]
        assert all(table.heap.record_count // 1000 > 1 for table in tables), \
            f"{label}: the oracle's sampling is not exercised"

        def check(stage):
            bounds = [extract_range_bounds(query.predicate, query.prefer_index_on)
                      for query in queries]
            estimates = [heap_walk_estimate(database.table(query.table), bound)
                         for query, bound in zip(queries, bounds)]
            taken = 0
            for policy in policies:
                planner = Planner(database.catalog, policy)
                for query, estimate in zip(queries, estimates):
                    expected = (policy.uses_index_for_range_selection
                                and estimate <= policy.index_selectivity_threshold)
                    chosen = isinstance(planner.plan(query).input,
                                        IndexRangeScanPlan)
                    assert chosen == expected, (label, stage, policy.name, query)
                    taken += chosen
            return taken

        assert check("built"), f"{label}: no selection took the index"
        # Holes in the slot sequence: the extremes are over *live* records.
        for table in tables:
            for rid in [entry.rid for entry in table.heap.scan()][5:400:7]:
                table.delete(rid)
        check("after deletes")


def test_planning_a_selection_fetches_no_heap_page():
    for label, database, queries in planned_selections():
        planner = Planner(database.catalog, SYSTEM_B)
        pools = (database.catalog.heap_pool, database.catalog.index_pool)
        before = [pool.stats.as_dict() for pool in pools]
        planned = [planner.plan(query) for query in queries]
        assert any(isinstance(plan.input, IndexRangeScanPlan)
                   for plan in planned if isinstance(plan, AggregatePlan)), label
        assert [pool.stats.as_dict() for pool in pools] == before, label


class TestIndexStatistics:
    def bounds(self, low=0, high=11):
        return extract_range_bounds(range_predicate("a2", low, high), "a2")

    def test_estimate_uses_the_exact_extremes(self):
        planner = Planner(build_catalog(), SYSTEM_B)   # a2 in [1, 100]
        assert planner.estimate_selectivity("R", self.bounds(0, 11)) == 11 / 99
        one_sided = extract_range_bounds(
            Comparison(ComparisonOp.GT, ColumnRef("a2"), Const(90)), "a2")
        assert planner.estimate_selectivity("R", one_sided) == 10 / 99
        assert planner.estimate_selectivity("R", self.bounds(-50, 500)) == 1.0
        assert planner.estimate_selectivity("R", self.bounds(7, 3)) == 0.0

    def test_empty_table_and_emptied_index_estimate_one(self):
        catalog = build_catalog(rows=0)
        planner = Planner(catalog, SYSTEM_B)
        assert planner.estimate_selectivity("R", self.bounds()) == 1.0
        table = catalog.table("R")
        rids = [table.insert((i, i + 1, i)) for i in range(5)]
        assert planner.estimate_selectivity("R", self.bounds(0, 3)) == 3 / 4
        for rid in rids:
            table.delete(rid)
        assert planner.estimate_selectivity("R", self.bounds(0, 3)) == 1.0

    def test_single_valued_column_has_unit_span(self):
        catalog = build_catalog(rows=0)
        catalog.table("R").insert_many((i, 7, i) for i in range(4))
        planner = Planner(catalog, SYSTEM_B)
        assert planner.estimate_selectivity("R", self.bounds(6, 8)) == 1.0
        assert planner.estimate_selectivity("R", self.bounds(7, 7)) == 0.0

    def test_a_column_without_an_index_has_no_statistics(self):
        planner = Planner(build_catalog(with_index=False), SYSTEM_B)
        with pytest.raises(PlannerError, match="no statistics for R.a2"):
            planner.estimate_selectivity("R", self.bounds())
