"""Tests for the code layout, execution context, operators and executor."""

import pytest

from repro.execution import (CodeLayout, ExecutionContext, LINE_BYTES, build_plan,
                             execute_plan, execute_update)
from repro.execution.operators import OperatorError, row_value
from repro.hardware import SimulatedProcessor
from repro.query import (Planner, SelectionQuery, UpdateQuery, avg, count_star,
                         equals, range_predicate)
from repro.query.plans import (AggregatePlan, HashJoinPlan, IndexRangeScanPlan,
                               NestedLoopJoinPlan, SeqScanPlan)
from repro.storage import Catalog, microbenchmark_schema
from repro.systems import OPERATION_NAMES, SYSTEM_A, SYSTEM_B, SYSTEM_C


def make_catalog(rows=500) -> Catalog:
    catalog = Catalog()
    schema, _ = microbenchmark_schema(100, "R")
    table = catalog.create_table("R", schema, record_size=100)
    table.insert_many(*table.schema.transpose((i, i % 50 + 1, i * 2) for i in range(rows)))
    schema_s, _ = microbenchmark_schema(100, "S")
    s = catalog.create_table("S", schema_s, record_size=100)
    s.insert_many(*s.schema.transpose((i, i * 3, i) for i in range(1, 51)))
    catalog.create_index("R", "a2")
    catalog.create_index("S", "a1", unique=True)
    return catalog


def make_context(catalog, profile=SYSTEM_C) -> ExecutionContext:
    return ExecutionContext(SimulatedProcessor(), profile, catalog.address_space)


# ---------------------------------------------------------------------------
# Code layout
# ---------------------------------------------------------------------------
class TestCodeLayout:
    def test_every_operation_gets_a_segment_in_the_code_region(self):
        catalog = make_catalog(rows=10)
        layout = CodeLayout(SYSTEM_C, catalog.address_space)
        for operation in OPERATION_NAMES:
            segment = layout.segment(operation)
            assert len(segment.hot_lines) >= 1
            assert catalog.address_space.region_of(segment.base_address) == "code"
            assert all(addr % LINE_BYTES == 0 for addr in segment.hot_lines)

    def test_segments_do_not_overlap(self):
        catalog = make_catalog(rows=10)
        layout = CodeLayout(SYSTEM_C, catalog.address_space)
        lines = set()
        for operation in OPERATION_NAMES:
            segment_lines = set(layout.segment(operation).hot_lines)
            assert not (segment_lines & lines)
            lines |= segment_lines

    def test_hot_footprint_reflects_profile_code_bytes(self):
        catalog = make_catalog(rows=10)
        layout = CodeLayout(SYSTEM_C, catalog.address_space)
        segment = layout.segment("scan_next")
        expected_lines = -(-SYSTEM_C.cost("scan_next").code_bytes // LINE_BYTES)
        assert len(segment.hot_lines) == expected_lines

    def test_branch_sites_lie_inside_their_segment(self):
        catalog = make_catalog(rows=10)
        layout = CodeLayout(SYSTEM_B, catalog.address_space)
        segment = layout.segment("scan_next")
        for site in segment.branch_sites:
            assert segment.base_address <= site.address < segment.base_address + segment.hot_bytes

    def test_bulk_branches_complement_simulated_sites(self):
        catalog = make_catalog(rows=10)
        layout = CodeLayout(SYSTEM_B, catalog.address_space)
        segment = layout.segment("scan_next")
        total = round(segment.instructions * SYSTEM_B.branch_fraction)
        assert segment.bulk_branches + segment.simulated_branch_weight == total

    def test_unknown_operation_raises(self):
        catalog = make_catalog(rows=10)
        layout = CodeLayout(SYSTEM_B, catalog.address_space)
        with pytest.raises(KeyError):
            layout.segment("fly_to_the_moon")


# ---------------------------------------------------------------------------
# Execution context
# ---------------------------------------------------------------------------
class TestExecutionContext:
    def test_visit_charges_instructions_code_and_stalls(self):
        catalog = make_catalog(rows=10)
        ctx = make_context(catalog)
        ctx.visit("scan_next")
        counters = ctx.processor.counters
        cost = SYSTEM_C.cost("scan_next")
        assert counters.get("INST_RETIRED") == cost.instructions
        assert counters.get("IFU_IFETCH") > 0
        assert counters.get("DATA_MEM_REFS") >= cost.data_refs
        assert counters.get("BR_INST_RETIRED") == round(cost.instructions * SYSTEM_C.branch_fraction)
        assert counters.get("PARTIAL_RAT_STALLS") > 0
        assert counters.get("ILD_STALL") > 0

    def test_repeat_visits_scale_linearly(self):
        catalog = make_catalog(rows=10)
        ctx = make_context(catalog)
        ctx.visit("predicate", data_taken=True, repeat=10)
        cost = SYSTEM_C.cost("predicate")
        assert ctx.processor.counters.get("INST_RETIRED") == 10 * cost.instructions

    def test_workspace_touches_stay_in_workspace_region(self):
        catalog = make_catalog(rows=10)
        ctx = make_context(catalog)
        assert catalog.address_space.region_of(ctx.workspace_base) == "workspace"

    def test_cold_code_rotates_through_the_pool(self):
        catalog = make_catalog(rows=10)
        ctx = make_context(catalog)
        layout = ctx.layout
        cold = layout.segment("scan_next").cold_lines_per_visit
        assert 0 < 2 * cold < layout.cold_pool_lines
        ctx.visit("scan_next")
        assert ctx._native_ctx.cold_cursor == cold
        ctx.visit("scan_next")                  # the next, disjoint slice
        assert ctx._native_ctx.cold_cursor == 2 * cold
        assert catalog.address_space.region_of(layout.cold_pool_base) == "code"

    def test_fields_only_vs_full_record_access(self):
        catalog = make_catalog(rows=10)
        table = catalog.table("R")
        entry = next(table.heap.scan())

        ctx_b = make_context(catalog, SYSTEM_B)        # fields_only
        values = ctx_b.read_fields(entry, table.layout, ("a2", "a3"))
        assert values == {"a2": 1, "a3": 0}
        refs_fields_only = ctx_b.processor.counters.get("DCU_LINES_IN")

        ctx_c = make_context(catalog, SYSTEM_C)        # full_record
        ctx_c.read_fields(entry, table.layout, ("a2", "a3"))
        refs_full = ctx_c.processor.counters.get("DCU_LINES_IN")
        assert refs_full > refs_fields_only

    def test_data_branch_outcome_feeds_predictor(self):
        catalog = make_catalog(rows=10)
        ctx = make_context(catalog)
        # Alternate the predicate outcome: the data-dependent site will mispredict often.
        for i in range(200):
            ctx.visit("predicate", data_taken=bool(i % 2))
        rate_alternating = ctx.processor.branch_unit.stats.misprediction_rate
        ctx2 = make_context(catalog)
        for _ in range(200):
            ctx2.visit("predicate", data_taken=False)
        rate_constant = ctx2.processor.branch_unit.stats.misprediction_rate
        assert rate_alternating > rate_constant

    def test_record_done_counts_records(self):
        catalog = make_catalog(rows=10)
        ctx = make_context(catalog)
        ctx.record_done(3)
        assert ctx.processor.counters.get("RECORDS_PROCESSED") == 3


# ---------------------------------------------------------------------------
# Operators and executor
# ---------------------------------------------------------------------------
class TestExecutorCorrectness:
    def expected_avg(self, catalog, low, high):
        rows = [catalog.table("R").heap.read_values(e.rid) for e in catalog.table("R").heap.scan()]
        selected = [a3 for _, a2, a3 in rows if low < a2 < high]
        return sum(selected) / len(selected)

    def test_seq_scan_aggregate_matches_ground_truth(self):
        catalog = make_catalog()
        ctx = make_context(catalog, SYSTEM_A)
        plan = Planner(catalog, SYSTEM_A).plan(SelectionQuery(
            table="R", aggregates=(avg("a3"), count_star()),
            predicate=range_predicate("a2", 5, 16)))
        assert isinstance(plan.input, SeqScanPlan)
        rows = execute_plan(plan, catalog, ctx)
        assert rows[0]["avg(a3)"] == pytest.approx(self.expected_avg(catalog, 5, 16))
        assert rows[0]["count(*)"] == sum(1 for e in catalog.table("R").heap.scan()
                                          if 5 < catalog.table("R").heap.read_values(e.rid)[1] < 16)

    def test_index_scan_and_seq_scan_agree(self):
        catalog = make_catalog()
        query = SelectionQuery(table="R", aggregates=(avg("a3"),),
                               predicate=range_predicate("a2", 5, 10), prefer_index_on="a2")
        plan_b = Planner(catalog, SYSTEM_B).plan(query)
        plan_a = Planner(catalog, SYSTEM_A).plan(query)
        assert isinstance(plan_b.input, IndexRangeScanPlan)
        assert isinstance(plan_a.input, SeqScanPlan)
        result_b = execute_plan(plan_b, catalog, make_context(catalog, SYSTEM_B))
        result_a = execute_plan(plan_a, catalog, make_context(catalog, SYSTEM_A))
        assert result_b[0]["avg(a3)"] == pytest.approx(result_a[0]["avg(a3)"])

    def test_hash_join_matches_ground_truth(self):
        catalog = make_catalog()
        ctx = make_context(catalog, SYSTEM_B)
        from repro.query import JoinQuery
        plan = Planner(catalog, SYSTEM_B).plan(JoinQuery(
            left_table="R", right_table="S", left_column="a2", right_column="a1",
            aggregates=(avg("R.a3"), count_star())))
        assert isinstance(plan.input, HashJoinPlan)
        rows = execute_plan(plan, catalog, ctx)
        r_rows = [catalog.table("R").heap.read_values(e.rid) for e in catalog.table("R").heap.scan()]
        s_keys = {catalog.table("S").heap.read_values(e.rid)[0] for e in catalog.table("S").heap.scan()}
        matching = [a3 for _, a2, a3 in r_rows if a2 in s_keys]
        assert rows[0]["count(*)"] == len(matching)
        assert rows[0]["avg(R.a3)"] == pytest.approx(sum(matching) / len(matching))

    def test_nested_loop_join_agrees_with_hash_join(self):
        catalog = make_catalog(rows=120)
        from repro.query import JoinQuery
        from repro.query.planner import DefaultPolicy
        query = JoinQuery(left_table="R", right_table="S", left_column="a2",
                          right_column="a1", aggregates=(count_star(),))
        hash_plan = Planner(catalog, DefaultPolicy(join_algorithm="hash")).plan(query)
        nl_plan = Planner(catalog, DefaultPolicy(join_algorithm="nested_loop")).plan(query)
        assert isinstance(nl_plan.input, NestedLoopJoinPlan)
        hash_count = execute_plan(hash_plan, catalog, make_context(catalog))[0]["count(*)"]
        nl_count = execute_plan(nl_plan, catalog, make_context(catalog))[0]["count(*)"]
        assert hash_count == nl_count

    def test_index_nested_loop_join_agrees(self):
        catalog = make_catalog(rows=120)
        from repro.query import JoinQuery
        from repro.query.planner import DefaultPolicy
        query = JoinQuery(left_table="R", right_table="S", left_column="a2",
                          right_column="a1", aggregates=(count_star(),))
        inl_plan = Planner(catalog, DefaultPolicy(join_algorithm="index_nested_loop")).plan(query)
        hash_plan = Planner(catalog, DefaultPolicy(join_algorithm="hash")).plan(query)
        assert execute_plan(inl_plan, catalog, make_context(catalog))[0]["count(*)"] == \
            execute_plan(hash_plan, catalog, make_context(catalog))[0]["count(*)"]

    def test_update_through_index(self):
        catalog = make_catalog(rows=100)
        ctx = make_context(catalog, SYSTEM_B)
        plan = Planner(catalog, SYSTEM_B).plan(UpdateQuery(
            table="S", key_column="a1", key_value=7, set_column="a3", set_value=999))
        updated = execute_update(plan, catalog, ctx)
        assert updated == 1
        rows = [catalog.table("S").heap.read_values(e.rid)
                for e in catalog.table("S").heap.scan()]
        assert any(row == (7, 21, 999) for row in rows)

    def test_execution_charges_query_setup_once(self):
        catalog = make_catalog(rows=50)
        ctx = make_context(catalog, SYSTEM_A)
        plan = Planner(catalog, SYSTEM_A).plan(SelectionQuery(
            table="R", aggregates=(count_star(),), predicate=None))
        execute_plan(plan, catalog, ctx)
        setup = SYSTEM_A.cost("query_setup").instructions
        assert ctx.processor.counters.get("INST_RETIRED") >= setup

    def test_records_processed_counts_scanned_rows(self):
        catalog = make_catalog(rows=200)
        ctx = make_context(catalog, SYSTEM_A)
        plan = Planner(catalog, SYSTEM_A).plan(SelectionQuery(
            table="R", aggregates=(count_star(),), predicate=range_predicate("a2", 0, 10)))
        execute_plan(plan, catalog, ctx)
        assert ctx.processor.counters.get("RECORDS_PROCESSED") == 200

    def test_row_value_qualified_lookup(self):
        assert row_value({"a3": 5}, "R.a3") == 5
        with pytest.raises(OperatorError):
            row_value({"a3": 5}, "R.a9")
