"""The single plan -> operator builder: what it builds, and its error paths.

``repro.execution.executor`` is the only builder; the engine comes from the
context.  Covered here: every plan node under both engines, the shared-scan
/ plain choice for vectorized sequential scans, instantiating an
index plan against a table with no index, planning against an unknown
catalog table, feeding malformed qualified column names through
``row_value``, and the ``_columns_for_table`` contract.
"""

import pytest

from repro.adaptive import AdaptiveExecution
from repro.execution import (ExecutionContext, ExecutorError, build_plan,
                             build_scan, execute_plan, execute_update)
from repro.execution import operators, vectorized
from repro.execution.executor import _columns_for_table
from repro.execution.operators import OperatorError, row_value
from repro.execution.parallel import (SharedScanCoordinator,
                                      SharedScanReplayOperator)
from repro.engine import Database
from repro.hardware import SimulatedProcessor
from repro.query import ExecutionConfig, count_star
from repro.query.plans import (AggregatePlan, HashJoinPlan,
                               IndexPointLookupPlan, IndexRangeScanPlan,
                               SeqScanPlan, UpdatePlan)
from repro.storage import Catalog, CatalogError, microbenchmark_schema
from repro.storage.schema import ColumnType
from repro.systems import SYSTEM_B

ENGINES = ("tuple", "vectorized")


def make_catalog(with_index: bool = False) -> Catalog:
    catalog = Catalog()
    schema, _ = microbenchmark_schema(100, "R")
    table = catalog.create_table("R", schema, record_size=100)
    table.insert_many(*table.schema.transpose((i, i % 10, i) for i in range(40)))
    if with_index:
        catalog.create_index("R", "a2")
    return catalog


def make_context(catalog, engine: str = "tuple", **knobs) -> ExecutionContext:
    return ExecutionContext(SimulatedProcessor(), SYSTEM_B, catalog.address_space,
                            execution=ExecutionConfig(engine=engine, **knobs))


SCAN = SeqScanPlan(table="R", predicate=None)
RANGE = IndexRangeScanPlan(table="R", column="a2", low=1, high=5)
POINT = IndexPointLookupPlan(table="R", column="a2", value=3)

#: Every plan node the planner can produce -> (tuple, vectorized) operator.
PLAN_NODES = {
    "seq_scan": (SCAN, "SeqScanOperator"),
    "index_range_scan": (RANGE, "IndexRangeScanOperator"),
    "index_point_lookup": (POINT, "IndexPointLookupOperator"),
    "hash_join": (HashJoinPlan(probe=SCAN, build=SCAN, probe_column="a2",
                               build_column="a1"), "HashJoinOperator"),
    "aggregate_over_scan": (AggregatePlan(input=SCAN,
                                          aggregates=(count_star(),)),
                            "ScalarAggregateOperator"),
    "aggregate_over_join": (AggregatePlan(
        input=HashJoinPlan(probe=SCAN, build=SCAN, probe_column="a2",
                           build_column="a1"),
        aggregates=(count_star(),)), "ScalarAggregateOperator"),
}


class TestOneBuilder:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("node", sorted(PLAN_NODES))
    def test_every_plan_node_builds_the_engines_operator(self, node, engine):
        plan, name = PLAN_NODES[node]
        catalog = make_catalog(with_index=True)
        operator = build_plan(plan, catalog, make_context(catalog, engine))
        expected = (getattr(operators, name) if engine == "tuple"
                    else getattr(vectorized, "Vec" + name))
        assert type(operator) is expected
        # Both engines answer the plan with the same rows.
        other = build_plan(plan, catalog, make_context(catalog, "tuple"))
        assert list(operator.rows()) == list(other.rows())

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case,plan,builder,match", [
        ("unknown_node", object(), build_plan, "unknown plan node"),
        ("unknown_scan", object(), build_scan, "unknown scan plan"),
        ("update_plan", UpdatePlan(lookup=POINT, set_column="a3",
                                   set_value=0), build_plan, "execute_update"),
        ("missing_index", RANGE, build_plan, "requires an index"),
    ])
    def test_errors_are_the_same_under_both_engines(self, case, plan, builder,
                                                    match, engine):
        catalog = make_catalog(with_index=False)
        with pytest.raises(ExecutorError, match=match):
            builder(plan, catalog, make_context(catalog, engine))


class TestVectorizedSeqScanChoice:
    """Shared scan or plain scan: one block inside ``build_scan``."""

    def database(self) -> Database:
        db = Database()
        db.create_table("R", [("a1", ColumnType.INT32), ("a2", ColumnType.INT32)],
                        record_size=100)
        db.load("R", [(i, i % 10) for i in range(40)])
        return db

    def context(self, db, shared=True, **knobs) -> ExecutionContext:
        ctx = make_context(db.catalog, "vectorized", **knobs)
        if shared:
            ctx.shared_scans = SharedScanCoordinator()
        if ctx.execution.is_adaptive:
            ctx.adaptive = AdaptiveExecution(ctx.execution.adaptivity)
        return ctx

    def test_plain_context_attaches_to_the_coordinator(self):
        db = self.database()
        ctx = self.context(db)
        operator = build_scan(SCAN, db.catalog, ctx, ["a1"])
        assert type(operator) is SharedScanReplayOperator
        assert ctx.shared_scans.attachments == 1

    def test_adaptive_context_gets_the_plain_scan(self):
        db = self.database()
        ctx = self.context(db, adaptivity="static")
        operator = build_scan(SCAN, db.catalog, ctx, ["a1"])
        assert type(operator) is vectorized.VecSeqScanOperator
        assert ctx.shared_scans.attachments == 0

    def test_context_without_coordinator_gets_the_plain_scan(self):
        db = self.database()
        ctx = self.context(db, shared=False)
        operator = build_scan(SCAN, db.catalog, ctx, ["a1"])
        assert type(operator) is vectorized.VecSeqScanOperator
        assert operator.batch_size == ctx.execution.batch_size

    def test_tuple_engine_ignores_all_of_it(self):
        db = self.database()
        ctx = make_context(db.catalog, "tuple")
        ctx.shared_scans = SharedScanCoordinator()
        operator = build_scan(SCAN, db.catalog, ctx, ["a1"])
        assert type(operator) is operators.SeqScanOperator
        assert ctx.shared_scans.attachments == 0


class TestMissingIndex:
    def test_index_range_scan_plan_without_index_raises(self):
        catalog = make_catalog(with_index=False)
        plan = IndexRangeScanPlan(table="R", column="a2", low=1, high=5)
        with pytest.raises(ExecutorError, match="requires an index"):
            build_scan(plan, catalog, make_context(catalog))

    def test_vectorized_engine_raises_the_same_error(self):
        catalog = make_catalog(with_index=False)
        plan = IndexRangeScanPlan(table="R", column="a2", low=1, high=5)
        with pytest.raises(ExecutorError, match="requires an index"):
            build_scan(plan, catalog, make_context(catalog, "vectorized"))

    def test_point_lookup_without_index_raises(self):
        catalog = make_catalog(with_index=False)
        plan = IndexPointLookupPlan(table="R", column="a2", value=3)
        with pytest.raises(ExecutorError, match="requires an index"):
            build_scan(plan, catalog, make_context(catalog))


class TestUnknownTable:
    def test_execute_plan_on_unknown_table_raises_catalog_error(self):
        catalog = make_catalog()
        ctx = make_context(catalog)
        plan = SeqScanPlan(table="ghost", predicate=None)
        with pytest.raises(CatalogError, match="ghost"):
            execute_plan(plan, catalog, ctx)

    def test_vectorized_engine_raises_the_same_error(self):
        catalog = make_catalog()
        ctx = make_context(catalog, engine="vectorized")
        plan = SeqScanPlan(table="ghost", predicate=None)
        with pytest.raises(CatalogError, match="ghost"):
            execute_plan(plan, catalog, ctx)

    def test_aggregate_over_unknown_table(self):
        catalog = make_catalog()
        plan = AggregatePlan(input=SeqScanPlan(table="nope", predicate=None),
                             aggregates=(count_star(),))
        with pytest.raises(CatalogError):
            build_plan(plan, catalog, make_context(catalog))


class TestUpdatePlanMisuse:
    def test_build_plan_refuses_update_plans(self):
        catalog = make_catalog(with_index=True)
        plan = UpdatePlan(lookup=IndexPointLookupPlan(table="R", column="a2", value=3),
                          set_column="a3", set_value=0)
        with pytest.raises(ExecutorError, match="execute_update"):
            build_plan(plan, catalog, make_context(catalog))
        with pytest.raises(ExecutorError, match="execute_update"):
            build_plan(plan, catalog, make_context(catalog, "vectorized"))

    def test_execute_update_on_unknown_table(self):
        catalog = make_catalog()
        plan = UpdatePlan(lookup=IndexPointLookupPlan(table="ghost", column="a2", value=3),
                          set_column="a3", set_value=0)
        with pytest.raises(CatalogError):
            execute_update(plan, catalog, make_context(catalog))


class TestRowValue:
    def test_unqualified_and_qualified_hits(self):
        assert row_value({"a3": 5}, "a3") == 5
        assert row_value({"a3": 5}, "R.a3") == 5
        assert row_value({"R.a3": 5}, "R.a3") == 5

    def test_unknown_column_raises_operator_error(self):
        with pytest.raises(OperatorError, match="no column"):
            row_value({"a3": 5}, "R.a9")

    def test_malformed_qualification_falls_back_to_short_name(self):
        # "X.a3" on a row keyed by short names resolves through the short
        # name; the qualifier is advisory at row level (plans qualify with
        # table names, rows carry unqualified keys).
        assert row_value({"a3": 5}, "X.a3") == 5

    def test_empty_short_name_raises(self):
        with pytest.raises(OperatorError):
            row_value({"a3": 5}, "R.")


class TestColumnsForTable:
    def make_table(self):
        catalog = Catalog()
        schema, _ = microbenchmark_schema(100, "R")
        return catalog.create_table("R", schema, record_size=100)

    def test_caller_order_is_preserved(self):
        table = self.make_table()
        assert _columns_for_table(table, ["a3", "a1", "a2"]) == ("a3", "a1", "a2")

    def test_duplicates_keep_first_occurrence(self):
        table = self.make_table()
        assert _columns_for_table(table, ["a2", "R.a2", "a2", "a1"]) == ("a2", "a1")

    def test_foreign_qualifier_is_excluded(self):
        table = self.make_table()
        # "S.a3" names another table's column; even though R declares a
        # column a3 too, the request is not for R's.
        assert _columns_for_table(table, ["S.a3", "R.a1"]) == ("a1",)

    def test_unknown_columns_are_dropped(self):
        table = self.make_table()
        assert _columns_for_table(table, ["zz", "R.zz", "a2"]) == ("a2",)
