"""Executor error paths and the ``_columns_for_table`` contract.

These paths were previously untested: instantiating an index plan against a
table with no index, planning against an unknown catalog table, and feeding
malformed qualified column names through ``row_value``.
"""

import pytest

from repro.execution import (ExecutionContext, ExecutorError, build_plan,
                             build_scan, execute_plan, execute_update)
from repro.execution.executor import _columns_for_table
from repro.execution.operators import OperatorError, row_value
from repro.execution.vectorized import build_vectorized_plan, build_vectorized_scan
from repro.hardware import SimulatedProcessor
from repro.query import ExecutionConfig, count_star
from repro.query.plans import (AggregatePlan, IndexPointLookupPlan,
                               IndexRangeScanPlan, SeqScanPlan, UpdatePlan)
from repro.storage import Catalog, CatalogError, microbenchmark_schema
from repro.systems import SYSTEM_B


def make_catalog(with_index: bool = False) -> Catalog:
    catalog = Catalog()
    schema, _ = microbenchmark_schema(100, "R")
    table = catalog.create_table("R", schema, record_size=100)
    table.insert_many((i, i % 10, i) for i in range(40))
    if with_index:
        catalog.create_index("R", "a2")
    return catalog


def make_context(catalog, engine: str = "tuple") -> ExecutionContext:
    return ExecutionContext(SimulatedProcessor(), SYSTEM_B, catalog.address_space,
                            execution=ExecutionConfig(engine=engine))


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
            build_vectorized_scan(plan, catalog, make_context(catalog))

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
            build_vectorized_plan(plan, catalog, make_context(catalog))

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
