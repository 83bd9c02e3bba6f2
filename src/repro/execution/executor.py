"""Physical-plan executor.

Turns the planner's physical plans into operator trees, runs them against an
:class:`~repro.execution.context.ExecutionContext`, and returns the result
rows.  One ``query_setup`` invocation is charged per executed plan (parsing,
optimisation, cursor management), matching the paper's unit of measurement
"from the moment [the DBMS] receives a query until the moment it returns the
results".
"""

from __future__ import annotations

from typing import List, Sequence

from ..query.expressions import Aggregate
from ..query.plans import (AggregatePlan, HashJoinPlan,
                           IndexNestedLoopJoinPlan, IndexPointLookupPlan,
                           IndexRangeScanPlan, JoinPlan, NestedLoopJoinPlan,
                           PhysicalPlan, ScanPlan, SeqScanPlan, UpdatePlan)
from ..storage.catalog import Catalog
from .context import ExecutionContext
from .operators import (HashJoinOperator, IndexNestedLoopJoinOperator,
                        IndexPointLookupOperator, IndexRangeScanOperator,
                        NestedLoopJoinOperator, Operator, OperatorError, Row,
                        ScalarAggregateOperator, SeqScanOperator, row_value)
from .resolve import ExecutorError, _columns_for_table, _index_for


def build_scan(plan: ScanPlan, catalog: Catalog, ctx: ExecutionContext,
               output_columns: Sequence[str] = (),
               next_operation: str = "scan_next") -> Operator:
    """Instantiate a scan plan node into an operator."""
    if isinstance(plan, SeqScanPlan):
        table = catalog.table(plan.table)
        return SeqScanOperator(table, ctx, predicate=plan.predicate,
                               output_columns=ctx.columns_for_table(table, output_columns),
                               next_operation=next_operation)
    if isinstance(plan, IndexRangeScanPlan):
        table = catalog.table(plan.table)
        index = ctx.index_for(table, plan.column)
        return IndexRangeScanOperator(table, index, ctx,
                                      low=plan.low, high=plan.high,
                                      include_low=plan.include_low,
                                      include_high=plan.include_high,
                                      residual_predicate=plan.residual_predicate,
                                      output_columns=ctx.columns_for_table(table, output_columns))
    if isinstance(plan, IndexPointLookupPlan):
        table = catalog.table(plan.table)
        index = ctx.index_for(table, plan.column)
        return IndexPointLookupOperator(table, index, ctx, value=plan.value,
                                        output_columns=ctx.columns_for_table(table, output_columns))
    raise ExecutorError(f"unknown scan plan {plan!r}")


def build_join(plan: JoinPlan, catalog: Catalog, ctx: ExecutionContext,
               output_columns: Sequence[str] = ()) -> Operator:
    """Instantiate a join plan node into an operator."""
    if isinstance(plan, HashJoinPlan):
        probe_columns = list(output_columns) + [plan.probe_column]
        build_columns = list(output_columns) + [plan.build_column]
        probe = build_scan(plan.probe, catalog, ctx, probe_columns)
        build = build_scan(plan.build, catalog, ctx, build_columns)
        build_table_name = getattr(plan.build, "table", None)
        estimate = catalog.table(build_table_name).row_count if build_table_name else 1024
        return HashJoinOperator(probe, build, plan.probe_column, plan.build_column,
                                ctx, build_row_estimate=max(estimate, 16))
    if isinstance(plan, NestedLoopJoinPlan):
        outer_columns = list(output_columns) + [plan.outer_column]
        inner_columns = list(output_columns) + [plan.inner_column]
        outer = build_scan(plan.outer, catalog, ctx, outer_columns)

        def inner_factory() -> Operator:
            return build_scan(plan.inner, catalog, ctx, inner_columns,
                              next_operation="inner_scan_next")

        return NestedLoopJoinOperator(outer, inner_factory, plan.outer_column,
                                      plan.inner_column, ctx)
    if isinstance(plan, IndexNestedLoopJoinPlan):
        outer_columns = list(output_columns) + [plan.outer_column]
        outer = build_scan(plan.outer, catalog, ctx, outer_columns)
        inner_table = catalog.table(plan.inner_table)
        inner_index = ctx.index_for(inner_table, plan.inner_column)
        return IndexNestedLoopJoinOperator(outer, inner_table, inner_index,
                                           plan.outer_column, ctx,
                                           inner_output_columns=ctx.columns_for_table(
                                               inner_table, output_columns))
    raise ExecutorError(f"unknown join plan {plan!r}")


def build_plan(plan: PhysicalPlan, catalog: Catalog, ctx: ExecutionContext) -> Operator:
    """Instantiate any physical plan into its operator tree."""
    if isinstance(plan, AggregatePlan):
        agg_columns = [agg.column for agg in plan.aggregates if agg.column is not None]
        if isinstance(plan.input, (HashJoinPlan, NestedLoopJoinPlan, IndexNestedLoopJoinPlan)):
            child = build_join(plan.input, catalog, ctx, agg_columns)
        else:
            child = build_scan(plan.input, catalog, ctx, agg_columns)
        return ScalarAggregateOperator(child, plan.aggregates, ctx)
    if isinstance(plan, (SeqScanPlan, IndexRangeScanPlan, IndexPointLookupPlan)):
        return build_scan(plan, catalog, ctx)
    if isinstance(plan, (HashJoinPlan, NestedLoopJoinPlan, IndexNestedLoopJoinPlan)):
        return build_join(plan, catalog, ctx)
    if isinstance(plan, UpdatePlan):
        raise ExecutorError("UpdatePlan is executed via execute_update(), not build_plan()")
    raise ExecutorError(f"unknown plan node {plan!r}")


def execute_plan(plan: PhysicalPlan, catalog: Catalog,
                 ctx: ExecutionContext) -> List[Row]:
    """Execute a read-only plan and return its result rows.

    ``ctx.execution`` selects the engine: the default tuple-at-a-time
    iterators above, or the batch-at-a-time operators of
    :mod:`repro.execution.vectorized`.  Both engines run the *same* plan
    and return identical rows; they differ in how the work is charged to
    the simulated hardware.
    """
    if ctx.execution.is_vectorized:
        from .vectorized import execute_plan_vectorized  # deferred: module imports us
        return execute_plan_vectorized(plan, catalog, ctx)
    tracer = ctx.tracer
    if tracer is None:
        ctx.visit("query_setup")
        operator = build_plan(plan, catalog, ctx)
        return list(operator.rows())
    with tracer.span("query_setup"):
        ctx.visit("query_setup")
    with tracer.span("build_plan"):
        operator = build_plan(plan, catalog, ctx)
    tracer.instrument(operator)
    return list(operator.rows())


def execute_update(plan: UpdatePlan, catalog: Catalog, ctx: ExecutionContext,
                   charge_setup: bool = True) -> int:
    """Execute a point-update plan; returns the number of rows updated.

    The OLTP workload charges one ``txn_overhead`` per transaction itself (a
    transaction may contain several statements), so the per-statement setup
    charge can be disabled.
    """
    tracer = ctx.tracer
    if charge_setup:
        if tracer is not None:
            with tracer.span("query_setup"):
                ctx.visit("query_setup")
        else:
            ctx.visit("query_setup")
    table = catalog.table(plan.lookup.table)
    if ctx.execution.is_vectorized:
        from .vectorized import build_vectorized_scan  # deferred: module imports us
        lookup: Operator = build_vectorized_scan(
            plan.lookup, catalog, ctx, table.schema.column_names(),
            batch_size=ctx.execution.batch_size,
            allow_exchange=False)  # updates mutate the heap: stay serial
    else:
        lookup = build_scan(plan.lookup, catalog, ctx,
                            output_columns=table.schema.column_names())
    apply_cm = None
    if tracer is not None:
        # The lookup's pulls interleave with the update charges, so the
        # lookup node must live under the update span for the span's self
        # time to mean "the update work alone".
        apply_node = tracer.span_node("update_apply")
        tracer.instrument(lookup, parent=apply_node)
        apply_cm = tracer.open(apply_node)
        apply_cm.__enter__()
    updated = 0
    try:
        set_position = table.schema.index_of(plan.set_column)
        for row in lookup.rows():
            rid = row["__rid__"]
            values = list(table.heap.read_values(rid))
            values[set_position] = plan.set_value
            ctx.visit("update_record")
            entry = table.heap.fetch(rid)
            ctx.write_record(entry, table.layout)
            table.update(rid, values)
            updated += 1
            ctx.record_done()
    finally:
        if apply_cm is not None:
            apply_cm.__exit__(None, None, None)
    return updated
