"""Physical-plan executor: the one plan -> operator builder.

Turns the planner's physical plans into operator trees, runs them against an
:class:`~repro.execution.context.ExecutionContext`, and returns the result
rows.  One ``query_setup`` invocation is charged per executed plan (parsing,
optimisation, cursor management), matching the paper's unit of measurement
"from the moment [the DBMS] receives a query until the moment it returns the
results".

Both engines are built here, from the same plan: ``ctx.execution.engine``
picks the operator family (:mod:`.operators`, or :mod:`.vectorized` sized by
``ctx.execution.batch_size``), and the one choice that is not node ->
operator -- shared scan or plain scan -- is one block inside
:func:`build_scan`.
"""

from __future__ import annotations

from typing import List, Sequence, Union

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
from .vectorized import (VecHashJoinOperator, VecIndexNestedLoopJoinOperator,
                         VecIndexPointLookupOperator,
                         VecIndexRangeScanOperator, VecNestedLoopJoinOperator,
                         VecScalarAggregateOperator, VecSeqScanOperator,
                         VectorOperator)

#: What a builder returns: either engine's operators iterate as rows.
AnyOperator = Union[Operator, VectorOperator]


def build_scan(plan: ScanPlan, catalog: Catalog, ctx: ExecutionContext,
               output_columns: Sequence[str] = (),
               next_operation: str = "scan_next",
               allow_shared: bool = True) -> AnyOperator:
    """Instantiate a scan plan node into an operator of the context's engine.

    A vectorized sequential scan is one of two operators.  When the context
    carries a shared-scan coordinator (``ctx.shared_scans``, attached by
    the serving layer for one admission round) and no adaptive manager
    (adaptive scan charges depend on per-context runtime state), the scan
    attaches to the round's recorded scan for its signature: the scan's
    data work runs once per round and its charge tapes are replayed into
    each attached query's own context, so results and simulated counts stay
    bit-identical to the ``VecSeqScanOperator`` every other context gets.
    ``allow_shared=False`` pins a scan to that operator (rescanned
    nested-loop inners, update lookups); the tuple engine has no other, so
    the flag is inert there.
    """
    vectorized = ctx.execution.is_vectorized
    # Only the vectorized operators have a vector size.
    sized = {"batch_size": ctx.execution.batch_size} if vectorized else {}
    if isinstance(plan, SeqScanPlan):
        table = catalog.table(plan.table)
        scan = dict(predicate=plan.predicate,
                    output_columns=ctx.columns_for_table(table, output_columns),
                    next_operation=next_operation, **sized)
        if not vectorized:
            return SeqScanOperator(table, ctx, **scan)
        if (allow_shared and ctx.shared_scans is not None
                and ctx.adaptive is None):
            return ctx.shared_scans.attach(table, ctx, **scan)
        return VecSeqScanOperator(table, ctx, **scan)
    if isinstance(plan, (IndexRangeScanPlan, IndexPointLookupPlan)):
        table = catalog.table(plan.table)
        index = ctx.index_for(table, plan.column)
        if isinstance(plan, IndexPointLookupPlan):
            lookup = (VecIndexPointLookupOperator if vectorized
                      else IndexPointLookupOperator)
            return lookup(table, index, ctx, value=plan.value, **sized)
        columns = ctx.columns_for_table(table, output_columns)
        range_scan = (VecIndexRangeScanOperator if vectorized
                      else IndexRangeScanOperator)
        return range_scan(table, index, ctx, low=plan.low, high=plan.high,
                          key_column=plan.column,
                          include_low=plan.include_low,
                          include_high=plan.include_high,
                          residual_predicate=plan.residual_predicate,
                          output_columns=columns, **sized)
    raise ExecutorError(f"unknown scan plan {plan!r}")


def build_join(plan: JoinPlan, catalog: Catalog, ctx: ExecutionContext,
               output_columns: Sequence[str] = ()) -> AnyOperator:
    """Instantiate a join plan node into an operator of the context's engine."""
    vectorized = ctx.execution.is_vectorized
    if isinstance(plan, HashJoinPlan):
        probe_columns = list(output_columns) + [plan.probe_column]
        build_columns = list(output_columns) + [plan.build_column]
        probe = build_scan(plan.probe, catalog, ctx, probe_columns)
        build = build_scan(plan.build, catalog, ctx, build_columns)
        build_table_name = getattr(plan.build, "table", None)
        estimate = catalog.table(build_table_name).row_count if build_table_name else 1024
        if not vectorized:
            return HashJoinOperator(probe, build, plan.probe_column,
                                    plan.build_column, ctx,
                                    build_row_estimate=max(estimate, 16))
        probe_table_name = getattr(plan.probe, "table", None)
        probe_estimate = (catalog.table(probe_table_name).row_count
                          if probe_table_name else 1024)
        build_row_bytes = (catalog.table(build_table_name).layout.record_size
                           if build_table_name else 64)
        return VecHashJoinOperator(
            probe, build, plan.probe_column, plan.build_column, ctx,
            build_row_estimate=max(estimate, 16),
            probe_row_estimate=max(probe_estimate, 16),
            build_key=f"card:{build_table_name or plan.build_column}",
            probe_key=f"card:{probe_table_name or plan.probe_column}",
            batch_size=ctx.execution.batch_size,
            build_row_bytes=build_row_bytes)
    if isinstance(plan, NestedLoopJoinPlan):
        outer_columns = list(output_columns) + [plan.outer_column]
        inner_columns = list(output_columns) + [plan.inner_column]
        outer = build_scan(plan.outer, catalog, ctx, outer_columns)

        def inner_factory() -> AnyOperator:
            # Re-instantiated once per outer row (tuple) or outer batch
            # (vectorized): a fresh scan each time, never a shared one.
            return build_scan(plan.inner, catalog, ctx, inner_columns,
                              next_operation="inner_scan_next",
                              allow_shared=False)

        join = VecNestedLoopJoinOperator if vectorized else NestedLoopJoinOperator
        return join(outer, inner_factory, plan.outer_column, plan.inner_column,
                    ctx)
    if isinstance(plan, IndexNestedLoopJoinPlan):
        outer_columns = list(output_columns) + [plan.outer_column]
        outer = build_scan(plan.outer, catalog, ctx, outer_columns)
        inner_table = catalog.table(plan.inner_table)
        inner_index = ctx.index_for(inner_table, plan.inner_column)
        join = (VecIndexNestedLoopJoinOperator if vectorized
                else IndexNestedLoopJoinOperator)
        return join(outer, inner_table, inner_index, plan.outer_column, ctx,
                    inner_output_columns=ctx.columns_for_table(
                        inner_table, output_columns))
    raise ExecutorError(f"unknown join plan {plan!r}")


def build_plan(plan: PhysicalPlan, catalog: Catalog, ctx: ExecutionContext) -> AnyOperator:
    """Instantiate any physical plan into its operator tree."""
    if isinstance(plan, AggregatePlan):
        agg_columns = [agg.column for agg in plan.aggregates if agg.column is not None]
        if isinstance(plan.input, (HashJoinPlan, NestedLoopJoinPlan, IndexNestedLoopJoinPlan)):
            child = build_join(plan.input, catalog, ctx, agg_columns)
        else:
            child = build_scan(plan.input, catalog, ctx, agg_columns)
        aggregate = (VecScalarAggregateOperator if ctx.execution.is_vectorized
                     else ScalarAggregateOperator)
        return aggregate(child, plan.aggregates, ctx)
    if isinstance(plan, (SeqScanPlan, IndexRangeScanPlan, IndexPointLookupPlan)):
        return build_scan(plan, catalog, ctx)
    if isinstance(plan, (HashJoinPlan, NestedLoopJoinPlan, IndexNestedLoopJoinPlan)):
        return build_join(plan, catalog, ctx)
    if isinstance(plan, UpdatePlan):
        raise ExecutorError("UpdatePlan is executed via execute_update(), not build_plan()")
    raise ExecutorError(f"unknown plan node {plan!r}")


def execute_plan(plan: PhysicalPlan, catalog: Catalog, ctx: ExecutionContext) -> List[Row]:
    """Execute a read-only plan and return its result rows.

    ``ctx.execution`` selects the engine: the default tuple-at-a-time
    iterators, or the batch-at-a-time operators of
    :mod:`repro.execution.vectorized`, whose dataflow is columnar
    end-to-end -- rows are materialized only here, at the session result
    boundary.  Both engines run the *same* plan, charge the same single
    ``query_setup`` (parsing and optimisation are per query, not per
    engine) and return identical rows; they differ in how the work is
    charged to the simulated hardware.
    """
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
    lookup = build_scan(plan.lookup, catalog, ctx,
                        allow_shared=False)  # updates mutate the heap
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
        table.schema.index_of(plan.set_column)  # raises before any row is touched
        for row in lookup.rows():
            rid = row["__rid__"]
            # The charge is a whole-record store (what the modelled systems
            # do); the data plane writes the one field that changes.
            ctx.visit("update_record")
            ctx.write_record(table.heap.fetch(rid), table.layout)
            table.update_field(rid, plan.set_column, plan.set_value)
            updated += 1
            ctx.record_done()
    finally:
        if apply_cm is not None:
            apply_cm.__exit__(None, None, None)
    return updated
