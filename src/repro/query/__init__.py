"""Query representation: expressions, logical queries, physical plans, planner."""

from .expressions import (Aggregate, AggregateFunction, AggregateState, And, Between,
                          ColumnRef, Comparison, ComparisonOp, Const, Expression,
                          ExpressionError, Not, Or, avg, column, const, count_star,
                          equals, range_predicate)
from .planner import DefaultPolicy, Planner, PlannerError, PlannerPolicy, extract_range_bounds
from .plans import (DEFAULT_BATCH_SIZE, ENGINE_TUPLE, ENGINE_VECTORIZED, ENGINES,
                    KERNEL_BACKENDS, TRACING_MODES,
                    AggregatePlan, ExecutionConfig, HashJoinPlan,
                    IndexPointLookupPlan, IndexRangeScanPlan, JoinQuery,
                    LogicalQuery, PhysicalPlan, SelectionQuery, SeqScanPlan,
                    UpdatePlan, UpdateQuery, describe_plan)

__all__ = [
    "Aggregate", "AggregateFunction", "AggregateState", "And", "Between", "ColumnRef",
    "Comparison", "ComparisonOp", "Const", "Expression", "ExpressionError", "Not", "Or",
    "avg", "column", "const", "count_star", "equals", "range_predicate",
    "DefaultPolicy", "Planner", "PlannerError", "PlannerPolicy", "extract_range_bounds",
    "DEFAULT_BATCH_SIZE", "ENGINE_TUPLE", "ENGINE_VECTORIZED", "ENGINES",
    "KERNEL_BACKENDS", "TRACING_MODES",
    "ExecutionConfig",
    "AggregatePlan", "HashJoinPlan", "IndexPointLookupPlan",
    "IndexRangeScanPlan", "JoinQuery", "LogicalQuery",
    "PhysicalPlan", "SelectionQuery", "SeqScanPlan", "UpdatePlan", "UpdateQuery",
    "describe_plan",
]
