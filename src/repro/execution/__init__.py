"""Execution engine: code layout, execution context, operators, executor.

Two engines share the executor's plans: the tuple-at-a-time Volcano
iterators in :mod:`.operators` (what the paper's systems do) and the
batch-at-a-time operators in :mod:`.vectorized` (the amortised
interpretation path).  :mod:`.executor` is the one plan -> operator builder:
``build_scan``/``build_join``/``build_plan`` (and ``execute_plan``/
``execute_update`` on top of them) pick the operator family from the
context's :class:`~repro.query.plans.ExecutionConfig`.
"""

from .code_layout import BranchSite, CodeLayout, CodeSegment, LINE_BYTES
from .context import ExecutionContext
from .executor import (ExecutorError, build_plan, build_scan, build_join,
                       execute_plan, execute_update)
from .operators import (HashJoinOperator, IndexPointLookupOperator,
                        IndexRangeScanOperator, Operator, OperatorError, Row,
                        ScalarAggregateOperator, SeqScanOperator, row_value)
from .vectorized import (ColumnBatch, VecHashJoinOperator,
                         VecIndexPointLookupOperator, VecIndexRangeScanOperator,
                         VecScalarAggregateOperator, VecSeqScanOperator,
                         VectorOperator, merge_gather)

__all__ = [
    "BranchSite", "CodeLayout", "CodeSegment", "LINE_BYTES",
    "ExecutionContext",
    "ExecutorError", "build_plan", "build_scan", "build_join", "execute_plan",
    "execute_update",
    "HashJoinOperator", "IndexPointLookupOperator", "IndexRangeScanOperator",
    "Operator", "OperatorError", "Row", "ScalarAggregateOperator",
    "SeqScanOperator", "row_value",
    "ColumnBatch", "VectorOperator", "VecHashJoinOperator",
    "VecIndexPointLookupOperator", "VecIndexRangeScanOperator",
    "VecScalarAggregateOperator", "VecSeqScanOperator", "merge_gather",
]
