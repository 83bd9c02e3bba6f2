"""Rule-based query planner.

The planner lowers logical queries to physical plans using the information
the paper says drives each commercial optimiser's choice:

* whether a usable non-clustered index exists on the qualification column,
* the estimated selectivity of the range predicate, and
* the system's policy -- System A "did not use the index to execute this
  query" (Figure 5.1), while B, C and D did.

The no-index equijoin is a hash join on every system, as it was in all four
commercial systems the paper measured.

Policies are supplied through the small :class:`PlannerPolicy` protocol so the
planner does not depend on the :mod:`repro.systems` package; the system
profiles implement the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Tuple

from ..storage.catalog import Catalog
from .expressions import (Between, Comparison, ComparisonOp, ColumnRef, Const,
                          Expression)
from .plans import (AggregatePlan, HashJoinPlan, IndexPointLookupPlan,
                    IndexRangeScanPlan, JoinQuery, LogicalQuery, PhysicalPlan,
                    ScanPlan, SelectionQuery, SeqScanPlan, UpdatePlan,
                    UpdateQuery)


class PlannerError(RuntimeError):
    """Raised when a logical query cannot be lowered to a physical plan."""


class PlannerPolicy(Protocol):
    """The optimiser knobs a system profile exposes to the planner."""

    #: Whether a non-clustered index is considered for range selections at all.
    uses_index_for_range_selection: bool
    #: Maximum estimated selectivity (fraction of rows) at which the index
    #: path is still chosen over a sequential scan.
    index_selectivity_threshold: float


@dataclass(frozen=True)
class DefaultPolicy:
    """A sensible default policy (index when selective)."""

    uses_index_for_range_selection: bool = True
    index_selectivity_threshold: float = 0.25


@dataclass(frozen=True)
class RangeBounds:
    """Bounds extracted from a predicate over a single column."""

    column: str
    low: Optional[object]
    high: Optional[object]
    include_low: bool
    include_high: bool


def extract_range_bounds(predicate: Expression, column_name: str) -> Optional[RangeBounds]:
    """Extract index-usable bounds for ``column_name`` from a predicate.

    Supports :class:`Between` over the column and single comparisons of the
    column against a constant; anything else returns ``None`` and forces the
    sequential path (the residual predicate is then evaluated per record).
    """
    if isinstance(predicate, Between) and isinstance(predicate.expr, ColumnRef):
        ref = predicate.expr
        if ref.unqualified == column_name.split(".")[-1]:
            if isinstance(predicate.low, Const) and isinstance(predicate.high, Const):
                return RangeBounds(column=column_name,
                                   low=predicate.low.value, high=predicate.high.value,
                                   include_low=predicate.include_low,
                                   include_high=predicate.include_high)
    if isinstance(predicate, Comparison) and isinstance(predicate.left, ColumnRef) \
            and isinstance(predicate.right, Const):
        ref, value = predicate.left, predicate.right.value
        if ref.unqualified != column_name.split(".")[-1]:
            return None
        op = predicate.op
        if op is ComparisonOp.LT:
            return RangeBounds(column_name, None, value, False, False)
        if op is ComparisonOp.LE:
            return RangeBounds(column_name, None, value, False, True)
        if op is ComparisonOp.GT:
            return RangeBounds(column_name, value, None, False, False)
        if op is ComparisonOp.GE:
            return RangeBounds(column_name, value, None, True, False)
        if op is ComparisonOp.EQ:
            return RangeBounds(column_name, value, value, True, True)
    return None


class Planner:
    """Lower logical queries to physical plans for one catalog + policy.

    The execution knobs do not influence plan *shape*: both engines execute
    identical plans, which is what makes the engines differentially
    testable.
    """

    def __init__(self, catalog: Catalog,
                 policy: Optional[PlannerPolicy] = None) -> None:
        self.catalog = catalog
        self.policy = policy or DefaultPolicy()

    # ---------------------------------------------------------------- entry
    def plan(self, query: LogicalQuery) -> PhysicalPlan:
        if isinstance(query, SelectionQuery):
            return self._plan_selection(query)
        if isinstance(query, JoinQuery):
            return self._plan_join(query)
        if isinstance(query, UpdateQuery):
            return self._plan_update(query)
        raise PlannerError(f"cannot plan query of type {type(query).__name__}")

    # ----------------------------------------------------------- selections
    def _plan_selection(self, query: SelectionQuery) -> AggregatePlan:
        table = self.catalog.table(query.table)
        scan: ScanPlan = SeqScanPlan(table=query.table, predicate=query.predicate)

        if (query.prefer_index_on is not None
                and query.predicate is not None
                and self.policy.uses_index_for_range_selection
                and table.index_on(query.prefer_index_on) is not None):
            bounds = extract_range_bounds(query.predicate, query.prefer_index_on)
            if bounds is not None:
                selectivity = self.estimate_selectivity(query.table, bounds)
                if selectivity <= self.policy.index_selectivity_threshold:
                    scan = IndexRangeScanPlan(
                        table=query.table, column=query.prefer_index_on,
                        low=bounds.low, high=bounds.high,
                        include_low=bounds.include_low, include_high=bounds.include_high,
                        residual_predicate=None)
        return AggregatePlan(input=scan, aggregates=query.aggregates)

    def estimate_selectivity(self, table_name: str, bounds: RangeBounds) -> float:
        """Uniform-distribution selectivity estimate from column min/max.

        The microbenchmark's ``a2`` is uniformly distributed in ``[1, 40000]``
        (scaled), so the classical uniform estimate is essentially exact --
        which is all the commercial optimisers needed for this workload too.
        The min and max are the two ends of the column's index (the planner
        asks only after ``index_on`` succeeded): no heap page is fetched and
        nothing is cached, so there is nothing to invalidate.  A column
        without an index has no statistics.
        """
        column = bounds.column.split(".")[-1]
        index = self.catalog.table(table_name).index_on(column)
        if index is None:
            raise PlannerError(f"no statistics for {table_name}.{column}: "
                               f"selectivity is estimated from the column's index")
        key_bounds = index.key_bounds()
        if key_bounds is None:
            return 1.0
        lo_data, hi_data = key_bounds
        span = float(hi_data - lo_data) or 1.0
        low = bounds.low if bounds.low is not None else lo_data
        high = bounds.high if bounds.high is not None else hi_data
        width = max(float(high) - float(low), 0.0)
        return max(min(width / span, 1.0), 0.0)

    # ---------------------------------------------------------------- joins
    def _plan_join(self, query: JoinQuery) -> AggregatePlan:
        """Hash join: build on the smaller input, probe with the larger --
        unless the query pins a build side (``build_side`` models a
        stale-statistics misestimate; the runtime join-side decision exists
        to correct exactly this kind of planner-frozen choice)."""
        left = self.catalog.table(query.left_table)
        right = self.catalog.table(query.right_table)
        left_scan = SeqScanPlan(table=query.left_table, predicate=None)
        right_scan = SeqScanPlan(table=query.right_table, predicate=None)
        if query.build_side is not None:
            build_left = query.build_side == "left"
        else:
            build_left = left.row_count < right.row_count
        if build_left:
            join = HashJoinPlan(probe=right_scan, build=left_scan,
                                probe_column=query.right_column,
                                build_column=query.left_column)
        else:
            join = HashJoinPlan(probe=left_scan, build=right_scan,
                                probe_column=query.left_column,
                                build_column=query.right_column)
        return AggregatePlan(input=join, aggregates=query.aggregates)

    # -------------------------------------------------------------- updates
    def _plan_update(self, query: UpdateQuery) -> UpdatePlan:
        table = self.catalog.table(query.table)
        if table.index_on(query.key_column) is None:
            raise PlannerError(
                f"update on {query.table}.{query.key_column} requires an index "
                f"(OLTP point access path)")
        lookup = IndexPointLookupPlan(table=query.table, column=query.key_column,
                                      value=query.key_value)
        return UpdatePlan(lookup=lookup, set_column=query.set_column,
                          set_value=query.set_value)
