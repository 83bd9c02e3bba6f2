"""Measurement sessions.

A :class:`Session` binds together everything needed to execute queries "the
way the paper measures them": one database, one system profile (which of the
four commercial DBMSs is being impersonated), one simulated processor
configuration, and the warm-up / measurement discipline of Section 4.3:

* the caches are warmed with prior runs of the same query before measuring,
* a *unit of execution* consists of several queries run back to back so that
  per-query client/server start-up overhead is amortised, and
* results come back as counter snapshots plus the derived breakdown and rate
  metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.breakdown import ExecutionBreakdown
from ..analysis.metrics import QueryMetrics, compute_metrics
from ..execution.code_layout import CodeLayout
from ..execution.context import ExecutionContext
from ..execution.executor import execute_plan, execute_update
from ..hardware.counters import EventCounters
from ..hardware.os_interference import OSInterferenceConfig
from ..hardware.pipeline import OverlapModel
from ..hardware.processor import SimulatedProcessor
from ..hardware.specs import PENTIUM_II_XEON, ProcessorSpec
from ..adaptive import AdaptiveExecution
from ..query.planner import Planner
from ..observability import Tracer
from ..query.plans import (ENGINE_TUPLE, ExecutionConfig, LogicalQuery,
                           PhysicalPlan, UpdatePlan, describe_plan,
                           execution_config)
from ..systems.profile import SystemProfile
from .database import Database


@dataclass
class QueryResult:
    """Everything measured for one query (or one unit of queries)."""

    system: str
    label: str
    plan_description: str
    rows: List[Dict[str, object]]
    counters: EventCounters
    breakdown: ExecutionBreakdown
    metrics: QueryMetrics
    queries_in_unit: int = 1
    engine: str = ENGINE_TUPLE
    #: Interpreted executor-routine invocations charged during the measured
    #: unit (batched calls count once per batch) -- the quantity the
    #: vectorized engine exists to shrink.
    routine_invocations: Dict[str, int] = field(default_factory=dict)
    #: Root of the per-query trace tree
    #: (:class:`~repro.observability.trace.TraceNode`) when the session ran
    #: with ``tracing != "off"``; ``None`` otherwise.
    trace: Optional[object] = None

    @property
    def total_routine_invocations(self) -> int:
        return sum(self.routine_invocations.values())

    @property
    def scalar(self) -> object:
        """The single aggregate value for scalar-aggregate queries."""
        if len(self.rows) == 1 and len(self.rows[0]) == 1:
            return next(iter(self.rows[0].values()))
        return None


class Session:
    """Execute queries for one system profile on one simulated platform."""

    def __init__(self,
                 database: Database,
                 profile: SystemProfile,
                 spec: ProcessorSpec = PENTIUM_II_XEON,
                 os_interference: Optional[OSInterferenceConfig] = OSInterferenceConfig(),
                 overlap: Optional[OverlapModel] = None,
                 execution: Optional[ExecutionConfig] = None,
                 **knobs) -> None:
        """The execution knobs (``engine=``, ``batch_size=``,
        ``adaptivity=``, ``memory_budget_bytes=``, ``tracing=``, ...) are
        the fields of :class:`~repro.query.plans.ExecutionConfig` -- named,
        defaulted, validated and documented there -- given as keywords, as
        one ``execution`` value, or as a value plus keyword overrides.
        """
        self.database = database
        self.profile = profile
        self.spec = spec
        #: The execution configuration plans are planned for and run under.
        execution = self.execution = execution_config(execution, **knobs)
        self.processor = SimulatedProcessor(spec, os_interference=os_interference,
                                            overlap=overlap)
        self.planner = Planner(database.catalog, profile)
        self.code_layout = CodeLayout(profile, database.address_space)
        self.context = ExecutionContext(self.processor, profile,
                                        database.address_space,
                                        code_layout=self.code_layout,
                                        execution=execution)
        self.adaptive: Optional[AdaptiveExecution] = None
        if execution.is_adaptive:
            self.adaptive = AdaptiveExecution(execution.adaptivity,
                                              join_sides=execution.adaptive_joins,
                                              batch_sizing=execution.adaptive_batching)
            self.context.adaptive = self.adaptive

    def close(self) -> None:
        """End the session.  A session holds no resources beyond memory, so
        this does nothing; it exists so ``with Session(...)`` reads as the
        scope of one measurement."""

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- planning
    def plan(self, query: LogicalQuery) -> PhysicalPlan:
        return self.planner.plan(query)

    def explain(self, query: LogicalQuery) -> str:
        return describe_plan(self.plan(query))

    # ------------------------------------------------------------ execution
    def execute(self, query: LogicalQuery,
                warmup_runs: int = 1,
                queries_per_unit: int = 1,
                label: str = "",
                warmup_query: Optional[LogicalQuery] = None,
                plan: Optional[PhysicalPlan] = None) -> QueryResult:
        """Measure ``query`` following the paper's methodology.

        ``warmup_runs`` executions are performed first to warm the caches,
        TLBs and BTB; their counters are discarded.  The measured *unit* then
        executes the query ``queries_per_unit`` times back to back (the paper
        used units of ten) and the reported counters cover the whole unit.

        ``warmup_query`` optionally substitutes a different query for the
        warm-up runs.  The experiment runner uses this for the indexed range
        selection at reduced scale: warming up with a *shifted* key window
        exercises the same code paths and index structure without parking the
        measured window's records in the L2 cache (at the paper's full scale
        the 10% window is 23x the L2, so this distinction does not arise).

        ``plan`` optionally supplies a pre-planned physical plan for
        ``query`` (the serving layer's plan cache skips the planner this
        way); ``None`` plans the query here.  Planning charges nothing to
        the simulated hardware, so a cached plan changes no counts.
        """
        if plan is None:
            plan = self.plan(query)
        label = label or getattr(query, "label", "") or type(query).__name__

        warmup_plan = self.plan(warmup_query) if warmup_query is not None else plan
        for _ in range(max(warmup_runs, 0)):
            self._run_plan(warmup_plan)
        self.processor.reset_counters()
        invocations_before = self.context.snapshot_invocations()

        # The tracer (if any) covers exactly the measured unit: the root
        # span opens on freshly reset counters and closes before finalize,
        # so its synthesized delta equals the whole-unit counter set.
        # Warm-up runs stay untraced by construction.
        tracer = self._attach_tracer(label)
        rows: List[Dict[str, object]] = []
        try:
            for _ in range(max(queries_per_unit, 1)):
                rows = self._run_plan(plan)
        finally:
            self._detach_tracer(tracer)

        counters = self.processor.finalize()
        breakdown = ExecutionBreakdown.from_counters(counters, self.spec,
                                                     label=f"{self.profile.key}:{label}")
        metrics = compute_metrics(counters, self.spec)
        return QueryResult(system=self.profile.key, label=label,
                           plan_description=describe_plan(plan), rows=rows,
                           counters=counters, breakdown=breakdown, metrics=metrics,
                           queries_in_unit=max(queries_per_unit, 1),
                           engine=self.execution.engine,
                           routine_invocations=self._invocation_delta(invocations_before),
                           trace=tracer.root if tracer is not None else None)

    def execute_suite(self, queries: Sequence[LogicalQuery],
                      warmup_runs: int = 1, label: str = "") -> QueryResult:
        """Run a suite of different queries as one measured unit (TPC-D style)."""
        plans = [(self.plan(query), getattr(query, "label", "")) for query in queries]
        for plan, _ in plans:
            for _ in range(max(warmup_runs, 0)):
                self._run_plan(plan)
        self.processor.reset_counters()
        invocations_before = self.context.snapshot_invocations()
        tracer = self._attach_tracer(label or "suite")
        rows: List[Dict[str, object]] = []
        try:
            for plan, _ in plans:
                rows = self._run_plan(plan)
        finally:
            self._detach_tracer(tracer)
        counters = self.processor.finalize()
        breakdown = ExecutionBreakdown.from_counters(counters, self.spec,
                                                     label=f"{self.profile.key}:{label}")
        metrics = compute_metrics(counters, self.spec)
        return QueryResult(system=self.profile.key, label=label or "suite",
                           plan_description="\n".join(describe_plan(p) for p, _ in plans),
                           rows=rows, counters=counters, breakdown=breakdown,
                           metrics=metrics, queries_in_unit=len(plans),
                           engine=self.execution.engine,
                           routine_invocations=self._invocation_delta(invocations_before),
                           trace=tracer.root if tracer is not None else None)

    def _attach_tracer(self, label: str):
        """Install a tracer on the context for one measured unit.

        Returns ``None`` (and touches nothing) when ``tracing="off"`` --
        the structural bypass: no tracer object ever exists, and the hot
        paths only check ``ctx.tracer is None``.
        """
        if not self.execution.is_traced:
            return None
        tracer = Tracer(self.context, self.spec, self.execution.tracing,
                        label=label)
        self.context.tracer = tracer
        tracer.open_root()
        return tracer

    def _detach_tracer(self, tracer) -> None:
        if tracer is not None:
            tracer.close_root()
            self.context.tracer = None

    def _run_plan(self, plan: PhysicalPlan) -> List[Dict[str, object]]:
        if isinstance(plan, UpdatePlan):
            updated = execute_update(plan, self.database.catalog, self.context)
            return [{"updated": updated}]
        return execute_plan(plan, self.database.catalog, self.context)

    def _invocation_delta(self, before: Dict[str, int]) -> Dict[str, int]:
        """Routine invocations charged since the ``before`` snapshot."""
        after = self.context.op_invocations
        return {operation: after[operation] - before.get(operation, 0)
                for operation in after
                if after[operation] - before.get(operation, 0)}

    # -------------------------------------------------- transactional (OLTP)
    def execute_transaction(self, statements: Sequence[LogicalQuery]) -> int:
        """Execute one OLTP transaction (used by the TPC-C-style workload).

        Charges one ``txn_overhead`` for begin/commit, locking and logging,
        plus the per-statement work.  Returns the number of statements run.
        The caller is responsible for counter snapshots (the workload driver
        measures whole transaction batches, not single transactions).
        """
        self.context.visit("txn_overhead")
        for statement in statements:
            plan = self.plan(statement)
            if isinstance(plan, UpdatePlan):
                execute_update(plan, self.database.catalog, self.context,
                               charge_setup=False)
            else:
                execute_plan(plan, self.database.catalog, self.context)
        return len(statements)

    def measure(self) -> Tuple[EventCounters, ExecutionBreakdown, QueryMetrics]:
        """Finalize and report counters for work driven outside :meth:`execute`."""
        counters = self.processor.finalize()
        breakdown = ExecutionBreakdown.from_counters(counters, self.spec,
                                                     label=self.profile.key)
        metrics = compute_metrics(counters, self.spec)
        return counters, breakdown, metrics

    def reset_measurement(self) -> None:
        """Discard counters but keep cache/TLB/BTB contents (warm state)."""
        self.processor.reset_counters()
