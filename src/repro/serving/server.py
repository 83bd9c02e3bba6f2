"""A queued admission front-end over one shared warmed database build.

:class:`Server` is the serving layer the ROADMAP's "heavy traffic" north
star calls for: many logical sessions against **one** warmed database build,
admitted in rounds of at most ``max_concurrency`` queries.  Every admitted
query gets what the measurement discipline requires — its own simulated
processor, its own :class:`~repro.execution.context.ExecutionContext`, and
an address space rolled back to the post-build checkpoint — so each query's
rows and simulated counts are exactly those of a solo session against a
fresh build.  On top of that baseline, three stacked performance layers
remove *host-side* work without touching the per-query simulated story:

1. a **plan cache** (:class:`~repro.serving.cache.PlanCache`): repeated
   query classes skip the planner (a rule match plus, for an index-eligible
   selection, two descents of the column's index — about ten microseconds
   of wall clock, zero simulated cost);
2. a **result cache** (:class:`~repro.serving.cache.ResultCache`): a
   repeat of a query whose tables have not changed returns the cached rows
   with a small charged cache-probe cost instead of re-executing — the one
   layer that (by design, and documented in DESIGN.md) changes a query's
   simulated counts;
3. **shared scans**
   (:class:`~repro.execution.parallel.SharedScanCoordinator`): queries of
   one admission round whose plans contain the same sequential-scan leaf
   ride one recorded scan; each query replays the recording's charge
   tapes into its own context, keeping counts identical to solo execution
   while the scan's data work runs once per round.

Concurrency here is *logical*: queries of a round are served back to back on
the host (the simulator is single-threaded by design), and the open-loop
driver (:mod:`repro.workloads.serving`) accounts for time with a virtual
clock advanced by measured service wall time — so throughput and latency
percentiles mean what they would in a real queued server.

With every layer disabled (``plan_cache=False, result_cache=False,
shared_scans=False``) the server is a thin loop over
``Session.execute(query, warmup_runs=0)`` and is bit-identical to running
each query in its own solo session — the differential tests assert this.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from ..analysis.breakdown import ExecutionBreakdown
from ..analysis.metrics import QueryMetrics, compute_metrics
from ..engine.database import Database
from ..engine.session import QueryResult, Session
from ..execution.parallel import SharedScanCoordinator
from ..hardware.counters import EventCounters
from ..hardware.os_interference import OSInterferenceConfig
from ..hardware.specs import PENTIUM_II_XEON, ProcessorSpec
from ..observability import TraceNode
from ..query.plans import (ENGINE_VECTORIZED, ExecutionConfig, LogicalQuery,
                           UpdateQuery, execution_config)
from ..systems.profile import SystemProfile
from ..workloads.serving import percentile
from .cache import PlanCache, ResultCache, normalize_query, query_tables

__all__ = ["Server", "ServingFuture", "QueryOutcome", "ServerStats"]

#: Bytes of the simulated result-cache directory entry a hit probes.
_PROBE_ENTRY_BYTES = 64
#: Bytes of the entry actually read on a hit (key hash + rows pointer).
_PROBE_READ_BYTES = 16


class _ProbeCharge(NamedTuple):
    """The finished parts of every result-cache hit serving one row count.

    Built once by :meth:`Server._probe_charge`.  The mutable parts are
    templates a hit copies; only :attr:`metrics`, a frozen dataclass, is
    handed out as is.
    """

    counters: EventCounters
    components: Dict[str, float]
    total_cycles: float
    metrics: QueryMetrics
    invocations: Dict[str, int]


@dataclass
class QueryOutcome:
    """What the server did for one submitted query."""

    result: QueryResult
    plan_cached: bool = False
    result_cached: bool = False
    #: True when this query rode a scan recorded by an *earlier* query of
    #: its admission round (the recording query itself reports False).
    shared_scan: bool = False
    #: Host wall-clock seconds this query's service took.
    service_seconds: float = 0.0

    @property
    def rows(self) -> List[Dict[str, object]]:
        return self.result.rows

    @property
    def cycles(self) -> int:
        return self.result.counters.get("CPU_CLK_UNHALTED")


class ServingFuture:
    """Handle for a submitted query; resolves when its round is served --
    to an :attr:`outcome`, or to the :attr:`error` the query raised."""

    __slots__ = ("_server", "index", "query", "label", "outcome", "error")

    def __init__(self, server: "Server", index: int, query: LogicalQuery,
                 label: str) -> None:
        self._server = server
        self.index = index
        self.query = query
        self.label = label
        self.outcome: Optional[QueryOutcome] = None
        self.error: Optional[Exception] = None

    def done(self) -> bool:
        return self.outcome is not None or self.error is not None

    def result(self) -> QueryOutcome:
        """The outcome, serving queued rounds until this query completes;
        re-raises the query's own exception if it failed."""
        while not self.done():
            served, _ = self._server.step()
            if not served:
                raise RuntimeError("future cannot resolve: server queue idle")
        if self.error is not None:
            raise self.error
        return self.outcome


def _service_histogram(values: List[float]) -> Dict[str, int]:
    """Power-of-two bucket counts over service seconds (keys are upper
    bounds like ``"<2^-10s"``), deterministic and JSON-friendly."""
    histogram: Dict[str, int] = {}
    for value in values:
        exponent = -30
        while (2.0 ** exponent) < value and exponent < 10:
            exponent += 1
        key = f"<2^{exponent}s"
        histogram[key] = histogram.get(key, 0) + 1
    return dict(sorted(histogram.items(),
                       key=lambda item: int(item[0][3:-1])))


@dataclass
class ClassStats:
    """Per-query-class serving telemetry (SRS-10/SRS-50/IRS/SJ/ACS/...)."""

    completed: int = 0
    result_cache_hits: int = 0
    plan_cache_hits: int = 0
    shared_scan_rides: int = 0
    service_seconds: List[float] = field(default_factory=list)

    @property
    def cache_hit_ratio(self) -> float:
        """Result-cache hits over completions (misses = executions)."""
        return self.result_cache_hits / self.completed if self.completed else 0.0

    def as_dict(self) -> dict:
        out = {"completed": self.completed,
               "result_cache_hits": self.result_cache_hits,
               "result_cache_misses": self.completed - self.result_cache_hits,
               "cache_hit_ratio": round(self.cache_hit_ratio, 6),
               "plan_cache_hits": self.plan_cache_hits,
               "shared_scan_rides": self.shared_scan_rides}
        if self.service_seconds:
            out["service_p50"] = round(percentile(self.service_seconds, 0.50), 6)
            out["service_p95"] = round(percentile(self.service_seconds, 0.95), 6)
            out["service_p99"] = round(percentile(self.service_seconds, 0.99), 6)
            out["service_histogram"] = _service_histogram(self.service_seconds)
        return out


@dataclass
class RoundRecord:
    """One admission round's span: what was admitted and how long it took."""

    round_index: int
    queue_depth: int
    admitted: int
    service_seconds: float

    def as_dict(self) -> dict:
        return {"round": self.round_index, "queue_depth": self.queue_depth,
                "admitted": self.admitted,
                "service_seconds": round(self.service_seconds, 6)}


@dataclass
class ServerStats:
    """Cumulative serving statistics plus live telemetry.

    Beyond the run totals, the server records a queue-depth high-water
    mark and time series (sampled at each admission round), one
    :class:`RoundRecord` per round (the round's admission/service span),
    and per-class :class:`ClassStats` with service-time percentiles,
    histograms and cache hit/miss ratios.  All of it is host-side
    observation; no simulated count changes.
    """

    submitted: int = 0
    completed: int = 0
    #: Queries whose execution raised; their futures re-raise the error.
    failed: int = 0
    rounds: int = 0
    plan_cache_hits: int = 0
    result_cache_hits: int = 0
    shared_scan_recordings: int = 0
    shared_scan_reuses: int = 0
    updates: int = 0
    epochs: Dict[str, int] = field(default_factory=dict)
    queue_depth_high_water: int = 0
    #: ``(round_index, queue_depth_before_admission)`` samples.
    queue_depth_series: List[Tuple[int, int]] = field(default_factory=list)
    round_log: List[RoundRecord] = field(default_factory=list)
    classes: Dict[str, ClassStats] = field(default_factory=dict)

    def class_stats(self, class_key: str) -> ClassStats:
        stats = self.classes.get(class_key)
        if stats is None:
            stats = self.classes[class_key] = ClassStats()
        return stats

    def as_dict(self) -> dict:
        return {"submitted": self.submitted, "completed": self.completed,
                "failed": self.failed, "rounds": self.rounds,
                "plan_cache_hits": self.plan_cache_hits,
                "result_cache_hits": self.result_cache_hits,
                "shared_scan_recordings": self.shared_scan_recordings,
                "shared_scan_reuses": self.shared_scan_reuses,
                "updates": self.updates,
                "queue_depth_high_water": self.queue_depth_high_water,
                "queue_depth_series": [list(sample) for sample
                                       in self.queue_depth_series],
                "rounds_log": [record.as_dict() for record in self.round_log],
                "classes": {key: stats.as_dict() for key, stats
                            in sorted(self.classes.items())}}


class Server:
    """Queued query serving against one shared warmed database build.

    ``database``/``checkpoint`` are a warmed build and its post-build
    address-space checkpoint (e.g. from
    :meth:`~repro.experiments.runner.ExperimentRunner.grid_database`).  The
    server restores the checkpoint before serving each query, which is what
    makes every query's addresses — and therefore its simulated counts —
    identical to a solo session against a fresh build.

    ``max_concurrency`` bounds how many queued queries one admission round
    serves (and how many logical-session spill namespaces exist);
    ``plan_cache``/``result_cache``/``shared_scans`` toggle the three
    performance layers independently.  The execution knobs of the per-query
    measurement sessions (an ``execution`` value and/or the keyword fields
    of :class:`~repro.query.plans.ExecutionConfig`, validated here, at
    construction) are :class:`Session`'s, except that the serving layer's
    engine defaults to ``"vectorized"`` (shared scans need it).
    """

    def __init__(self, database: Database, checkpoint: Dict[str, int],
                 profile: SystemProfile,
                 spec: ProcessorSpec = PENTIUM_II_XEON, *,
                 max_concurrency: int = 8,
                 plan_cache: bool = True,
                 result_cache: bool = True,
                 shared_scans: bool = True,
                 os_interference: Optional[OSInterferenceConfig] = None,
                 execution: Optional[ExecutionConfig] = None,
                 **knobs) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be at least 1")
        if execution is None:
            knobs.setdefault("engine", ENGINE_VECTORIZED)
        self.execution = execution_config(execution, **knobs)
        self.database = database
        self.checkpoint = dict(checkpoint)
        self.profile = profile
        self.spec = spec
        self.max_concurrency = max_concurrency
        self.os_interference = os_interference
        self.plan_cache: Optional[PlanCache] = PlanCache() if plan_cache else None
        self.result_cache: Optional[ResultCache] = (ResultCache()
                                                    if result_cache else None)
        self.shared_scans = shared_scans
        self.stats = ServerStats()
        self._queue: Deque[ServingFuture] = deque()
        self._submitted = 0
        #: Memoized probe charge per cached-result row count; the probe
        #: simulation is deterministic, so re-running it -- or re-deriving
        #: its breakdown and metrics -- per hit would only burn wall time
        #: producing identical results.
        self._probe_memo: Dict[int, _ProbeCharge] = {}

    # ---------------------------------------------------------------- intake
    def submit(self, query: LogicalQuery, label: str = "") -> ServingFuture:
        """Enqueue a query; returns a future resolved when its round runs."""
        future = ServingFuture(self, self._submitted, query,
                               label or getattr(query, "label", "")
                               or type(query).__name__)
        self._submitted += 1
        self.stats.submitted += 1
        self._queue.append(future)
        if len(self._queue) > self.stats.queue_depth_high_water:
            self.stats.queue_depth_high_water = len(self._queue)
        return future

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # --------------------------------------------------------------- serving
    def step(self) -> Tuple[List[ServingFuture], float]:
        """Serve one admission round (≤ ``max_concurrency`` queued queries).

        Returns the served futures -- each resolved to an outcome or to
        the error its query raised -- and the round's host wall-clock
        seconds.  An empty queue returns ``([], 0.0)``.
        """
        if not self._queue:
            return [], 0.0
        depth_before = len(self._queue)
        admitted = [self._queue.popleft()
                    for _ in range(min(self.max_concurrency, len(self._queue)))]
        round_start = time.perf_counter()
        coordinator = (SharedScanCoordinator()
                       if self.shared_scans else None)
        for future in admitted:
            try:
                self._serve_one(future, coordinator)
            except Exception as error:
                # A failing query is that query's outcome, not the round's:
                # the other admitted futures are served and the round is
                # logged as any other.  Epochs and caches only change after
                # a successful execution and an update's lookup never
                # records a shared scan, so a failed update left nothing
                # behind.
                future.error = error
                self.stats.failed += 1
        if coordinator is not None:
            self.stats.shared_scan_recordings += coordinator.recordings
            self.stats.shared_scan_reuses += coordinator.reuses
        elapsed = time.perf_counter() - round_start
        self.stats.queue_depth_series.append((self.stats.rounds, depth_before))
        self.stats.round_log.append(RoundRecord(
            round_index=self.stats.rounds, queue_depth=depth_before,
            admitted=len(admitted), service_seconds=elapsed))
        self.stats.rounds += 1
        return admitted, elapsed

    def run_until_idle(self) -> List[ServingFuture]:
        """Serve rounds until the queue drains; returns every served future."""
        served: List[ServingFuture] = []
        while self._queue:
            done, _ = self.step()
            served.extend(done)
        return served

    # ------------------------------------------------------------- internals
    def _epoch(self, table: str) -> int:
        return self.stats.epochs.get(table, 0)

    def _session(self, index: int) -> Session:
        """A fresh measurement session for one admitted query.

        The address space is rolled back to the shared build's checkpoint
        first, so the session's transient allocations land at the exact
        solo-session addresses; its spill backing store is then pointed at
        the logical session slot's private namespace (reset to empty), so
        concurrent budgeted joins never collide on backing-store pages.
        """
        self.database.address_space.restore(self.checkpoint)
        session = Session(self.database, self.profile, spec=self.spec,
                          os_interference=self.os_interference,
                          execution=self.execution)
        slot = index % self.max_concurrency
        namespace = f"disk.s{slot}"
        region = self.database.address_space.ensure_region(namespace)
        region.cursor = 0
        session.context.disk_namespace = namespace
        return session

    def _serve_one(self, future: ServingFuture,
                   coordinator: Optional[SharedScanCoordinator]) -> None:
        start = time.perf_counter()
        query = future.query
        key = normalize_query(query)
        tables = query_tables(query)
        cache_key = (key, tuple(self._epoch(t) for t in tables))
        is_update = isinstance(query, UpdateQuery)
        class_stats = self.stats.class_stats(future.label.split("#", 1)[0])

        if self.result_cache is not None and not is_update:
            entry = self.result_cache.get(cache_key)
            if entry is not None:
                outcome = self._serve_hit(future, entry)
                outcome.service_seconds = time.perf_counter() - start
                future.outcome = outcome
                self.stats.result_cache_hits += 1
                self.stats.completed += 1
                class_stats.completed += 1
                class_stats.result_cache_hits += 1
                class_stats.service_seconds.append(outcome.service_seconds)
                return

        session = self._session(future.index)
        plan = None
        plan_cached = False
        if self.plan_cache is not None and not is_update:
            plan = self.plan_cache.get(cache_key)
            plan_cached = plan is not None
        if plan is None:
            plan = session.plan(query)
            if self.plan_cache is not None and not is_update:
                self.plan_cache.put(cache_key, plan, tables)
        if plan_cached:
            self.stats.plan_cache_hits += 1

        reuses_before = coordinator.reuses if coordinator is not None else 0
        if coordinator is not None:
            session.context.shared_scans = coordinator
        result = session.execute(query, warmup_runs=0, label=future.label,
                                 plan=plan)
        shared = (coordinator is not None
                  and coordinator.reuses > reuses_before)

        if is_update:
            # The epoch bump makes old cache entries unreachable; the
            # eager invalidations reclaim them.  Dropping the round's
            # shared-scan recordings is a *correctness* requirement: a
            # later query of this round must re-record from live data,
            # not replay the pre-update stream (whose stale rows would
            # then be cached under the table's new epoch).
            for table in tables:
                self.stats.epochs[table] = self._epoch(table) + 1
                if self.result_cache is not None:
                    self.result_cache.invalidate_table(table)
                if self.plan_cache is not None:
                    self.plan_cache.invalidate_table(table)
                if coordinator is not None:
                    coordinator.drop_table(table)
            self.stats.updates += 1
        elif self.result_cache is not None:
            self.result_cache.put(cache_key, result.rows,
                                  result.plan_description, tables)

        future.outcome = QueryOutcome(result=result, plan_cached=plan_cached,
                                      shared_scan=shared,
                                      service_seconds=time.perf_counter() - start)
        self.stats.completed += 1
        class_stats.completed += 1
        if plan_cached:
            class_stats.plan_cache_hits += 1
        if shared:
            class_stats.shared_scan_rides += 1
        class_stats.service_seconds.append(future.outcome.service_seconds)

    def _probe_charge(self, row_count: int) -> _ProbeCharge:
        """The finished charge of one cache probe serving ``row_count`` rows.

        The probe runs against restored addresses on a cold simulated
        processor, so its counts are a pure function of the row count for a
        fixed server configuration.  The first probe of each row count runs
        the real simulation and derives from its counters everything a hit
        reports: a counter template holding all 30 events (zeros included,
        as a hit has always reported them), the Table 4.2 breakdown's
        components and total, the metrics and the routine invocations.
        Later probes reuse that memo without paying the session
        construction or the formulae again.
        """
        memo = self._probe_memo.get(row_count)
        if memo is not None:
            return memo
        session = self._session(0)
        ctx = session.context
        invocations_before = ctx.snapshot_invocations()
        ctx.visit("query_setup")
        probe = ctx.allocate_workspace(_PROBE_ENTRY_BYTES)
        ctx.read_address(probe, _PROBE_READ_BYTES)
        if row_count:
            ctx.row_produced(row_count)
        template = EventCounters.from_dict(session.processor.finalize().as_dict())
        breakdown = ExecutionBreakdown.from_counters(template, self.spec)
        memo = _ProbeCharge(
            counters=template, components=breakdown.components,
            total_cycles=breakdown.total_cycles,
            metrics=compute_metrics(template, self.spec),
            invocations=session._invocation_delta(invocations_before))
        self._probe_memo[row_count] = memo
        return memo

    def _serve_hit(self, future: ServingFuture, entry) -> QueryOutcome:
        """Serve cached rows with a charged cache-probe cost.

        A hit's charged work is the modelled probe: the query-setup routine,
        one read of the cache directory entry, and the per-row result
        delivery — simulated on a fresh cold processor against restored
        addresses and memoized per row count, breakdown and metrics
        included (see :meth:`_probe_charge`).  A hit copies the memo's
        counters, components and invocations, so nothing mutable is shared
        between two hits or with the memo; the frozen metrics are shared.
        The returned :class:`QueryResult` is shaped exactly like an executed
        one, so drivers aggregate hits and misses uniformly.
        """
        rows = entry.rows
        template, components, total_cycles, metrics, invocations = \
            self._probe_charge(len(rows))
        counters = template.snapshot()
        label = future.label
        breakdown = ExecutionBreakdown(
            components=dict(components), total_cycles=total_cycles,
            counters=template.snapshot(),
            label=f"{self.profile.key}:{label}")
        trace = None
        if self.execution.is_traced:
            # A hit never runs operators, so the trace is a single
            # phase-level span covering the charged probe cost.
            trace = TraceNode.leaf("result_cache_probe", counters)
        result = QueryResult(
            system=self.profile.key, label=label,
            plan_description="ResultCache hit\n" + entry.plan_description,
            rows=rows, counters=counters, breakdown=breakdown,
            metrics=metrics, engine=self.execution.engine,
            routine_invocations=dict(invocations), trace=trace)
        return QueryOutcome(result=result, result_cached=True)
