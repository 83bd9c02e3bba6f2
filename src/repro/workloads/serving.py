"""Open-loop serving driver: a deterministic arrival trace over mixed classes.

The driver models *heavy traffic* against the serving layer the way queueing
studies do: an **open-loop** arrival process (clients submit on their own
schedule, they do not wait for earlier queries to finish) over a mix of the
microbenchmark's query classes.  Arrivals are Poisson-ish — exponential
interarrival gaps — but fully deterministic: the trace is drawn once from a
seeded :class:`random.Random`, so two runs of the same config submit the
exact same queries at the exact same instants.

Time is **virtual**: the simulator serves rounds back to back on the host,
and the driver advances a virtual clock by each round's measured wall-clock
service time.  A query's latency is therefore ``completion_virtual_time -
arrival_time`` — queueing delay included — which is exactly what the latency
of a real single-server queue with this service process would be.  Reported
throughput is ``queries / final_virtual_time``.

Simulated counts stay per-query and exact: the report also merges every
query's event counters, so a serving run's total simulated cycles can be
compared against back-to-back solo execution of the same trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..hardware.counters import EventCounters
from ..query.plans import LogicalQuery
from .micro import MicroWorkload

__all__ = ["ServingTraceConfig", "TraceItem", "ServingReport", "build_trace",
           "run_open_loop", "percentile"]

#: Query classes a trace can mix, mapped to their workload constructors.
TRACE_CLASSES = ("SRS-10", "SRS-50", "IRS", "SJ", "ACS")


@dataclass(frozen=True)
class ServingTraceConfig:
    """Parameters of one deterministic arrival trace."""

    queries: int = 48
    seed: int = 2026
    #: Mean of the exponential interarrival gap, in (virtual) seconds.  The
    #: default is far below any real service time, i.e. heavy traffic: the
    #: queue builds up and admission rounds run at full width.
    mean_interarrival_seconds: float = 0.0005
    classes: Tuple[str, ...] = TRACE_CLASSES
    #: Relative draw weights per class; ``None`` means uniform.
    weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.queries < 1:
            raise ValueError("trace needs at least one query")
        if self.mean_interarrival_seconds <= 0:
            raise ValueError("mean interarrival must be positive")
        unknown = set(self.classes) - set(TRACE_CLASSES)
        if unknown:
            raise ValueError(f"unknown trace classes {sorted(unknown)}")
        if self.weights is not None and len(self.weights) != len(self.classes):
            raise ValueError("weights must match classes")


@dataclass
class TraceItem:
    """One arrival of the trace."""

    index: int
    arrival_seconds: float
    class_key: str
    query: LogicalQuery


def _class_query(workload: MicroWorkload, class_key: str) -> LogicalQuery:
    if class_key == "SRS-10":
        return workload.sequential_range_selection()
    if class_key == "SRS-50":
        return workload.sequential_range_selection(0.5)
    if class_key == "IRS":
        return workload.indexed_range_selection()
    if class_key == "SJ":
        return workload.sequential_join()
    if class_key == "ACS":
        return workload.skewed_conjunct_selection()
    raise ValueError(f"unknown trace class {class_key!r}")


def build_trace(workload: MicroWorkload,
                config: Optional[ServingTraceConfig] = None) -> List[TraceItem]:
    """Draw the deterministic arrival trace for ``config``.

    Same config (queries, seed, rate, class mix) → byte-identical trace,
    which is what lets the bench gate assert cycle identity across repeats
    and lets the differential tests replay the exact trace serially.
    """
    config = config or ServingTraceConfig()
    rng = random.Random(config.seed)
    items: List[TraceItem] = []
    clock = 0.0
    for index in range(config.queries):
        clock += rng.expovariate(1.0 / config.mean_interarrival_seconds)
        class_key = rng.choices(config.classes,
                                weights=config.weights, k=1)[0]
        items.append(TraceItem(index=index, arrival_seconds=clock,
                               class_key=class_key,
                               query=_class_query(workload, class_key)))
    return items


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    ordered = sorted(values)
    rank = max(int(-(-fraction * len(ordered) // 1)), 1)  # ceil, >= 1
    return ordered[rank - 1]


@dataclass
class ServingReport:
    """What one open-loop run measured."""

    queries: int
    rounds: int
    #: Virtual seconds from first arrival epoch (0) to last completion.
    makespan_seconds: float
    throughput_qps: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    #: Sum of every query's simulated cycles (exact, deterministic).
    total_cycles: int
    #: Sum of every query's result-row count (exact, deterministic).
    total_rows: int
    counters: EventCounters
    latencies: List[float] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)
    #: Per-class telemetry: virtual-clock latency percentiles plus the
    #: server's cache/sharing counters for that class (see
    #: :class:`repro.serving.server.ClassStats`).
    classes: Dict[str, dict] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"queries": self.queries, "rounds": self.rounds,
                "makespan_seconds": self.makespan_seconds,
                "throughput_qps": self.throughput_qps,
                "latency_p50": self.latency_p50,
                "latency_p95": self.latency_p95,
                "latency_p99": self.latency_p99,
                "total_cycles": self.total_cycles,
                "total_rows": self.total_rows,
                "stats": dict(self.stats),
                "classes": {key: dict(value)
                            for key, value in sorted(self.classes.items())}}


def run_open_loop(server, trace: Sequence[TraceItem]) -> ServingReport:
    """Drive ``server`` with ``trace`` under the open-loop virtual clock.

    Queries are submitted the moment the virtual clock reaches their arrival
    instant; each :meth:`~repro.serving.server.Server.step` round advances
    the clock by its measured wall-clock service time; a query completes at
    the virtual time its round ends.  When the queue drains before the next arrival, the
    clock jumps forward to that arrival (the server idles).
    """
    items = sorted(trace, key=lambda item: (item.arrival_seconds, item.index))
    clock = 0.0
    next_arrival = 0
    submitted: Dict[int, TraceItem] = {}  # server future index -> trace item
    latencies: List[float] = []
    class_latencies: Dict[str, List[float]] = {}
    counters = EventCounters()
    rounds = 0
    completed = 0
    total_rows = 0
    while completed < len(items):
        if server.queue_depth == 0 and next_arrival < len(items):
            clock = max(clock, items[next_arrival].arrival_seconds)
        while (next_arrival < len(items)
               and items[next_arrival].arrival_seconds <= clock):
            item = items[next_arrival]
            future = server.submit(item.query,
                                   label=f"{item.class_key}#{item.index}")
            submitted[future.index] = item
            next_arrival += 1
        served, elapsed = server.step()
        clock += elapsed
        rounds += 1
        for future in served:
            item = submitted[future.index]
            latency = clock - item.arrival_seconds
            latencies.append(latency)
            class_latencies.setdefault(item.class_key, []).append(latency)
            outcome = future.result()  # re-raises a failed query's error
            counters.merge(outcome.result.counters)
            total_rows += len(outcome.rows)
        completed += len(served)
    stats = server.stats.as_dict()
    server_classes = stats.get("classes", {})
    classes: Dict[str, dict] = {}
    for class_key, values in class_latencies.items():
        cell = {"queries": len(values),
                "latency_p50": percentile(values, 0.50),
                "latency_p95": percentile(values, 0.95),
                "latency_p99": percentile(values, 0.99)}
        cell.update(server_classes.get(class_key, {}))
        classes[class_key] = cell
    return ServingReport(
        queries=len(items), rounds=rounds, makespan_seconds=clock,
        throughput_qps=len(items) / clock if clock > 0 else float("inf"),
        latency_p50=percentile(latencies, 0.50),
        latency_p95=percentile(latencies, 0.95),
        latency_p99=percentile(latencies, 0.99),
        total_cycles=counters.get("CPU_CLK_UNHALTED"),
        total_rows=total_rows,
        counters=counters, latencies=latencies,
        stats=stats, classes=classes)
