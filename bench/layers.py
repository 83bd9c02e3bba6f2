"""Per-layer metrics of the traced run.

A layer is a ``src/repro/`` package (or one boundary inside it); the names
are the ones ``BENCHMARK.json`` declares under ``per_layer``.
``bench/README.md`` lists, for each, the end-to-end metric and workload it
is predicted to move.
"""

from __future__ import annotations

import gc
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterator, List, Sequence

from repro.hardware.native import load_native
from repro.storage.buffer_pool import BufferPool

from spans import ROOT_LAYER, Recorder
from workloads import PassResult

#: Layers reported as span self time per op.
SELF_MS_LAYERS = (
    "storage.page_decode", "storage.heap_scan", "storage.heap_update",
    "storage.buffer_pool", "storage.restore", "index.search", "query.plan",
    "execution.operators", "execution.kernels", "execution.charging",
    "hardware.processor", "hardware.construct",
    "execution.parallel.tape_replay", "execution.parallel.shared_scan",
    "adaptive", "engine.session_init", "engine.session_close",
    "analysis.breakdown", "serving.step", "serving.normalize",
    "serving.result_cache", ROOT_LAYER)

#: Layers also reported as boundary entries per op.
CALLS_LAYERS = ("storage.page_decode", "index.search", "query.plan",
                "execution.kernels", "execution.charging", "adaptive")


def process_rss_kb() -> float:
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * 4096 / 1024


class GcWatch:
    """Collections and pause time seen through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.gen2_collections = 0
        self.pause_seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
        else:
            self.pause_seconds += perf_counter() - self._started
            if info["generation"] == 2:
                self.gen2_collections += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


class PoolCensus:
    """Buffer-pool statistics summed over a block of passes.

    The spilling join builds its own capacity-limited pool inside the
    operator, so the census notes every pool constructed inside the block
    beside the catalog pools of the workload's databases.
    """

    FIELDS = ("fetches", "hits", "evictions")

    def __init__(self, databases: Sequence[object]) -> None:
        self._catalog_pools = [pool for database in databases
                               for pool in (database.catalog.heap_pool,
                                            database.catalog.index_pool)]
        self._created: List[BufferPool] = []
        self.totals = dict.fromkeys(self.FIELDS, 0)

    def _sum(self, pools) -> Dict[str, int]:
        return {name: sum(getattr(pool.stats, name) for pool in pools)
                for name in self.FIELDS}

    @contextmanager
    def counting(self) -> Iterator[None]:
        original = BufferPool.__init__
        created = self._created

        def constructed(pool, *args, **kwargs):
            original(pool, *args, **kwargs)
            created.append(pool)

        before = self._sum(self._catalog_pools)
        BufferPool.__init__ = constructed
        try:
            yield
        finally:
            BufferPool.__init__ = original
            after = self._sum(self._catalog_pools + created)
            self.totals = {name: after[name] - before[name]
                           for name in self.FIELDS}


@dataclass
class TracedRun:
    """Everything the traced run of one workload observed."""

    recorder: Recorder
    #: Reference passes with no wrapper installed.
    plain: List[PassResult]
    #: Passes under ``spans.tracing``.
    traced: List[PassResult]
    #: Passes with the engine's own ``tracing="spans"`` knob (no wrappers).
    knob: List[PassResult]
    pools: PoolCensus
    gc_watch: GcWatch
    #: Growth over the plain passes, after ``gc.collect()`` at both ends.
    rss_kb_growth: float = 0.0
    gc_objects_growth: int = 0


def pass_cost(passes: Sequence[PassResult]) -> float:
    """Median host seconds per pass, summed over the kinds of pass."""
    by_kind: Dict[str, List[float]] = {}
    for result in passes:
        by_kind.setdefault(result.kind, []).append(result.host_seconds)
    return sum(statistics.median(values) for values in by_kind.values())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _ops(passes: Sequence[PassResult]) -> int:
    return sum(len(result.ops) for result in passes)


def layer_metrics(run: TracedRun) -> Dict[str, float]:
    recorder = run.recorder
    names = recorder.name_totals()
    layers: Dict[str, List[float]] = {}
    for name, (calls, self_seconds) in names.items():
        cell = layers.setdefault(name.split(":", 1)[0], [0, 0.0])
        cell[0] += calls
        cell[1] += self_seconds
    traced_ops = _ops(run.traced)
    plain_ops = _ops(run.plain)

    metrics: Dict[str, float] = {}
    for layer in SELF_MS_LAYERS:
        metrics[f"{layer}.self_ms_per_op"] = _ratio(
            layers.get(layer, (0, 0.0))[1] * 1e3, traced_ops)
    for layer in CALLS_LAYERS:
        metrics[f"{layer}.calls_per_op"] = _ratio(
            layers.get(layer, (0, 0.0))[0], traced_ops)
    root_seconds = sum(root for root, _ in recorder.op_accounts().values())
    metrics["query.plan.share"] = _ratio(
        layers.get("query.plan", (0, 0.0))[1], root_seconds)
    metrics["execution.kernels.fallbacks_per_op"] = _ratio(
        recorder.kernel_fallbacks, traced_ops)
    charging = "execution.charging:ExecutionContext."
    metrics["storage.spill.page_reads_per_op"] = _ratio(
        names.get(charging + "page_io_in", (0, 0.0))[0], traced_ops)
    metrics["storage.spill.page_writes_per_op"] = _ratio(
        names.get(charging + "page_io_out", (0, 0.0))[0], traced_ops)
    pools = run.pools.totals
    metrics["storage.buffer_pool.hit_rate"] = _ratio(pools["hits"],
                                                     pools["fetches"])
    metrics["storage.buffer_pool.evictions_per_op"] = _ratio(
        pools["evictions"], traced_ops)
    metrics["workloads.build.self_s"] = layers.get("workloads.build",
                                                   (0, 0.0))[1]

    # Modelled-hardware counts behind sim_cycles: exact, from the ops' own
    # counters; host time per simulated event from the untraced passes.
    sims = [record.sim for result in run.traced for record in result.ops
            if record.sim is not None]
    instructions, l1d, l1i, l2_data, l2_code, mispredictions, stall, total = (
        (sum(column) for column in zip(*sims)) if sims else (0,) * 8)
    metrics["hardware.native_loaded"] = float(load_native() is not None)
    metrics["hardware.sim_instructions_per_op"] = _ratio(instructions,
                                                         traced_ops)
    metrics["hardware.l1d_misses_per_op"] = _ratio(l1d, traced_ops)
    metrics["hardware.l1i_misses_per_op"] = _ratio(l1i, traced_ops)
    metrics["hardware.l2_misses_per_op"] = _ratio(l2_data + l2_code,
                                                  traced_ops)
    metrics["hardware.br_mispredictions_per_op"] = _ratio(mispredictions,
                                                          traced_ops)
    metrics["hardware.stall_share"] = _ratio(stall, total)
    plain_instructions = sum(record.sim[0] for result in run.plain
                             for record in result.ops
                             if record.sim is not None)
    plain_busy = sum(
        result.serving["busy_seconds"] if result.serving
        else sum(record.seconds or 0.0 for record in result.ops)
        for result in run.plain)
    metrics["hardware.host_us_per_sim_kinstr"] = _ratio(
        plain_busy * 1e6, plain_instructions / 1e3)

    metrics["engine.rss_kb_per_op"] = _ratio(run.rss_kb_growth, plain_ops)
    metrics["engine.gc_objects_per_op"] = _ratio(run.gc_objects_growth,
                                                 plain_ops)
    metrics["engine.gc_gen2_collections"] = float(
        run.gc_watch.gen2_collections)
    metrics["engine.gc_pause_ms_total"] = run.gc_watch.pause_seconds * 1e3

    metrics.update(_serving_metrics(run.plain))
    plain_cost = pass_cost(run.plain)
    metrics["observability.spans_overhead_ratio"] = _ratio(
        pass_cost(run.knob), plain_cost)
    metrics["bench.trace_overhead_ratio"] = _ratio(pass_cost(run.traced),
                                                   plain_cost)
    return metrics


def _serving_metrics(passes: Sequence[PassResult]) -> Dict[str, float]:
    """Counts and service times of the serving layers (untraced passes)."""
    serving = [result for result in passes if result.serving]
    stats = [result.serving["stats"] for result in serving]
    completed = sum(stat.completed for stat in stats)
    hits = sum(stat.result_cache_hits for stat in stats)
    planned = completed - hits - sum(stat.updates for stat in stats)
    recordings = sum(stat.shared_scan_recordings for stat in stats)
    reuses = sum(stat.shared_scan_reuses for stat in stats)
    records = [record for result in serving for record in result.ops
               if record.seconds is not None]
    hit_service = [record.service_seconds for record in records
                   if record.cached]
    miss_service = [record.service_seconds for record in records
                    if not record.cached]
    paced = [result for result in serving if result.kind == "paced"]
    return {
        "serving.result_cache.hit_ratio": _ratio(hits, completed),
        "serving.plan_cache.hit_ratio": _ratio(
            sum(stat.plan_cache_hits for stat in stats), planned),
        "serving.shared_scan.reuse_ratio": _ratio(reuses,
                                                  recordings + reuses),
        "serving.rounds_per_pass": _ratio(
            sum(result.serving["rounds"] for result in serving),
            len(serving)),
        "serving.queue_depth_high_water": float(max(
            (stat.queue_depth_high_water for stat in stats), default=0)),
        "serving.hit_service_us_p50": (
            statistics.median(hit_service) * 1e6 if hit_service else 0.0),
        "serving.miss_service_ms_p50": (
            statistics.median(miss_service) * 1e3 if miss_service else 0.0),
        "serving.paced_utilisation": _ratio(
            sum(result.serving["busy_seconds"] for result in paced),
            sum(result.clock_seconds for result in paced)),
        "serving.paced_backlog_end": float(max(
            (result.serving["backlog_end"] for result in paced), default=0)),
    }
