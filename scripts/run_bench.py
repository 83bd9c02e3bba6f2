#!/usr/bin/env python
"""Simulated-cycle grid of the Figure 5.1-style queries, and its gate.

Measures a table of grid cells, each one
:class:`~repro.experiments.runner.Cell` handed to the shared
:class:`~repro.experiments.runner.ExperimentRunner` (build once per dataset
and layout, restore the post-build checkpoint, fresh session, execute):

* the microbenchmark queries ``SRS``/``IRS``/``SJ`` under every engine x
  layout combination (tuple/vectorized x NSM/PAX);
* the adaptivity cells ``ACS``/``AJS``/``ABS`` (see
  :data:`~repro.experiments.runner.ADAPTIVE_KINDS`), each measured
  off/static/greedy on both layouts, recording greedy's reduction over the
  planner-frozen static execution;
* the memory-budget sweep ``SJB-inf/2x/1x/0.5x`` (the join under a
  ``memory_budget_bytes`` of infinity / 2x / 1x / 0.5x the build side's
  footprint, exercising the grace/hybrid spilling path; the ``inf`` cells
  are gated cycle-identical to the plain ``SJ`` cells);
* the concurrent-serving cells ``SRV-serial``/``SRV-8`` (the open-loop mixed
  arrival trace served back to back vs at concurrency 8 with plan/result
  caches and shared scans; throughput and p50/p95/p99 latency recorded);
* the TPC cells ``tpc/{nsm,pax}/{TPCD,TPCC}`` (the 17-query suite and the
  transaction mix, vectorized engine) and the sweep points
  ``sweep/{nsm,pax}/{SEL-50,RS-200}``;

and emits a ``BENCH_<stamp>.json`` into ``benchmarks/results/`` (gitignored;
override with ``--out-dir``) recording, per cell:

* ``cycles`` -- simulated ``CPU_CLK_UNHALTED`` (the *modelled* speed, which
  must not change when the simulator gets faster) -- what this script gates,
* ``wall_seconds`` -- best-of-``--repeat`` wall-clock time of the measured
  execution, recorded as data only: host-time claims are made with
  ``bench/run.py`` + ``bench/compare.py`` (medians, spread, bounds), never
  from single samples of 3-400 ms cells.

The record's header carries ``native_status`` once
(``repro.hardware.native.load_status()``, ``"loaded"`` in any run that got
this far: the native hardware automata are required).

Every repeat restores the cell's build to its post-build checkpoint, so run
N is bit-identical to run 1 (and to a run against a freshly built database)
-- asserted per cell -- and independent cells can be dispatched to a
fork-based process pool (``--grid-workers``).  ``--parallelism N``
additionally runs each vectorized cell through the morsel-parallel exchange;
simulated cycles are identical for every N by design.

``--compare-to`` embeds a previous BENCH json, prints a per-cell cycle
table, and acts as the **cycle gate**: the exit status is non-zero when any
cell's simulated cycles differ from the baseline or a baseline cell was not
measured.

Usage::

    PYTHONPATH=src python scripts/run_bench.py
    PYTHONPATH=src python scripts/run_bench.py --repeat 5 --compare-to BENCH_x.json
    PYTHONPATH=src python scripts/run_bench.py --grid-workers 4 --parallelism 2
    PYTHONPATH=src python scripts/run_bench.py --cells 'serving/*'
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import replace
from typing import Dict, List, NamedTuple, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.experiments.runner import (ADAPTIVE_KINDS, Cell, ExperimentConfig,
                                      ExperimentRunner, adaptive_cell)
from repro.hardware.counters import EventCounters
from repro.hardware.native import load_status
from repro.systems import SYSTEM_B
from repro.workloads.micro import MicroWorkloadConfig
from repro.workloads.serving import ServingTraceConfig, build_trace, run_open_loop
from repro.workloads.tpcc import TPCCConfig
from repro.workloads.tpcd import TPCDConfig

ENGINES = ("tuple", "vectorized")
LAYOUTS = ("nsm", "pax")
QUERY_KINDS = ("SRS", "IRS", "SJ")

#: Memory-budget sweep of the join (vectorized engine only), measured under
#: ``memory_budget_bytes`` set to infinity (``None`` -- the structural
#: bypass, gated cycle-identical to the plain ``SJ`` cell), then 2x / 1x /
#: 0.5x of the build side's byte footprint (``MicroWorkloadConfig.s_bytes``).
#: Finite budgets exercise the grace/hybrid spilling join through the buffer
#: pool's backing store; each cell records the budget and the charged page
#: I/O.  Pinned to a serial session: the spilling join's page-I/O schedule
#: depends on ingest order.
BUDGET_KINDS = ("SJB-inf", "SJB-2x", "SJB-1x", "SJB-0.5x")

#: Adaptivity modes measured on the adaptive cells: ``off`` anchors the
#: bit-identity contract of the legacy path, ``static`` runs the adaptive
#: machinery with the planner's decisions (the control arm), ``greedy``
#: adapts from runtime observations.
ADAPTIVE_MODES = ("off", "static", "greedy")

#: Concurrent-serving cells: the open-loop mixed-class arrival trace
#: (:mod:`repro.workloads.serving`) driven through the serving layer.
#: ``SRV-serial`` serves the trace back to back (``max_concurrency=1``,
#: plan/result caches and shared scans all off -- per-query counts are
#: bit-identical to solo sessions, so its *total* cycles are gated like any
#: other cell); ``SRV-8`` serves the same trace at ``max_concurrency=8``
#: with every layer on.  Both record throughput and p50/p95/p99 latency
#: under the driver's virtual clock; the serving summary reports SRV-8's
#: throughput multiple over SRV-serial (the acceptance criterion is >= 2x).
SERVING_KINDS = ("SRV-serial", "SRV-8")
SERVING_QUERIES = 48

#: TPC cells: the TPC-D suite and the TPC-C mix per layout (vectorized
#: engine, System B).  TPC-C's updates mutate records in place, so its
#: repeat identity is the runtime check that the data checkpoint makes
#: warmed-build reuse invisible for an update-heavy workload too.
TPC_KINDS = ("TPCD", "TPCC")

#: Sweep cells: one representative point of each parameter sweep, per
#: layout -- ``SEL-50`` (the 50%-selectivity sequential selection) and
#: ``RS-200`` (the 200-byte record-size point, its own warmed build).
SWEEP_KINDS = ("SEL-50", "RS-200")
SWEEP_RECORD_SIZE = 200


def make_runner(scale: Optional[float], parallelism: int = 1,
                grid_workers: int = 1) -> ExperimentRunner:
    """Runner for the bench grid, with every workload scaled from ``--scale``.

    ``--scale`` is the absolute microbenchmark scale; the TPC datasets (and
    the TPC-C transaction count) shrink by the same factor relative to
    their defaults, so a small ``--scale`` keeps the tpc/* cells as cheap
    as the micro cells.  The floors mirror ``ExperimentConfig``'s env-scale
    defaults.
    """
    micro = MicroWorkloadConfig() if scale is None else MicroWorkloadConfig(scale=scale)
    factor = 1.0 if scale is None else scale / MicroWorkloadConfig().scale
    tpcd = TPCDConfig(lineitem_rows=max(int(factor * 5_000), 300),
                      orders_rows=max(int(factor * 500), 60),
                      part_rows=max(int(factor * 200), 30),
                      supplier_rows=max(int(factor * 50), 15))
    tpcc = TPCCConfig(scale=TPCCConfig().scale * factor)
    return ExperimentRunner(ExperimentConfig(
        micro=micro, tpcd=tpcd, tpcc=tpcc,
        tpcc_transactions=max(int(120 * factor), 10),
        os_interference=False, parallelism=parallelism,
        grid_workers=grid_workers))


def budget_for(kind: str, s_bytes: int) -> Optional[int]:
    """Map an ``SJB-*`` kind to ``memory_budget_bytes`` (None = no budget)."""
    suffix = kind.split("-", 1)[1]
    if suffix == "inf":
        return None
    if suffix == "2x":
        return 2 * s_bytes
    if suffix == "1x":
        return s_bytes
    return max(s_bytes // 2, 1)


class BenchCell(NamedTuple):
    """One row of the cell table: how the cell is named in records and
    baselines, and what the runner builds and measures for it."""

    #: ``engine`` (an engine, or the ``serving``/``tpc``/``sweep`` family),
    #: ``layout``, ``query``, ``adaptivity``.
    labels: Dict[str, str]
    #: For serving cells, only the build the server serves over.
    cell: Cell


def grid_cells(micro: MicroWorkloadConfig,
               cells_filter: Optional[str] = None) -> List[BenchCell]:
    """The 12 engine x layout x query cells plus the adaptivity,
    memory-budget, concurrent-serving, TPC (``tpc/*``) and sweep-point
    (``sweep/*``) cells.  ``cells_filter`` keeps only the cells whose
    display name (``engine/layout/query[/adaptivity]``) matches the glob."""
    table: List[Tuple[str, str, str, str, Cell]] = []
    for engine in ENGINES:
        for layout in LAYOUTS:
            for kind in QUERY_KINDS:
                table.append((engine, layout, kind, "off",
                              Cell(layout=layout, query=kind,
                                   knobs={"engine": engine})))
    for kind in ADAPTIVE_KINDS:
        for layout in LAYOUTS:
            for mode in ADAPTIVE_MODES:
                table.append(("vectorized", layout, kind, mode,
                              adaptive_cell(kind, layout, mode)))
    vectorized = Cell(knobs={"engine": "vectorized"})
    for layout in LAYOUTS:
        for kind in BUDGET_KINDS:
            table.append(("vectorized", layout, kind, "off", Cell(
                layout=layout, query="SJB", knobs={
                    "engine": "vectorized", "parallelism": 1,
                    "memory_budget_bytes": budget_for(kind, micro.s_bytes)})))
    for layout in LAYOUTS:
        for kind in SERVING_KINDS:
            table.append(("serving", layout, kind, "off", Cell(layout=layout)))
    for layout in LAYOUTS:
        for kind in TPC_KINDS:
            table.append(("tpc", layout, kind, "off", replace(
                vectorized, layout=layout, dataset=kind.lower())))
    for layout in LAYOUTS:
        table.append(("sweep", layout, "SEL-50", "off",
                      replace(vectorized, layout=layout, selectivity=0.5)))
        table.append(("sweep", layout, "RS-200", "off", replace(
            vectorized, layout=layout, record_size=SWEEP_RECORD_SIZE)))
    cells = [BenchCell({"engine": engine, "layout": layout, "query": kind,
                        "adaptivity": adaptivity}, cell)
             for engine, layout, kind, adaptivity, cell in table]
    if cells_filter:
        cells = [cell for cell in cells
                 if fnmatch.fnmatchcase(_cell_name(cell.labels), cells_filter)]
    return cells


class Run(NamedTuple):
    """One execution of a cell; ``counters`` and ``rows`` must repeat exactly."""

    seconds: float
    counters: EventCounters
    rows: object
    #: Cell-family-specific fields of the point (spill I/O, serving
    #: report, ...).
    extras: dict


def run_query_cell(runner: ExperimentRunner, cell: Cell) -> Run:
    """Restore, open a session, execute: one run of a query/suite/mix cell."""
    with runner.session(cell) as session:
        start = time.perf_counter()
        result = runner.execute(cell, session)
        seconds = time.perf_counter() - start
        extras = {}
        if cell.query == "SJB":
            extras["memory_budget_bytes"] = session.execution.memory_budget_bytes
            extras["io_stats"] = dict(session.context.io_stats)
    if cell.dataset == "tpcc":
        extras["transactions"] = result.transactions
        return Run(seconds, result.counters, [], extras)
    return Run(seconds, result.counters, result.rows, extras)


def run_serving_cell(runner: ExperimentRunner, labels: Dict[str, str]) -> Run:
    """One open-loop run of the mixed arrival trace through a **fresh**
    server; the serving layers are count-deterministic regardless of how
    wall-clock timing shapes the admission rounds."""
    trace = build_trace(runner.micro_workload,
                        ServingTraceConfig(queries=SERVING_QUERIES))
    concurrent = labels["query"] != "SRV-serial"
    server = runner.serving_server(
        labels["layout"], max_concurrency=8 if concurrent else 1,
        plan_cache=concurrent, result_cache=concurrent,
        shared_scans=concurrent)
    start = time.perf_counter()
    report = run_open_loop(server, trace)
    seconds = time.perf_counter() - start
    return Run(seconds, report.counters, report.total_rows, {
        "serving": {
            "max_concurrency": 8 if concurrent else 1,
            "queries": report.queries,
            "rounds": report.rounds,
            "throughput_qps": round(report.throughput_qps, 3),
            "latency_p50": round(report.latency_p50, 6),
            "latency_p95": round(report.latency_p95, 6),
            "latency_p99": round(report.latency_p99, 6),
            "queue_depth_high_water":
                report.stats.get("queue_depth_high_water", 0),
            "classes": {key: dict(value) for key, value
                        in sorted(report.classes.items())},
            "stats": report.stats,
        }})


def measure_cell(runner: ExperimentRunner, bench_cell: BenchCell,
                 repeat: int = 1) -> dict:
    """Best-of-``repeat`` wall clock of one cell, as a BENCH point.

    Every run starts from the build's post-build checkpoint, so run N is
    bit-identical to run 1 (and to a run against a freshly built database);
    the identity of rows and cycles across repeats is asserted, which is the
    runtime check that the cached-database path changes nothing.
    """
    labels, cell = bench_cell
    best = None
    for _ in range(max(repeat, 1)):
        if labels["engine"] == "serving":
            run = run_serving_cell(runner, labels)
        else:
            run = run_query_cell(runner, cell)
        cycles = run.counters.get("CPU_CLK_UNHALTED")
        if best is not None and (
                cycles != best.counters.get("CPU_CLK_UNHALTED")
                or run.rows != best.rows):
            raise AssertionError(
                f"cached-database run of {_cell_name(labels)} diverged: cycles "
                f"{cycles} vs {best.counters.get('CPU_CLK_UNHALTED')}, "
                f"rows equal: {run.rows == best.rows}")
        if best is None or run.seconds < best.seconds:
            best = run
    return {**labels, "wall_seconds": round(best.seconds, 6), "cycles": cycles,
            "branch_mispredictions": best.counters.get("BR_MISS_PRED_RETIRED"),
            "result_rows": best.rows, **best.extras,
            "_counters": best.counters.as_dict()}


def merged_grid_counters(points: List[dict]) -> EventCounters:
    """Commutative merge of every cell's counters (grid-total events)."""
    total = EventCounters()
    for point in points:
        total.merge(EventCounters.from_dict(point["_counters"]))
    return total


def _cell_key(point: dict) -> Tuple[str, str, str, str]:
    """Identity of one grid cell; old baselines without the adaptivity field
    compare as ``"off"`` cells.  A baseline's ``kernel_backend`` field (the
    grid was once replicated per backend) is ignored: cycles are
    backend-identical, which is ``tests/test_kernels.py``'s wall to hold."""
    return (point["engine"], point["layout"], point["query"],
            point.get("adaptivity", "off"))


def _cell_name(point: dict) -> str:
    name = "/".join((point["engine"], point["layout"], point["query"]))
    adaptivity = point.get("adaptivity", "off")
    if adaptivity != "off":
        name += f"/{adaptivity}"
    return name


def adaptivity_summary(points: List[dict]) -> Dict[str, dict]:
    """Greedy-vs-static misprediction and cycle reductions per layout.

    This is the paper-facing payoff of the adaptive subsystem: the
    recorded evidence that each runtime decision (conjunct reordering on
    the ``ACS`` cells, join-side selection on ``AJS``, batch sizing on
    ``ABS``) removes simulated work that the planner-frozen (``static``)
    execution pays.  The ``ACS`` entries stay keyed by bare layout for
    continuity with earlier records; the newer decisions key as
    ``"<kind>/<layout>"``.
    """
    by_key = {_cell_key(p): p for p in points}
    summary: Dict[str, dict] = {}
    for kind in ADAPTIVE_KINDS:
        for layout in LAYOUTS:
            static = by_key.get(("vectorized", layout, kind, "static"))
            greedy = by_key.get(("vectorized", layout, kind, "greedy"))
            if static is None or greedy is None:
                continue
            label = layout if kind == "ACS" else f"{kind}/{layout}"
            summary[label] = {
                "static_mispredictions": static["branch_mispredictions"],
                "greedy_mispredictions": greedy["branch_mispredictions"],
                "misprediction_reduction": round(
                    1.0 - greedy["branch_mispredictions"]
                    / max(static["branch_mispredictions"], 1), 4),
                "static_cycles": static["cycles"],
                "greedy_cycles": greedy["cycles"],
                "cycle_reduction": round(
                    1.0 - greedy["cycles"] / max(static["cycles"], 1), 4),
            }
    return summary


def serving_summary(points: List[dict]) -> Dict[str, dict]:
    """Concurrent serving vs back-to-back serial, per layout.

    The paper-facing payoff of the serving layer: SRV-8 (concurrency 8,
    plan/result caches + shared scans) against SRV-serial (the same
    deterministic trace served back to back) — the throughput multiple is
    the acceptance criterion (>= 2x), with the latency percentiles and the
    cache/shared-scan hit counts recorded as evidence of *why*.
    """
    by_key = {_cell_key(p): p for p in points}
    summary: Dict[str, dict] = {}
    for layout in LAYOUTS:
        serial = by_key.get(("serving", layout, "SRV-serial", "off"))
        concurrent = by_key.get(("serving", layout, "SRV-8", "off"))
        if serial is None or concurrent is None:
            continue
        serial_srv = serial["serving"]
        concurrent_srv = concurrent["serving"]
        summary[layout] = {
            "serial_throughput_qps": serial_srv["throughput_qps"],
            "serving_throughput_qps": concurrent_srv["throughput_qps"],
            "throughput_multiple": round(
                concurrent_srv["throughput_qps"]
                / max(serial_srv["throughput_qps"], 1e-9), 3),
            "serial_latency_p50": serial_srv["latency_p50"],
            "serving_latency_p50": concurrent_srv["latency_p50"],
            "serving_latency_p95": concurrent_srv["latency_p95"],
            "serving_latency_p99": concurrent_srv["latency_p99"],
            "result_cache_hits":
                concurrent_srv["stats"]["result_cache_hits"],
            "plan_cache_hits": concurrent_srv["stats"]["plan_cache_hits"],
            "shared_scan_reuses":
                concurrent_srv["stats"]["shared_scan_reuses"],
        }
    return summary


def budget_identity_violations(points: List[dict]) -> List[str]:
    """The no-budget spill knob must be a structural no-op.

    ``memory_budget_bytes=None`` leaves the vectorized join on the exact
    pre-existing code path, so each ``SJB-inf`` cell must report the same
    simulated cycles and row count as the plain ``SJ`` cell measured in
    the same grid.  Because the ``SJ`` cells are themselves gated
    cycle-identical against the committed baseline, this transitively
    pins the budget=infinity execution to the pre-spilling releases.
    Finite budgets are *expected* to differ (they pay charged page I/O)
    and are gated only against their own baselines by ``--compare-to``.
    """
    by_key = {_cell_key(p): p for p in points}
    violations: List[str] = []
    for layout in LAYOUTS:
        inf = by_key.get(("vectorized", layout, "SJB-inf", "off"))
        plain = by_key.get(("vectorized", layout, "SJ", "off"))
        if inf is None or plain is None:
            continue
        if inf["cycles"] != plain["cycles"]:
            violations.append(
                f"vectorized/{layout}/SJB-inf: cycles diverged from SJ "
                f"({inf['cycles']:,} vs {plain['cycles']:,}) -- the "
                f"budget=None path is no longer a structural bypass")
        if inf["result_rows"] != plain["result_rows"]:
            violations.append(
                f"vectorized/{layout}/SJB-inf: rows diverged from SJ")
    return violations


# ---------------------------------------------------------------------------
# Regression gate
# ---------------------------------------------------------------------------
def compare_to_baseline(points: List[dict], baseline: dict,
                        cells_filter: Optional[str] = None
                        ) -> Tuple[List[str], List[str]]:
    """Per-cell cycle table plus gate violations.

    A violation is raised when a cell's simulated cycles differ from the
    baseline (the model changed) or a baseline cell was not measured at all
    (a cell dropped from the table must not pass the gate; under
    ``cells_filter`` only the baseline cells the glob selects are
    required).  Cells absent from the baseline are reported but never gate.
    Wall seconds are in both records as data and are not compared here.
    """
    baseline_points = {_cell_key(c): c for c in baseline.get("configs", ())}
    measured = {_cell_key(point) for point in points}
    lines = [f"{'cell':>30s} {'cycles':>16s}  vs baseline"]
    violations: List[str] = []
    for point in points:
        name = _cell_name(point)
        before = baseline_points.get(_cell_key(point))
        if before is None:
            note = "new"
        elif before["cycles"] == point["cycles"]:
            note = "identical"
        else:
            note = f"CHANGED from {before['cycles']:,}"
            violations.append(f"{name}: simulated cycles changed "
                              f"({before['cycles']:,} -> {point['cycles']:,})")
        lines.append(f"{name:>30s} {point['cycles']:>16,}  {note}")
    for key, before in baseline_points.items():
        name = _cell_name(before)
        if key not in measured and (
                cells_filter is None or fnmatch.fnmatchcase(name, cells_filter)):
            violations.append(f"{name}: in the baseline but not measured")
    return lines, violations


def git_revision() -> str:
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            text=True).strip()
    except Exception:
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per configuration (cycles and rows must "
                             "repeat exactly; the best wall clock is recorded)")
    parser.add_argument("--scale", type=float, default=None,
                        help="microbenchmark scale override (default: workload default)")
    parser.add_argument("--label", default="",
                        help="free-form label recorded in the json (e.g. 'PR 1 baseline')")
    parser.add_argument("--compare-to", default=None, metavar="BENCH.json",
                        help="embed a previous BENCH json, print the per-cell cycle "
                             "table and gate on it (non-zero exit on violation)")
    parser.add_argument("--grid-workers", type=int, default=1,
                        help="process-level parallelism across grid cells "
                             "(fork-based; 1 = serial)")
    parser.add_argument("--parallelism", type=int, default=1,
                        help="morsel-parallel workers inside each vectorized "
                             "session (cycles are identical for every value; "
                             "the adaptive ACS cells are always measured "
                             "serially, since greedy orderings depend on the "
                             "morsel partitioning)")
    parser.add_argument("--out-dir", default=None,
                        help="directory for BENCH_<stamp>.json "
                             "(default: benchmarks/results/, gitignored)")
    parser.add_argument("--cells", default=None, metavar="GLOB",
                        help="measure only the grid cells whose name "
                             "(engine/layout/query[/adaptivity]) "
                             "matches this glob, e.g. 'serving/*' or "
                             "'*/pax/SRS' (default: all cells)")
    args = parser.parse_args()

    grid_start = time.perf_counter()
    runner = make_runner(args.scale, parallelism=args.parallelism,
                         grid_workers=args.grid_workers)
    cells = grid_cells(runner.config.micro, args.cells)
    if not cells:
        print(f"no grid cells match --cells {args.cells!r}")
        return 1
    # Build the datasets of the selected cells up front, so forked workers
    # inherit the warmed builds and no cell's wall clock pays for one.
    build_start = time.perf_counter()
    builds = {id(runner.build(bench_cell.cell)) for bench_cell in cells}
    build_seconds = time.perf_counter() - build_start

    points = runner.map_cells(
        lambda runner, bench_cell: measure_cell(runner, bench_cell,
                                                args.repeat), cells)
    for point in points:
        line = (f"{_cell_name(point):>26}: {point['wall_seconds']:.3f}s wall, "
                f"{point['cycles']:,} simulated cycles, "
                f"{point['branch_mispredictions']:,} mispredictions")
        if "serving" in point:
            srv = point["serving"]
            line += (f", {srv['throughput_qps']:.1f} q/s, p50 "
                     f"{srv['latency_p50'] * 1000:.1f}ms, p95 "
                     f"{srv['latency_p95'] * 1000:.1f}ms, p99 "
                     f"{srv['latency_p99'] * 1000:.1f}ms "
                     f"({srv['queries']} queries, {srv['rounds']} rounds)")
        if "io_stats" in point:
            budget = point["memory_budget_bytes"]
            line += (f", budget={budget if budget is not None else 'inf'}, "
                     f"{point['io_stats']['page_reads']} page reads, "
                     f"{point['io_stats']['page_writes']} page writes")
        print(line)
    grid_wall = time.perf_counter() - grid_start

    totals = merged_grid_counters(points)
    configs = []
    for point in points:
        point = dict(point)
        point.pop("_counters")
        configs.append(point)

    config = runner.config.micro
    report = {
        "label": args.label,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "native_status": load_status(),
        "repeat": args.repeat,
        "scale": config.scale,
        "r_rows": config.r_rows,
        "system": SYSTEM_B.key,
        "grid_workers": args.grid_workers,
        "parallelism": args.parallelism,
        "grid_wall_seconds": round(grid_wall, 3),
        "db_build_seconds": round(build_seconds, 3),
        "db_builds": len(builds),
        "grid_total_cycles": totals.get("CPU_CLK_UNHALTED"),
        "adaptivity": adaptivity_summary(configs),
        "serving": serving_summary(configs),
        "configs": configs,
    }
    if args.cells:
        report["cells_filter"] = args.cells
    print(f"\ngrid wall: {grid_wall:.3f}s end-to-end "
          f"({build_seconds:.3f}s for {len(builds)} database builds, "
          f"repeat={args.repeat}, grid_workers={args.grid_workers}, "
          f"parallelism={args.parallelism})")
    for layout, summary in report["adaptivity"].items():
        print(f"adaptivity {layout}: greedy vs static = "
              f"{summary['misprediction_reduction']:.1%} fewer mispredictions "
              f"({summary['static_mispredictions']:,} -> "
              f"{summary['greedy_mispredictions']:,}), "
              f"{summary['cycle_reduction']:.1%} fewer cycles")
    for layout, summary in report["serving"].items():
        print(f"serving {layout}: {summary['throughput_multiple']}x throughput "
              f"vs serial ({summary['serial_throughput_qps']:.1f} -> "
              f"{summary['serving_throughput_qps']:.1f} q/s; "
              f"{summary['result_cache_hits']} result-cache hits, "
              f"{summary['plan_cache_hits']} plan-cache hits, "
              f"{summary['shared_scan_reuses']} shared-scan reuses)")

    exit_code = 0
    budget_violations = budget_identity_violations(configs)
    report["budget_gate_violations"] = budget_violations
    if budget_violations:
        print("\nBUDGET IDENTITY GATE FAILED:")
        for violation in budget_violations:
            print(f"  - {violation}")
        exit_code = 1
    if args.compare_to:
        with open(args.compare_to) as handle:
            baseline = json.load(handle)
        report["baseline"] = baseline
        lines, violations = compare_to_baseline(configs, baseline,
                                                cells_filter=args.cells)
        report["gate_violations"] = violations
        print()
        for line in lines:
            print(line)
        if violations:
            print("\nCYCLE GATE FAILED:")
            for violation in violations:
                print(f"  - {violation}")
            exit_code = 1
        else:
            print("\ncycle gate passed (every baseline cell measured, "
                  "cycles identical)")

    stamp = time.strftime("%Y%m%d-%H%M%S")
    out_dir = args.out_dir or os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks", "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{stamp}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"\nwrote {path}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
