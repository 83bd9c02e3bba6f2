"""Concurrent query serving: shared scans plus plan & result caching.

A deterministic open-loop arrival trace (exponential interarrival gaps,
mixed query classes drawn from a seeded RNG) is served twice against one
shared warmed database build:

* **serial** — ``max_concurrency=1`` with every serving layer off: each
  query runs back to back in its own fresh measurement session, the
  baseline a paper-era single-user system would measure;
* **serving** — ``max_concurrency=8`` with the plan cache, the semantic
  result cache and shared scans all on: repeated query classes skip the
  planner, repeats over unchanged tables answer from the result cache for
  a small charged probe cost, and same-table scans within an admission
  round ride one recorded scan.

Rows are identical between the two runs for every query, and per-query
simulated counts are identical too except on result-cache hits (which
charge the modelled probe instead of execution — that is the point).
Latency is measured under the driver's virtual clock, so the percentiles
include queueing delay exactly as a real single-server queue would.

Run with::

    PYTHONPATH=src python examples/concurrent_serving.py
"""

from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.workloads import (MicroWorkloadConfig, ServingTraceConfig,
                             build_trace, run_open_loop)


def main() -> None:
    runner = ExperimentRunner(ExperimentConfig(
        micro=MicroWorkloadConfig(),  # default scale: R = 6,000 rows
        os_interference=False))
    trace = build_trace(runner.micro_workload,
                        ServingTraceConfig(queries=48))
    classes = sorted({item.class_key for item in trace})
    print(f"open-loop trace: {len(trace)} arrivals over "
          f"{trace[-1].arrival_seconds * 1000:.1f} virtual ms, "
          f"classes {', '.join(classes)}\n")

    reports = {}
    for name, kwargs in (
            ("serial", dict(max_concurrency=1, plan_cache=False,
                            result_cache=False, shared_scans=False)),
            ("serving", dict(max_concurrency=8))):
        server = runner.serving_server("nsm", **kwargs)
        report = run_open_loop(server, trace)
        reports[name] = report
        stats = report.stats
        print(f"{name:>8}: {report.throughput_qps:8.1f} q/s, "
              f"p50 {report.latency_p50 * 1000:7.1f} ms, "
              f"p95 {report.latency_p95 * 1000:7.1f} ms, "
              f"p99 {report.latency_p99 * 1000:7.1f} ms "
              f"({report.rounds} rounds)")
        print(f"{'':>8}  {report.total_cycles:,} total simulated cycles, "
              f"{stats['result_cache_hits']} result-cache hits, "
              f"{stats['plan_cache_hits']} plan-cache hits, "
              f"{stats['shared_scan_reuses']} shared-scan reuses")

    serial, serving = reports["serial"], reports["serving"]
    assert serving.total_rows == serial.total_rows  # rows never change
    print(f"\nthroughput: {serving.throughput_qps / serial.throughput_qps:.1f}x "
          f"serial (identical rows; "
          f"{1 - serving.total_cycles / serial.total_cycles:.0%} of the "
          f"trace's simulated cycles removed by the result cache)")


if __name__ == "__main__":
    main()
