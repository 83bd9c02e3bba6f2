#!/usr/bin/env python
"""Trace one query and print where its cycles go, operator by operator.

Runs a single microbenchmark query through the warmed grid build with
tracing enabled and renders the per-operator span tree: every node shows
its self/inclusive simulated cycles, rows and pulls, spill I/O, and the
paper's stall breakdown (computation / memory / branch / resource shares)
attributed to that node alone.

Usage::

    PYTHONPATH=src python scripts/run_trace.py --query SJ-skew --layout pax
    PYTHONPATH=src python scripts/run_trace.py --query SJ --engine tuple \\
        --tracing full --json trace.json --chrome trace.chrome.json

``--json`` writes the nested trace dict (one object per span, with
breakdown shares); ``--chrome`` writes Chrome ``trace_event`` format —
load it at ``chrome://tracing`` or https://ui.perfetto.dev to see the
spans on a (host-time) timeline annotated with simulated counts.

Tracing never perturbs the simulation: ``--tracing off`` runs the exact
untraced path, and ``spans``/``full`` change zero simulated counts (the
differential tests in ``tests/test_observability.py`` enforce this).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.hardware.native import load_status
from repro.observability import chrome_trace, render_trace, trace_to_dict
from repro.workloads.micro import MicroWorkloadConfig

QUERY_KINDS = ("SRS", "IRS", "SJ", "SJ-skew", "ACS")


def build_query(workload, kind: str):
    if kind == "SRS":
        return workload.sequential_range_selection()
    if kind == "IRS":
        return workload.indexed_range_selection()
    if kind == "SJ":
        return workload.sequential_join()
    if kind == "SJ-skew":
        return workload.skewed_join()
    if kind == "ACS":
        return workload.skewed_conjunct_selection()
    raise ValueError(f"unknown query kind {kind!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Trace one query and print its per-operator span tree.")
    parser.add_argument("--engine", choices=("tuple", "vectorized"),
                        default="vectorized")
    parser.add_argument("--layout", choices=("nsm", "pax"), default="pax")
    parser.add_argument("--query", choices=QUERY_KINDS, default="SJ-skew")
    parser.add_argument("--tracing", choices=("spans", "full"),
                        default="full",
                        help="span granularity (full adds spill-I/O "
                             "subspans and per-pull events)")
    parser.add_argument("--scale", type=float, default=0.002,
                        help="microbenchmark scale factor (fraction of the "
                             "paper's table sizes)")
    parser.add_argument("--no-breakdown", action="store_true",
                        help="omit the per-node stall-breakdown lines")
    parser.add_argument("--json", metavar="PATH",
                        help="write the nested trace dict as JSON")
    parser.add_argument("--chrome", metavar="PATH",
                        help="write Chrome trace_event JSON "
                             "(chrome://tracing / Perfetto)")
    args = parser.parse_args(argv)

    runner = ExperimentRunner(ExperimentConfig(
        micro=MicroWorkloadConfig(scale=args.scale), os_interference=False))
    session = runner.grid_session(engine=args.engine, layout=args.layout,
                                  tracing=args.tracing)
    query = build_query(runner.micro_workload, args.query)
    result = session.execute(query)

    spec = session.spec
    processor = session.context.processor
    print(f"# {args.query} engine={args.engine} layout={args.layout} "
          f"scale={args.scale} "
          f"tracing={args.tracing} native={load_status()!r}")
    print(f"# rows={len(result.rows)} "
          f"cycles={result.counters.get('CPU_CLK_UNHALTED')}")
    print(render_trace(result.trace, spec, processor,
                       show_breakdown=not args.no_breakdown))

    if args.json:
        payload = trace_to_dict(result.trace, spec, processor,
                                include_counters=True)
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    if args.chrome:
        payload = chrome_trace(result.trace, spec, processor)
        Path(args.chrome).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.chrome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
