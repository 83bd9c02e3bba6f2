#!/usr/bin/env python3
"""The repository's host-time benchmark: one command, five workloads.

    python3 bench/run.py --workload grid_vec --seed 7 --seconds 15 --trace 0
    python3 bench/run.py --workload grid_vec --trace 1 --spans-out spans.json
    python3 bench/run.py --out A.json            # all five, one after another
    python3 bench/run.py --write-expected        # re-pin bench/expected.json

One invocation with ``--workload`` measures that workload in this process
and prints every metric by name and unit; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` declares.  Without ``--workload``
the five workloads run one after another, each in a fresh subprocess.

``bench/README.md`` is the glossary of workload and metric names.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"bench/run.py: no src/repro beside {HERE}; the benchmark "
             "measures the repository it is checked out in")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from repro.workloads.serving import percentile  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

#: Imports, native-extension load included; part of every set-up sample.
_IMPORT_SECONDS = time.perf_counter() - _PROCESS_START

EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: Set-up is timed in this process and in this many fresh ones; ``setup_s``
#: is the median.  Fresh processes, because the warm pass of a set-up
#: leaves sessions behind that a second set-up in the same heap would feel.
SETUP_EXTRA_SAMPLES = 2
#: No pass starts once measurement has run this many times ``--seconds``
#: (a slower machine must still end well inside the driver's time limit).
OVERRUN_FACTOR = 2.0
MIN_MEASURED_PASSES = 6


def declared_metrics(section: str) -> dict:
    """``name -> unit`` of one section of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"]
                for metric in json.load(handle)[section]}


# ------------------------------------------------------------------ measuring
def set_up(workload: Workload) -> float:
    """Build, checkpoint and run the untimed warm pass; returns ``setup_s``."""
    start = time.perf_counter()
    workload.setup()
    workload.run_pass(0)
    return _IMPORT_SECONDS + time.perf_counter() - start


def measure(workload: Workload, count: int, seconds: float) -> list:
    """Run ``count`` passes (a fixed number of ops, not a fixed duration)."""
    passes = []
    start = time.perf_counter()
    for index in range(count):
        overrun = time.perf_counter() - start > OVERRUN_FACTOR * seconds
        if overrun and index >= MIN_MEASURED_PASSES \
                and index % workload.pass_group == 0:
            print(f"{workload.name}: stopped after {index} of {count} passes, "
                  f"{OVERRUN_FACTOR:g} x --seconds used", file=sys.stderr)
            break
        # Outside the pass's clock.  The collector's counters then start
        # from zero in every pass, so the collections a pass does trigger
        # fall on the same op in every pass, run and seed; left to run on,
        # a full collection over the heap of earlier passes (0.3-0.6 s once
        # a few hundred sessions have leaked) lands in whichever pass is
        # unlucky and decides that run's latency tail.
        gc.collect()
        passes.append(workload.run_pass(index))
    return passes


def load_pins(path: str, workload: Workload):
    """The workload's pinned ``{pin: [digest, cycles]}``; ``None`` when the
    seed is not the one they were written at."""
    with open(path) as handle:
        expected = json.load(handle)
    if expected["seed"] != workload.seed:
        return None
    return expected["workloads"].get(workload.name, {})


def failed_ops(workload: Workload, passes: list, pins) -> tuple:
    """``(attempted, failed (pass, position) pairs)`` over the run.

    An op fails if it raised, if its rows or simulated cycles differ from
    the same op of pass 1, or if pass 1's own output is wrong: against the
    pinned digest and cycles, or against the workload's seed-independent
    checks.
    """
    first = passes[0]
    wrong = dict(workload.verify(first))
    if pins is not None:
        for record in first.ops:
            if record.seconds is None:
                continue
            seen = [record.digest, record.cycles]
            if pins.get(record.pin) != seen:
                wrong.setdefault(record.key, f"pinned {pins.get(record.pin)}"
                                             f", got {seen} ({record.pin})")
    reference = {record.key: record for record in first.ops}
    failed = []
    attempted = 0
    for number, result in enumerate(passes):
        for position, record in enumerate(result.ops):
            attempted += 1
            base = reference.get(record.key)
            if record.seconds is None:
                reason = "raised"
            elif record.key in wrong:
                reason = wrong[record.key]
            elif base is None or base.seconds is None \
                    or record.rows != base.rows \
                    or record.cycles != base.cycles:
                reason = "rows or cycles differ from pass 1"
            else:
                continue
            failed.append((number, position))
            if len(failed) <= 10:
                print(f"{workload.name}: pass {number + 1} op {record.key} "
                      f"failed: {reason}", file=sys.stderr)
    return attempted, failed


def end_to_end(passes: list, failed: list, setup_seconds: float,
               peak_rss_mb: float) -> dict:
    """The six end-to-end metrics, plus the p90 sample count."""
    # Serving: throughput from the saturation passes, latency (from the due
    # time) from the paced ones.  Closed loop: both from every pass.
    throughput = [result for result in passes if result.kind != "paced"]
    bad = set(failed)
    latencies = [record.seconds * 1e3
                 for number, result in enumerate(passes)
                 if result.kind != "saturation"
                 for position, record in enumerate(result.ops)
                 if (number, position) not in bad]
    return {
        "setup_s": setup_seconds,
        "ops_per_s": len(passes[0].ops) / statistics.median(
            result.clock_seconds for result in throughput),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": percentile(latencies, 0.90),
        "peak_rss_mb": peak_rss_mb,
        "sim_cycles": sum(record.cycles for record in passes[0].ops),
        "latency_samples": len(latencies),
    }


def fresh_setup_samples(args) -> list:
    """``setup_s`` of the same workload and seed in fresh processes."""
    samples = []
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    for _ in range(SETUP_EXTRA_SAMPLES):
        done = subprocess.run(command, check=True, capture_output=True,
                              text=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_end_to_end(args) -> dict:
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    samples = fresh_setup_samples(args)
    samples.append(set_up(workload))
    passes = measure(workload, workload.passes(args.seconds), args.seconds)
    # Before the output checks: their sessions are not part of the workload.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = failed_ops(workload, passes,
                                   load_pins(args.expected, workload))
    metrics = end_to_end(passes, failed, statistics.median(samples),
                         peak_rss_mb)
    print(f"{workload.name}: seed {args.seed}, {len(passes)} passes x "
          f"{len(passes[0].ops)} ops, set-up samples "
          + " ".join(f"{sample:.3f}" for sample in samples) + " s")
    return {"attempted": attempted, "failed": len(failed), "metrics": metrics}


# -------------------------------------------------------------------- tracing
def run_traced(args) -> dict:
    """Per-layer metrics: reference passes, wrapped passes, knob passes."""
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    recorder = spans.Recorder()
    workload.collect_sim = True
    workload.spans = recorder  # set-up brackets its builds in spans
    workload.setup()
    workload.spans = spans.OFF
    workload.run_pass(0)

    group = workload.pass_group
    traced_count = max(group, min(5, workload.passes(args.seconds) // 2)
                       // group * group)
    plain_count = max(group, traced_count // 2 // group * group)

    gc.collect()
    objects_before, rss_before = len(gc.get_objects()), layers.process_rss_kb()
    plain = measure(workload, plain_count, args.seconds)
    gc.collect()
    run = layers.TracedRun(
        recorder=recorder, plain=plain, traced=[], knob=[],
        pools=layers.PoolCensus(workload.databases()),
        gc_watch=layers.GcWatch(),
        rss_kb_growth=layers.process_rss_kb() - rss_before,
        gc_objects_growth=len(gc.get_objects()) - objects_before)

    workload.spans = recorder
    with run.gc_watch, run.pools.counting(), spans.tracing(recorder):
        run.traced = measure(workload, traced_count, args.seconds)
    workload.spans = spans.OFF
    workload.query_tracing = "spans"
    run.knob = measure(workload, group, args.seconds)
    workload.query_tracing = None

    attempted, failed = failed_ops(workload, plain + run.traced + run.knob,
                                   load_pins(args.expected, workload))
    if args.spans_out:
        recorder.dump(args.spans_out)
    print(f"{workload.name}: seed {args.seed}, {plain_count} reference + "
          f"{traced_count} traced + {group} tracing='spans' passes, "
          f"{len(recorder.spans)} spans, "
          f"{sum(len(cells) for _, _, cells in recorder.scopes)} aggregates")
    return {"attempted": attempted, "failed": len(failed),
            "metrics": layers.layer_metrics(run)}


# --------------------------------------------------------------------- output
def report(outcome: dict, section: str) -> dict:
    """Print every metric by name and unit; return the driver's object."""
    units = declared_metrics(section)
    metrics = outcome["metrics"]
    for name, unit in units.items():
        note = ""
        if name == "op_p90_ms":
            note = f"   ({metrics['latency_samples']} samples)"
        print(f"  {name:<46} {metrics[name]:>16.6f} {unit}{note}")
    print(f"  {'ops_attempted':<46} {outcome['attempted']:>16d}")
    print(f"  {'ops_failed':<46} {outcome['failed']:>16d}")
    return {"correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"], "failed": outcome["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def write_expected(seed: int) -> None:
    """Pin digest and cycles of every op of one pass of every workload."""
    pinned = {}
    for name, factory in WORKLOADS.items():
        workload = factory(seed)
        workload.setup()
        first = workload.run_pass(0)
        wrong = workload.verify(first)
        if wrong or any(record.seconds is None for record in first.ops):
            sys.exit(f"{name}: refusing to pin wrong output: {wrong}")
        pinned[name] = {record.pin: [record.digest, record.cycles]
                        for record in first.ops}
        print(f"{name}: {len(pinned[name])} pins from {len(first.ops)} ops")
    with open(EXPECTED_PATH, "w") as handle:
        json.dump({"seed": seed, "workloads": pinned}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")


def append_run(path: str, args, workloads: dict) -> None:
    """Add this set of runs to ``path`` (``compare.py`` reads every set)."""
    runs = []
    if os.path.exists(path):
        with open(path) as handle:
            runs = json.load(handle)["runs"]
    runs.append({"seed": args.seed, "seconds": args.seconds,
                 "workloads": workloads})
    with open(path, "w") as handle:
        json.dump({"runs": runs}, handle, indent=1)
        handle.write("\n")


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    status = 0
    for name in WORKLOADS:
        results[name] = {}
        for trace in ((0, 1) if args.trace else (0,)):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--expected", args.expected]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode:
                status = done.returncode
                continue
            section = "per_layer" if trace else "end_to_end"
            results[name][section] = json.loads(lines[-1])
    if args.out:
        append_run(args.out, args, results)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure this workload here (default: all "
                             "five, each in a fresh subprocess)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of every dataset, transaction mix and "
                             "arrival trace (default %(default)s, the seed "
                             "expected.json is pinned at)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measurement length the fixed pass count is "
                             "sized for (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="2 passes and the smallest traces (tests)")
    parser.add_argument("--out", metavar="FILE",
                        help="append the results to this JSON file, one "
                             "more set of runs for compare.py")
    parser.add_argument("--spans-out", metavar="FILE",
                        help="traced run: write spans and aggregates here")
    parser.add_argument("--expected", metavar="FILE", default=EXPECTED_PATH,
                        help="pinned digests and cycles (default: "
                             "bench/expected.json)")
    parser.add_argument("--write-expected", action="store_true",
                        help="re-pin bench/expected.json at --seed and exit")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up --workload, print setup_s and exit")
    args = parser.parse_args()

    if args.write_expected:
        write_expected(args.seed)
        return 0
    if args.workload is None:
        return run_all(args)
    if args.setup_only:
        print(set_up(WORKLOADS[args.workload](args.seed, args.smoke)))
        return 0
    outcome = run_traced(args) if args.trace else run_end_to_end(args)
    section = "per_layer" if args.trace else "end_to_end"
    result = report(outcome, section)
    if args.out:
        append_run(args.out, args, {args.workload: {section: result}})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
