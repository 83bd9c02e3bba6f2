#!/usr/bin/env python3
"""Compare two result files written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

``A`` is the base, ``B`` the change.  ``run.py --out FILE`` appends one set
of runs to ``FILE`` each time it is called, so a file holds as many runs as
were made; medians are compared and, from two runs a side on, the spread
(distance between the quartiles over the median) says whether the
comparison can be trusted.

Per workload and end-to-end metric one row: both medians, the ratio
``B / A`` (base: A), the bound from ``BENCHMARK.json`` and a verdict:

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound (a breach);
``unresolved``  the spread of either side is wider than the bound and the
                runs of the two sides overlap: neither unchanged nor
                regressed can be claimed.

``sim_cycles`` is modelled time: with equal seeds on both sides it must be
identical run for run, whatever the bound.  Per-layer medians, where both
files hold a traced run, are printed underneath with their change.  The exit
status is non-zero on a breach, and on any rise in failed over attempted ops.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Simulated, not host, time: compared exactly when the seeds match.
EXACT = "sim_cycles"


def load_runs(path: str) -> List[dict]:
    with open(path) as handle:
        return json.load(handle)["runs"]


def spread(values: List[float]) -> Optional[float]:
    """Interquartile distance over the median; ``None`` for a single run."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else 0.0


def metric_values(runs: List[dict], workload: str, section: str,
                  name: str) -> List[float]:
    return [run["workloads"][workload][section]["metrics"][name]["value"]
            for run in runs
            if section in run["workloads"].get(workload, {})]


def shown(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4f}"


def verdict(base: List[float], change: List[float], better: str,
            bound: float) -> str:
    lower = better == "lower"
    a, b = statistics.median(base), statistics.median(change)
    worse_by = ((b - a) if lower else (a - b)) / abs(a) if a else 0.0
    spreads = [s for s in (spread(base), spread(change)) if s is not None]
    if spreads and max(spreads) > bound:
        if lower:
            all_better = max(change) < min(base)
            all_worse = min(change) > max(base)
        else:
            all_better = min(change) > max(base)
            all_worse = max(change) < min(base)
        if all_better:
            return "ok"
        return "regressed" if all_worse and worse_by > bound else "unresolved"
    return "regressed" if worse_by > bound else "ok"


def exact_mismatches(base_runs: List[dict], change_runs: List[dict],
                     workload: str) -> Optional[int]:
    """Seeds whose ``sim_cycles`` differ; ``None`` when no seed is shared."""
    def by_seed(runs):
        return {run["seed"]: run["workloads"][workload]["end_to_end"]
                ["metrics"][EXACT]["value"] for run in runs
                if "end_to_end" in run["workloads"].get(workload, {})}
    a, b = by_seed(base_runs), by_seed(change_runs)
    shared = set(a) & set(b)
    if not shared:
        return None
    return sum(a[seed] != b[seed] for seed in shared)


def failure_ratio(runs: List[dict], workload: str) -> float:
    cells = [run["workloads"][workload]["end_to_end"] for run in runs
             if "end_to_end" in run["workloads"].get(workload, {})]
    attempted = sum(cell["attempted"] for cell in cells)
    return sum(cell["failed"] for cell in cells) / attempted if attempted \
        else 0.0


def compare(base_runs: List[dict], change_runs: List[dict],
            benchmark: dict) -> int:
    breaches = 0
    workloads = [w["name"] for w in benchmark["workloads"]
                 if any(w["name"] in run["workloads"] for run in base_runs)
                 and any(w["name"] in run["workloads"] for run in change_runs)]
    for workload in workloads:
        print(f"{workload}")
        print(f"  {'metric':<14}{'A (base)':>16}{'B':>16}{'B/A':>9}"
              f"{'bound':>8}{'spread A':>10}{'spread B':>10}  verdict")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = metric_values(base_runs, workload, "end_to_end", name)
            b = metric_values(change_runs, workload, "end_to_end", name)
            if not a or not b:
                continue
            status = verdict(a, b, metric["better"], metric["bound"])
            if name == EXACT:
                mismatches = exact_mismatches(base_runs, change_runs, workload)
                if mismatches is not None:
                    status = "regressed" if mismatches else "ok"
            breaches += status == "regressed"
            median_a, median_b = statistics.median(a), statistics.median(b)
            print(f"  {name:<14}{median_a:>16.4f}{median_b:>16.4f}"
                  f"{median_b / median_a:>9.4f}{metric['bound']:>8.2f}"
                  f"{shown(spread(a)):>10}{shown(spread(b)):>10}  {status}")
        ratio_a = failure_ratio(base_runs, workload)
        ratio_b = failure_ratio(change_runs, workload)
        rose = ratio_b > ratio_a
        breaches += rose
        print(f"  ops_failed / ops_attempted: {ratio_a:.6f} -> {ratio_b:.6f}"
              + ("  ROSE" if rose else ""))
        for metric in benchmark["per_layer"]:
            name = metric["name"]
            a = metric_values(base_runs, workload, "per_layer", name)
            b = metric_values(change_runs, workload, "per_layer", name)
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            if not median_a and not median_b:
                continue
            change = (f"{(median_b - median_a) / median_a:+.1%}"
                      if median_a else "new")
            print(f"    {name:<46}{median_a:>16.4f}{median_b:>16.4f} "
                  f"{change:>8} {metric['unit']}")
    return breaches


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    breaches = compare(load_runs(argv[1]), load_runs(argv[2]), benchmark)
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
