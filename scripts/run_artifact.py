#!/usr/bin/env python
"""Reproduce every figure and table of the paper in three commands.

The artifact pipeline (:mod:`repro.experiments.artifact`) drives the full
reproduction -- the microbenchmark breakdown figures (5.1--5.5) per page
layout (NSM and PAX), the record-size and selectivity sweeps per layout,
the TPC-D suite and TPC-C mix on the warmed-build grid under the modern
engine matrix, and the configuration tables (4.1/4.2) -- and stages its
outputs under one results directory (default
``benchmarks/results/artifact/``)::

    raw/measurements.json   run_all: every measurement, structured
    csv/<artifact>.csv      csv:     one CSV per figure/table (canonical)
    plots/<artifact>.png    plot:    bar charts, only if matplotlib exists

Stages are separable so the expensive measurement pass runs once; ``csv``
and ``plot`` re-derive from the persisted raw JSON.  ``all`` chains the
three.  matplotlib is strictly optional: without it the ``plot`` stage
prints a notice and exits successfully.

``diff A B`` is the count gate: it compares two CSV directories (the same
files, headers and rows, every value string-equal), prints one line per
difference with the numeric delta where both sides parse, and exits
non-zero on any difference.  The ``--scale ci`` CSVs are committed under
``benchmarks/baselines/artifact_ci/``; a change that moves a simulated
count shows up as a cell of that diff.

``--scale`` picks the dataset preset: ``ci`` finishes in seconds (the
committed baseline), ``small`` is a quick local run, ``full`` is the repo's
default reduced-paper scale.

Usage::

    PYTHONPATH=src python scripts/run_artifact.py run_all --scale small
    PYTHONPATH=src python scripts/run_artifact.py csv
    PYTHONPATH=src python scripts/run_artifact.py plot
    PYTHONPATH=src python scripts/run_artifact.py all --scale ci --out out
    PYTHONPATH=src python scripts/run_artifact.py diff \
        benchmarks/baselines/artifact_ci out/csv
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from pathlib import Path

from repro.experiments.artifact import (ArtifactError, diff_csvs, emit_csvs,
                                        render_plots, run_all)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "benchmarks" / "results" / "artifact"
STAGES = ("run_all", "csv", "plot", "all", "diff")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stage", choices=STAGES,
                        help="pipeline stage to run (all = run_all + csv + "
                             "plot; diff compares two CSV directories)")
    parser.add_argument("dirs", nargs="*", type=Path, metavar="DIR",
                        help="diff only: the baseline and the compared CSV "
                             "directory")
    parser.add_argument("--scale", choices=("ci", "small", "full"),
                        default="full", help="dataset scale preset")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="results directory (default benchmarks/results/artifact)")
    args = parser.parse_args(argv)

    if len(args.dirs) != (2 if args.stage == "diff" else 0):
        parser.error("diff takes two CSV directories; other stages take none")
    if args.stage == "diff":
        try:
            differences = diff_csvs(*args.dirs)
        except ArtifactError as error:
            print(f"[artifact] ERROR: {error}", file=sys.stderr)
            return 1
        for line in differences:
            print(line)
        print(f"[artifact] diff: {len(differences)} difference(s) between "
              f"{args.dirs[0]} and {args.dirs[1]}")
        return 1 if differences else 0

    started = time.time()
    try:
        if args.stage in ("run_all", "all"):
            run_all(args.out, scale=args.scale)
        if args.stage in ("csv", "all"):
            written = emit_csvs(args.out)
            print(f"[artifact] {len(written)} CSVs verified non-empty")
        if args.stage in ("plot", "all"):
            rendered = render_plots(args.out)
            if rendered:
                print(f"[artifact] {len(rendered)} plots rendered")
    except ArtifactError as error:
        print(f"[artifact] ERROR: {error}", file=sys.stderr)
        return 1
    print(f"[artifact] {args.stage} done in {time.time() - started:.1f}s "
          f"under {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
