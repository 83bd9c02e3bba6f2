"""The bench grid on the reference machine: every cell count-identical.

The cycle gate pins the 50 cells of ``scripts/run_bench.py`` to a committed
baseline, natively.  This runs the same cells at the gate's scale on the
reference machine (``reference_machine.py``, the pure-Python transcription
of ``_cachesim``) and asserts that each cell's rows and every event counter,
user and supervisor banks alike, equal the native run's: the whole engine,
the serving layer and the TPC mixes, not only the charging entry points the
differential suites drive one by one.
"""

from __future__ import annotations

import os
import sys

import pytest

from reference_machine import reference_machine
from repro.workloads.micro import MicroWorkloadConfig

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts"))
import run_bench  # noqa: E402

#: The bench-gate's ``--scale``.
SCALE = 0.002

CELLS = run_bench.grid_cells(MicroWorkloadConfig(scale=SCALE))


@pytest.fixture(scope="module")
def runner():
    return run_bench.make_runner(SCALE)


def run_cell(runner, bench_cell) -> tuple:
    """Rows, both counter banks and the spill I/O of one run of a cell."""
    if bench_cell.labels["engine"] == "serving":
        run = run_bench.run_serving_cell(runner, bench_cell.labels)
    else:
        run = run_bench.run_query_cell(runner, bench_cell.cell)
    return (run.rows, dict(run.counters.user), dict(run.counters.sup),
            run.extras.get("io_stats"), run.extras.get("transactions"))


def test_the_grid_is_the_gated_grid():
    assert len(CELLS) == 50


@pytest.mark.slow
@pytest.mark.parametrize("bench_cell", CELLS,
                         ids=[run_bench._cell_name(cell.labels) for cell in CELLS])
def test_cell_is_count_identical_on_the_reference_machine(runner, bench_cell):
    native = run_cell(runner, bench_cell)       # builds the dataset first
    with reference_machine():
        reference = run_cell(runner, bench_cell)
    for name, ours, theirs in zip(("rows", "user counters", "supervisor counters",
                                   "spill I/O", "transactions"), reference, native):
        assert ours == theirs, f"{name} diverged"
    assert native[1]["CPU_CLK_UNHALTED"] > 0
