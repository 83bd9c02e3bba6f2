"""The benchmark grid: warmed-build reuse, parallel cell dispatch and the
``run_bench`` cycle gate.

The grid satellite's contract is that caching one warmed database build per
layout changes *nothing*: the address-space checkpoint/restore makes a
session against the cached build allocate at the same addresses as against
a fresh build, so rows and simulated cycles are identical -- and therefore
independent of how many cells ran before, which is what makes the cells
independently dispatchable to a process pool.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.experiments.runner import Cell, ExperimentConfig, ExperimentRunner
from repro.storage.address_space import AddressSpace, AddressSpaceError
from repro.workloads.micro import MicroWorkloadConfig

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts"))
import run_bench  # noqa: E402


TINY = MicroWorkloadConfig(scale=0.001)


def tiny_runner(grid_workers: int = 1) -> ExperimentRunner:
    return ExperimentRunner(ExperimentConfig(micro=TINY, os_interference=False,
                                             grid_workers=grid_workers))


# ---------------------------------------------------------------------------
# Address-space checkpointing
# ---------------------------------------------------------------------------
class TestAddressSpaceCheckpoint:
    def test_restore_replays_identical_addresses(self):
        space = AddressSpace()
        space.allocate("heap", 1000)
        mark = space.checkpoint()
        first = space.allocate("workspace", 512, alignment=64)
        space.restore(mark)
        second = space.allocate("workspace", 512, alignment=64)
        assert first == second

    def test_restore_refuses_forward_jumps(self):
        space = AddressSpace()
        mark = space.checkpoint()
        mark["heap"] = 4096
        with pytest.raises(AddressSpaceError):
            space.restore(mark)

    def test_restore_is_per_region(self):
        space = AddressSpace()
        space.allocate("heap", 100)
        mark = space.checkpoint()
        space.allocate("heap", 100)
        space.allocate("index", 100)
        space.restore(mark)
        assert space.allocated_bytes("heap") == mark["heap"]
        assert space.allocated_bytes("index") == 0


# ---------------------------------------------------------------------------
# Warmed-build reuse
# ---------------------------------------------------------------------------
class TestGridDatabaseReuse:
    def test_grid_database_is_built_once_per_layout(self):
        runner = tiny_runner()
        db1, _ = runner.grid_database("nsm")
        db2, _ = runner.grid_database("nsm")
        db3, _ = runner.grid_database("pax")
        assert db1 is db2
        assert db3 is not db1

    def test_cached_cell_identical_to_fresh_build(self):
        """A cell measured against the shared warmed build must equal the
        same cell measured by a brand-new runner (fresh build)."""
        shared = tiny_runner()
        # Burn several sessions against the shared build first.
        shared.measure(Cell(query="SRS", knobs={"engine": "vectorized"}))
        shared.measure(Cell(query="IRS"))
        cached = shared.measure(Cell(query="SJ"))

        fresh = tiny_runner().measure(Cell(query="SJ"))
        assert cached.rows == fresh.rows
        assert cached.counters.as_dict() == fresh.counters.as_dict()

    def test_repeated_measurement_of_cached_cell_is_identical(self):
        runner = tiny_runner()
        cell = Cell(layout="pax", query="SRS", knobs={"engine": "vectorized"})
        first = runner.measure(cell)
        with runner.session(cell) as session:
            second = runner.execute(cell, session)
        assert second is not first
        assert first.rows == second.rows
        assert first.counters.as_dict() == second.counters.as_dict()

    def test_serial_and_parallel_dispatch_agree(self):
        cells = [Cell(query=kind, knobs={"engine": engine})
                 for engine in ("tuple", "vectorized") for kind in ("SRS", "SJ")]
        serial = tiny_runner().map_cells(ExperimentRunner.measure, cells)
        forked = tiny_runner(grid_workers=3)
        forked.build(cells[0])
        parallel = forked.map_cells(ExperimentRunner.measure, cells)
        assert len(serial) == len(parallel) == len(cells)
        for one, other in zip(serial, parallel):
            assert one.rows == other.rows
            assert one.counters.as_dict() == other.counters.as_dict()


# ---------------------------------------------------------------------------
# run_bench: cached measurement loop + cycle gate
# ---------------------------------------------------------------------------
class TestRunBench:
    def measure(self, runner, repeat=2):
        cells = run_bench.grid_cells(runner.config.micro,
                                     cells_filter="*/nsm/SRS")
        assert len(cells) == 2
        return [run_bench.measure_cell(runner, cell, repeat=repeat)
                for cell in cells]

    def test_measure_cell_asserts_repeat_identity(self):
        runner = run_bench.make_runner(0.001)
        points = self.measure(runner)
        assert all(p["cycles"] > 0 for p in points)
        assert points[0]["result_rows"] == points[1]["result_rows"]

    def test_merged_grid_counters_sum_cycles(self):
        runner = run_bench.make_runner(0.001)
        points = self.measure(runner)
        total = run_bench.merged_grid_counters(points)
        assert total.get("INST_RETIRED") == sum(
            p["_counters"]["INST_RETIRED"] for p in points)

    def gate(self, points, baseline_points):
        return run_bench.compare_to_baseline(points,
                                             {"configs": baseline_points})

    def test_gate_passes_on_identical_reports(self):
        runner = run_bench.make_runner(0.001)
        points = self.measure(runner)
        # The committed baseline predates the once-measured grid: its cells
        # carry a ``kernel_backend`` field, which the gate ignores.
        baseline = [dict(p, kernel_backend="auto") for p in points]
        # Wall seconds are data, not a gate: a slower run still passes.
        baseline[0]["wall_seconds"] = points[0]["wall_seconds"] / 100.0
        lines, violations = self.gate(points, baseline)
        assert not violations
        assert len(lines) == len(points) + 1
        assert all(line.endswith("identical") for line in lines[1:])

    def test_gate_fails_on_cycle_change(self):
        runner = run_bench.make_runner(0.001)
        points = self.measure(runner)
        baseline = [dict(p) for p in points]
        baseline[0]["cycles"] += 1
        _, violations = self.gate(points, baseline)
        assert any("cycles changed" in v for v in violations)

    def test_gate_ignores_cells_missing_from_baseline(self):
        runner = run_bench.make_runner(0.001)
        points = self.measure(runner)
        lines, violations = self.gate(points, points[:1])
        assert not violations
        assert [line.rsplit(None, 1)[-1] for line in lines[1:]] == [
            "identical", "new"]

    def test_gate_fails_on_baseline_cells_missing_from_the_run(self):
        """A cell dropped from the table must not pass the gate -- unless
        ``--cells`` deselected it."""
        runner = run_bench.make_runner(0.001)
        points = self.measure(runner)
        _, violations = self.gate(points[:1], points)
        assert violations == [
            "vectorized/nsm/SRS: in the baseline but not measured"]
        _, violations = run_bench.compare_to_baseline(
            points[:1], {"configs": points}, cells_filter="tuple/*")
        assert not violations
