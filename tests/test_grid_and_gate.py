"""The measurement grid: address-space checkpoints and warmed-build reuse.

The grid's contract is that caching one warmed database build per
layout changes *nothing*: the address-space checkpoint/restore makes a
session against the cached build allocate at the same addresses as against
a fresh build, so rows and simulated cycles are identical -- and therefore
independent of how many cells ran before.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import Cell, ExperimentConfig, ExperimentRunner
from repro.storage.address_space import AddressSpace, AddressSpaceError
from repro.workloads.micro import MicroWorkloadConfig


TINY = MicroWorkloadConfig(scale=0.001)


def tiny_runner() -> ExperimentRunner:
    return ExperimentRunner(ExperimentConfig(micro=TINY, os_interference=False))


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

