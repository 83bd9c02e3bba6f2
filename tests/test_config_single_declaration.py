"""A knob is declared once.

``repro.query.plans.ExecutionConfig`` is the only place an execution knob is
named, defaulted, validated and documented.  Every entry point that takes
knobs -- ``Session``, ``Server``, ``ExperimentRunner.grid_session`` /
``serving_server`` -- hands them to the dataclass unchanged, so

(a) none of them (nor ``ExecutionContext``, nor ``Cell``) re-declares a knob
    as a parameter or field of its own,
(b) an invalid or unknown knob fails with the dataclass's own error, at
    construction, identically in all of them, and
(c) a ``Cell``'s session runs under exactly the config its knob overrides
    name over ``ExecutionConfig``'s defaults.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.engine import Session
from repro.execution import ExecutionContext
from repro.experiments.runner import (Cell, ExperimentConfig, ExperimentRunner,
                                      adaptive_cell)
from repro.query.plans import ExecutionConfig
from repro.serving import Server
from repro.systems import SYSTEM_B
from repro.workloads import MicroWorkloadConfig

KNOBS = {field.name for field in dataclasses.fields(ExecutionConfig)}


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    return ExperimentRunner(ExperimentConfig(
        micro=MicroWorkloadConfig(scale=0.001), os_interference=False))


# ------------------------------------------------------------------ (a)
@pytest.mark.parametrize("function", [
    Session.__init__, Server.__init__, ExecutionContext.__init__,
    ExperimentRunner.grid_session, ExperimentRunner.serving_server,
    ExperimentRunner.tpcd_grid_result, ExperimentRunner.tpcc_grid_result,
], ids=lambda function: function.__qualname__)
def test_no_entry_point_redeclares_a_knob(function):
    assert not KNOBS & set(inspect.signature(function).parameters)


def test_cell_carries_knobs_as_one_value():
    assert not KNOBS & {field.name for field in dataclasses.fields(Cell)}
    cell = Cell(knobs={"engine": "vectorized", "tracing": None,
                       "batch_size": 32})
    assert cell.knobs == (("batch_size", 32), ("engine", "vectorized"))
    assert cell == Cell(knobs=(("engine", "vectorized"), ("batch_size", 32)))
    assert hash(cell) == hash(dataclasses.replace(cell, layout="nsm"))


def test_the_knob_has_one_name():
    assert "parallelism" not in KNOBS and "workers" not in KNOBS
    assert len(KNOBS) == 8


# ------------------------------------------------------------------ (b)
def entry_points(runner):
    database, checkpoint = runner.grid_database("nsm")
    return {
        "Session": lambda **knobs: Session(database, SYSTEM_B, **knobs),
        "Server": lambda **knobs: Server(database, checkpoint, SYSTEM_B,
                                         **knobs),
        "grid_session": lambda **knobs: runner.grid_session(layout="nsm",
                                                            **knobs),
        "serving_server": lambda **knobs: runner.serving_server("nsm",
                                                                **knobs),
    }


@pytest.mark.parametrize("knobs", [
    {"engine": "bogus"},
    {"engine": "vectorized", "adaptive_joins": True},
    {"engine": "vectorized", "memory_budget_bytes": 0},
    {"engine": "vectorized", "no_such_knob": 1},
], ids=["engine", "adaptive_joins", "memory_budget_bytes", "unknown"])
def test_invalid_knobs_fail_alike_at_construction(runner, knobs):
    with pytest.raises((TypeError, ValueError)) as declared:
        ExecutionConfig(**knobs)
    for name, construct in entry_points(runner).items():
        with pytest.raises(type(declared.value)) as raised:
            construct(**knobs)
        assert str(raised.value) == str(declared.value), name


def test_an_execution_value_is_passed_on_unchanged(runner):
    database, checkpoint = runner.grid_database("nsm")
    execution = ExecutionConfig(engine="vectorized", batch_size=64)
    with Session(database, SYSTEM_B, execution=execution) as session:
        assert session.execution is execution
        assert session.context.execution is execution
    server = Server(database, checkpoint, SYSTEM_B, execution=execution)
    assert server.execution is execution
    with Session(database, SYSTEM_B, execution=execution,
                 tracing="spans") as session:
        assert session.execution == dataclasses.replace(execution,
                                                        tracing="spans")


# ------------------------------------------------------------------ (c)
@pytest.mark.parametrize("cell", [
    Cell(query="SRS", knobs={"engine": "vectorized"}),
    adaptive_cell("AJS", "nsm", "greedy"),
    Cell(query="SJB", knobs={"engine": "vectorized",
                             "memory_budget_bytes": 4096}),
], ids=["plain", "adaptive", "SJB"])
def test_cell_session_runs_under_the_cells_config(runner, cell):
    expected = ExecutionConfig(**dict(cell.knobs))
    with runner.session(cell) as session:
        assert session.execution == expected
