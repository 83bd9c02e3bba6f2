"""The whole artifact under every oracle: every count identical.

The count gate diffs the ``--scale ci`` artifact CSVs against the committed
baseline, natively.  This runs the same ``run_all(scale="ci")`` once
natively and once under each swap of ``oracle.ORACLES`` -- the reference
machine (``reference_machine.py``, the pure-Python transcription of
``_cachesim``), per-address charging, the Python kernels, the per-record
tuple pipelines, the pickled spill file, the read-modify-write update, the
record-at-a-time build, the heap-walk estimate and the rebuilt cache hit --
and asserts that the raw measurements are equal, artifact by artifact, and
that every cell either runner measured has equal rows, user and supervisor
counter banks and routine invocations: every figure's systems A-D with OS
interference on, the engine ablation, the adaptive, budgeted-join and
serving tables and the TPC mixes.  Each swap's tally must show that its
path ran.
"""

from __future__ import annotations

import ast
import inspect

import pytest

import oracle
from oracle import ORACLES
from repro.analysis import artifact_io
from repro.experiments import artifact

SILENT = lambda *args, **kwargs: None  # noqa: E731 - quiet echo

#: Swaps that take seconds rather than a second at ``--scale ci``.
SLOW = {"reference_machine", "per_address"}


def cell_state(result) -> dict:
    """What a measured cell must reproduce under every oracle."""
    return {"rows": getattr(result, "rows", None),
            "user": dict(result.counters.user),
            "sup": dict(result.counters.sup),
            "invocations": getattr(result, "routine_invocations", None)}


def run_ci(out, monkeypatch):
    """``run_all(scale="ci")`` into ``out``; returns the raw measurements
    and ``(cell, cell_state)`` of every cell the runner executed, in
    order (the cached grid cells and the uncached budgeted joins alike)."""
    executed = []

    class Recorded(artifact.ExperimentRunner):
        def execute(self, cell, session):
            result = super().execute(cell, session)
            executed.append((cell, cell_state(result)))
            return result

    monkeypatch.setattr(artifact, "ExperimentRunner", Recorded)
    path = artifact.run_all(out, scale="ci", echo=SILENT)
    return artifact_io.read_raw(path), executed


@pytest.fixture(scope="module")
def native(tmp_path_factory):
    """``(raw, executed)`` of one native ci run."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return run_ci(tmp_path_factory.mktemp("native"), monkeypatch)


@pytest.fixture(scope="module", params=[
    pytest.param(name, marks=pytest.mark.slow) if name in SLOW else name
    for name in ORACLES])
def swapped(request, tmp_path_factory):
    """``(name, ran, raw, executed)`` of one ci run under an oracle."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        with ORACLES[request.param]() as ran:
            raw, cells = run_ci(tmp_path_factory.mktemp(request.param),
                                monkeypatch)
    return request.param, ran, raw, cells


def test_ci_artifact_is_count_identical_under_the_oracle(native, swapped):
    native_raw, native_cells = native
    name, ran, raw, cells = swapped
    assert ran and all(ran.values()), f"{name} never ran: {dict(ran)}"
    assert list(raw) == list(native_raw)
    assert [cell for cell, _ in cells] == [cell for cell, _ in native_cells]
    for (cell, state), (_, expected) in zip(cells, native_cells):
        assert state == expected, cell
    assert len(cells) > 50


@pytest.mark.parametrize("table", [spec.name for spec in artifact.REGISTRY])
def test_artifact_is_identical_under_the_oracle(native, swapped, table):
    """One artifact's raw measurement, so a divergence names its table."""
    native_raw, _ = native
    _, _, raw, _ = swapped
    assert native_raw[table]["data"], table
    assert raw[table] == native_raw[table]


def context_managers(module) -> set:
    """Names of the ``@contextmanager`` functions ``module`` defines."""
    tree = ast.parse(inspect.getsource(module))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(getattr(decorator, "id", None) == "contextmanager"
                    for decorator in node.decorator_list)}


def unregistered(module, registry) -> set:
    registered = {swap.__name__ for swap in registry.values()}
    return context_managers(module) - registered


def test_every_oracle_is_registered():
    assert not unregistered(oracle, ORACLES)
    assert len(ORACLES) >= 7 and SLOW <= set(ORACLES)


def test_the_guard_sees_an_unregistered_oracle():
    registry = dict(ORACLES)
    del registry["pickled_spill_files"]
    assert unregistered(oracle, registry) == {"pickled_spill_files"}
