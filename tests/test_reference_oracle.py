"""The whole artifact on the reference machine: every count identical.

The count gate diffs the ``--scale ci`` artifact CSVs against the committed
baseline, natively.  This runs the same ``run_all(scale="ci")`` once
natively and once on the reference machine (``reference_machine.py``, the
pure-Python transcription of ``_cachesim``) and asserts that the raw
measurements are equal, artifact by artifact, and that every cell either
runner measured has equal rows and equal user and supervisor counter
banks: every figure's systems A-D with OS interference on, the engine
ablation, the adaptive, budgeted-join and serving tables and the TPC
mixes, not only the charging entry points the differential suites drive
one by one.
"""

from __future__ import annotations

import pytest

from reference_machine import reference_machine
from repro.analysis import artifact_io
from repro.experiments import artifact

SILENT = lambda *args, **kwargs: None  # noqa: E731 - quiet echo


def run_ci(out, monkeypatch):
    """``run_all(scale="ci")`` into ``out``; returns the runner it used."""
    runners = []

    class Recorded(artifact.ExperimentRunner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runners.append(self)

    monkeypatch.setattr(artifact, "ExperimentRunner", Recorded)
    path = artifact.run_all(out, scale="ci", echo=SILENT)
    (runner,) = runners
    return runner, artifact_io.read_raw(path)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``(native, reference)``: each a ``(runner, raw)`` of one ci run."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        native = run_ci(tmp_path_factory.mktemp("native"), monkeypatch)
        with reference_machine():
            reference = run_ci(tmp_path_factory.mktemp("reference"),
                               monkeypatch)
    return native, reference


@pytest.mark.slow
def test_ci_artifact_is_count_identical_on_the_reference_machine(runs):
    (native, native_raw), (reference, reference_raw) = runs
    assert reference_raw == native_raw
    assert list(reference._results) == list(native._results)
    for cell, ours in reference._results.items():
        theirs = native._results[cell]
        assert getattr(ours, "rows", None) == getattr(theirs, "rows", None), cell
        assert dict(ours.counters.user) == dict(theirs.counters.user), cell
        assert dict(ours.counters.sup) == dict(theirs.counters.sup), cell
    assert len(native._results) > 50


@pytest.mark.slow
@pytest.mark.parametrize("name", [spec.name for spec in artifact.REGISTRY])
def test_artifact_is_identical_on_the_reference_machine(runs, name):
    """One artifact's raw measurement, so a divergence names its table."""
    (_, native_raw), (_, reference_raw) = runs
    assert native_raw[name]["data"], name
    assert reference_raw[name] == native_raw[name]
