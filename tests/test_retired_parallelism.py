"""Host parallelism is retired, and its old spellings fail loudly.

Every query runs in one process: there is no ``parallelism`` execution
knob, no ``--workers`` script flag, and the two ``ExperimentConfig`` fields
that remain for existing callers accept only 1.  A caller still asking for
workers must get an error, never a silently serial run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.engine import Database, Session
from repro.experiments.runner import ExperimentConfig
from repro.query.plans import ExecutionConfig
from repro.storage.schema import ColumnType
from repro.systems import SYSTEM_B

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_session_rejects_parallelism_as_an_unknown_knob():
    db = Database()
    db.create_table("R", [("a1", ColumnType.INT32)])
    with pytest.raises(TypeError) as declared:
        ExecutionConfig(engine="vectorized", parallelism=2)
    with pytest.raises(TypeError) as raised:
        Session(db, SYSTEM_B, engine="vectorized", parallelism=2)
    assert str(raised.value) == str(declared.value)
    assert "parallelism" in str(raised.value)


@pytest.mark.parametrize("field", ("parallelism", "grid_workers"))
def test_experiment_config_accepts_only_one_worker(field):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: 2})
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: 0})


def test_experiment_config_still_takes_the_serial_spelling():
    config = ExperimentConfig(parallelism=1, grid_workers=1)
    assert config == ExperimentConfig()


def _script_main(name: str):
    spec = importlib.util.spec_from_file_location(
        name.replace(".py", ""), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("script,argv", [
    ("run_artifact.py", ["run_all", "--scale", "ci", "--workers", "2"]),
    ("run_trace.py", ["--workers", "2"]),
])
def test_scripts_reject_the_workers_flag(script, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        _script_main(script)(argv)
    assert exit_info.value.code == 2
    assert "--workers" in capsys.readouterr().err
