"""Doctest pass over the :mod:`repro.adaptive` public API.

The runnable ``>>>`` examples in the adaptive subsystem's docstrings double
as its smallest integration tests -- the quickstart snippets README.md and
the API docs quote must actually execute.  Collected here so they run in
tier-1 (and in the CI ``docs`` job) without enabling ``--doctest-modules``
repo-wide.
"""

from __future__ import annotations

import doctest
import importlib.util
from pathlib import Path

import pytest

import repro.adaptive
import repro.adaptive.manager
import repro.adaptive.policy
import repro.adaptive.stats

MODULES = (repro.adaptive, repro.adaptive.stats, repro.adaptive.policy,
           repro.adaptive.manager)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_adaptive_doctests_pass(module):
    failures, tested = doctest.testmod(module, verbose=False)
    assert failures == 0
    if module is not repro.adaptive:  # the package docstring has no examples
        assert tested > 0, f"{module.__name__} lost its runnable examples"


def test_docstring_roles_resolve():
    """``scripts/check_docs.py`` follows every ``:mod:`` / ``:class:`` /
    ``:func:`` target of a ``src/repro`` docstring to something importable
    (``hardware/pipeline.py`` pointed at a module that never existed)."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    resolves = check_docs.role_target_resolves
    home = ("repro.hardware.pipeline", "repro.hardware")
    assert resolves("repro.analysis.breakdown", *home)
    assert resolves("repro.analysis.breakdown.ExecutionBreakdown", *home)
    assert resolves(".counters.NativeBank", *home)
    assert resolves("CycleModel", *home)
    assert not resolves("repro.analysis.formulae", *home)
    assert not resolves(".counters.NoSuchBank", *home)
    assert not resolves("NoSuchModel", *home)
    assert list(check_docs.dangling_roles()) == []
