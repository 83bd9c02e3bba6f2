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

ROOT = Path(__file__).resolve().parent.parent
MODULES = (repro.adaptive, repro.adaptive.stats, repro.adaptive.policy,
           repro.adaptive.manager)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_adaptive_doctests_pass(module):
    failures, tested = doctest.testmod(module, verbose=False)
    assert failures == 0
    if module is not repro.adaptive:  # the package docstring has no examples
        assert tested > 0, f"{module.__name__} lost its runnable examples"


def load_check_docs():
    spec = importlib.util.spec_from_file_location("check_docs",
                                                  ROOT / "scripts" / "check_docs.py")
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    return check_docs


def test_docstring_roles_resolve():
    """``scripts/check_docs.py`` follows every ``:mod:`` / ``:class:`` /
    ``:func:`` / ``:meth:`` / ``:attr:`` / ``:data:`` target of a
    ``src/repro`` docstring to something importable (``hardware/pipeline.py``
    pointed at a module that never existed; ``workloads/serving.py`` at a
    ``Server.step`` its module never imports)."""
    check_docs = load_check_docs()
    resolves = check_docs.role_target_resolves
    home = ("repro.hardware.pipeline", "repro.hardware")
    assert resolves("repro.analysis.breakdown", *home)
    assert resolves("repro.analysis.breakdown.ExecutionBreakdown", *home)
    assert resolves(".counters.NativeBank", *home)
    assert resolves("CycleModel", *home)
    assert not resolves("repro.analysis.formulae", *home)
    assert not resolves(".counters.NoSuchBank", *home)
    assert not resolves("NoSuchModel", *home)
    # Sphinx's order: the enclosing class, then the module, then absolute.
    server = ("repro.serving.server", "repro.serving")
    assert resolves("_probe_charge", *server, ("Server",))
    assert not resolves("_probe_charge", *server)
    assert resolves("Server.step", *server)
    assert not resolves("Server.step", "repro.workloads.serving",
                        "repro.workloads")
    assert resolves("repro.serving.server.Server.step", *home)
    # Instance attributes: a ``self.<name> =``, a dataclass field without a
    # default, a ``__slots__`` entry.
    assert resolves("stats", *server, ("Server",))
    assert resolves("repro.engine.session.QueryResult.rows", *home)
    assert resolves("ServingFuture.outcome", *server)
    assert resolves("PipelineSpec.l1i_fetch_stall_cycles",
                    "repro.hardware.specs", "repro.hardware")
    assert not resolves("PipelineSpec.l1i_fetch_stall_cycles", *home)
    assert not resolves("no_such_attribute", *server, ("Server",))
    # The role text: ``title <target>``, ``~`` and line wraps.
    target = check_docs.role_target
    assert target("the round <~repro.serving.server.\n    Server.step>") \
        == "repro.serving.server.Server.step"
    assert target("~Server.step") == "Server.step"
    assert target("~repro.hardware.specs.\n    #: PipelineSpec") \
        == "repro.hardware.specs.PipelineSpec"
    assert list(check_docs.dangling_roles()) == []


def test_architecture_map_lists_exactly_the_packages():
    """README's "Architecture map" has one row per package under
    ``src/repro/``: a stale row fails the docs check, and so does a
    missing one."""
    check_docs = load_check_docs()
    readme = (ROOT / "README.md").read_text()
    assert list(check_docs.architecture_map_errors(readme)) == []
    row = "| `serving/` |"
    assert row in readme
    stale = readme.replace(row, "| `emon/` | A retired package |\n" + row)
    missing = readme.replace(row, "| `not-a-package` |")
    for text in (stale, missing):
        (error,) = check_docs.architecture_map_errors(text)
        assert "Architecture map" in error
