"""Differential harness for the TPC workloads under the modern engine matrix.

The contract mirrors the microbenchmark differential suite
(``test_vectorized_equivalence.py``), lifted to whole workloads:

* **Rows are engine-independent.**  Every TPC-D query and every TPC-C
  statement (selections *and* updates) returns row-for-row identical
  results under the tuple and vectorized engines, under bulk and
  per-address charging, and with either kernel backend.  Across
  engines the ``query_setup`` charge counts also match (the PR 1
  contract); the *hardware* counts differ across engines by design --
  that difference IS the engine ablation.
* **Counts are identical across the identity walls.**  For a fixed engine,
  the simulated event counters are bit-identical across production (span)
  charging vs the per-address oracle (``oracle.PerAddressContext``) and
  the python vs array kernel backends -- each is a simulator
  implementation choice, never a model change.

Everything measures on the warmed TPC grids (one build per layout,
checkpoints restored per arm), so the suite doubles as the regression test
that warmed-build reuse is invisible -- including for TPC-C, whose updates
mutate pages in place and rely on the data checkpoint.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from oracle import per_address_sessions
from repro.engine.session import Session
from repro.experiments.runner import Cell, ExperimentConfig, ExperimentRunner
from repro.systems.vendors import oltp_variant, system_by_key
from repro.workloads.micro import MicroWorkloadConfig
from repro.workloads.tpcc import TPCCConfig
from repro.workloads.tpcd import TPCDConfig

TXNS = 8
ENGINES = ("tuple", "vectorized")
#: How an arm's sessions charge: through the per-address oracle or the
#: production (span) context.
CHARGING = {"per_address": per_address_sessions, "span": nullcontext}
KERNEL_BACKENDS = ("python", "array")


def make_runner() -> ExperimentRunner:
    return ExperimentRunner(ExperimentConfig(
        micro=MicroWorkloadConfig(scale=1 / 2000),
        tpcd=TPCDConfig(lineitem_rows=300, orders_rows=60, part_rows=30,
                        supplier_rows=15),
        tpcc=TPCCConfig(scale=0.003),
        tpcc_transactions=TXNS,
        os_interference=False))


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    return make_runner()


# ---------------------------------------------------------------- TPC-D rows
def _tpcd_session(runner, engine, charge_mode="span",
                  kernel_backend="auto", layout="nsm") -> Session:
    database, checkpoint = runner.tpcd_grid_database(layout)
    database.address_space.restore(checkpoint)
    with CHARGING[charge_mode]():
        return Session(database, system_by_key("B"), spec=runner.config.spec,
                       os_interference=None, engine=engine,
                       kernel_backend=kernel_backend)


def _tpcd_rows_and_setups(runner, **session_knobs):
    """Per-query rows plus total query_setup charges for one matrix arm."""
    rows = []
    setups = 0
    with _tpcd_session(runner, **session_knobs) as session:
        for query in runner.tpcd_workload.queries():
            result = session.execute(query, warmup_runs=0)
            rows.append(result.rows)
            setups += result.routine_invocations.get("query_setup", 0)
    return rows, setups


@pytest.mark.parametrize("layout", ("nsm", "pax"))
def test_tpcd_rows_identical_across_matrix(runner, layout):
    reference_rows, reference_setups = _tpcd_rows_and_setups(
        runner, engine="tuple", layout=layout)
    assert len(reference_rows) == runner.tpcd_workload.query_count()
    assert all(rows for rows in reference_rows), \
        "every TPC-D query aggregates to at least one row"
    for engine in ENGINES:
        for charge_mode in CHARGING:
            for backend in KERNEL_BACKENDS:
                rows, setups = _tpcd_rows_and_setups(
                    runner, engine=engine, charge_mode=charge_mode,
                    kernel_backend=backend, layout=layout)
                assert rows == reference_rows, (
                    f"rows diverged: {engine}/{charge_mode}/{backend}/{layout}")
                assert setups == reference_setups, (
                    f"query_setup charges diverged: {engine}/"
                    f"{charge_mode}/{backend}/{layout}")


# -------------------------------------------------------------- TPC-D counts
def test_tpcd_counts_identical_across_walls(runner):
    """Bulk charging and kernel backend never change the counts: every
    production arm equals the per-address oracle."""
    for engine in ENGINES:
        cell = Cell(dataset="tpcd", knobs={"engine": engine})
        with per_address_sessions(), runner.session(cell) as session:
            reference = runner.execute(cell, session).counters.as_dict()
        for backend in KERNEL_BACKENDS:
            arm = runner.tpcd_grid_result("nsm", engine=engine,
                                          kernel_backend=backend)
            assert arm.counters.as_dict() == reference, (
                f"counts diverged: {engine}/{backend}")


def test_tpcd_engines_differ_in_counts_by_design(runner):
    """Sanity: tuple vs vectorized IS a model change (the ablation)."""
    tuple_arm = runner.tpcd_grid_result("nsm", engine="tuple")
    vector_arm = runner.tpcd_grid_result("nsm", engine="vectorized")
    assert (tuple_arm.counters.get("INST_RETIRED")
            != vector_arm.counters.get("INST_RETIRED"))


# ---------------------------------------------------------------- TPC-C rows
def _tpcc_statement_rows(runner, engine, charge_mode="span",
                         kernel_backend="auto", layout="nsm"):
    """Rows of every statement of a fixed transaction stream, one arm.

    Both checkpoints are restored first (the mix updates pages in place),
    then every statement executes through ``Session.execute`` so its rows
    -- selection aggregates and ``{"updated": n}`` acknowledgements alike
    -- are observable.  The stream is fixed by seed, so arms see identical
    statement sequences against identical starting states.
    """
    database, workload, checkpoint, data = runner.tpcc_grid_database(layout)
    database.address_space.restore(checkpoint)
    database.data_restore(data)
    rows = []
    setups = 0
    with CHARGING[charge_mode]():
        session = Session(database, oltp_variant(system_by_key("B")),
                          spec=runner.config.spec, os_interference=None,
                          engine=engine, kernel_backend=kernel_backend)
    with session:
        for txn in workload.transactions(TXNS, seed=1234):
            for statement in txn.statements:
                result = session.execute(statement, warmup_runs=0)
                rows.append(result.rows)
                setups += result.routine_invocations.get("query_setup", 0)
    return rows, setups


@pytest.mark.parametrize("layout", ("nsm", "pax"))
def test_tpcc_rows_identical_across_matrix(runner, layout):
    reference_rows, reference_setups = _tpcc_statement_rows(
        runner, engine="tuple", layout=layout)
    assert any(row == [{"updated": 1}] for row in reference_rows), \
        "the mix must contain applied updates"
    for engine in ENGINES:
        for charge_mode in CHARGING:
            for backend in KERNEL_BACKENDS:
                rows, setups = _tpcc_statement_rows(
                    runner, engine=engine, charge_mode=charge_mode,
                    kernel_backend=backend, layout=layout)
                assert rows == reference_rows, (
                    f"rows diverged: {engine}/{charge_mode}/{backend}/{layout}")
                assert setups == reference_setups, (
                    f"query_setup charges diverged: {engine}/"
                    f"{charge_mode}/{backend}/{layout}")


# -------------------------------------------------------------- TPC-C counts
def _tpcc_counters(runner, engine, charge_mode="span",
                   kernel_backend="auto", layout="nsm"):
    """Full measured counters of the driven mix for one matrix arm."""
    database, workload, checkpoint, data = runner.tpcc_grid_database(layout)
    database.address_space.restore(checkpoint)
    database.data_restore(data)
    with CHARGING[charge_mode]():
        session = Session(database, oltp_variant(system_by_key("B")),
                          spec=runner.config.spec, os_interference=None,
                          engine=engine, kernel_backend=kernel_backend)
    with session:
        counters, _, _, executed = workload.run(
            session, transactions=TXNS, warmup_transactions=2)
    assert executed == TXNS
    return counters.as_dict()


def test_tpcc_counts_identical_across_walls(runner):
    for engine in ENGINES:
        reference = _tpcc_counters(runner, engine, charge_mode="per_address")
        for charge_mode in CHARGING:
            for backend in KERNEL_BACKENDS:
                arm = _tpcc_counters(runner, engine, charge_mode=charge_mode,
                                     kernel_backend=backend)
                assert arm == reference, (
                    f"counts diverged: {engine}/{charge_mode}/{backend}")


def test_tpcc_grid_repeat_identity(runner):
    """The warmed TPC-C grid is invisible despite in-place updates."""
    first = _tpcc_counters(runner, "vectorized")
    second = _tpcc_counters(runner, "vectorized")
    assert first == second
