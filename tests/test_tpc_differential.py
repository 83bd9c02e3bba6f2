"""Differential harness for the TPC workloads under the modern engine matrix.

The contract mirrors the microbenchmark differential suite
(``test_vectorized_equivalence.py``), lifted to whole workloads:

* **Rows are engine-independent.**  Every TPC-D query and every TPC-C
  statement (selections *and* updates) returns row-for-row identical
  results under the tuple and vectorized engines.  Across engines the
  ``query_setup`` charge counts also match; the *hardware* counts differ
  across engines by design -- that difference IS the engine ablation.
* **Counts are identical across the identity walls** -- per-address vs
  bulk charging, python vs array kernels, and every other swap of
  ``oracle.ORACLES`` -- for a fixed engine: ``tests/test_reference_oracle.py``
  runs the ``--scale ci`` artifact's TPC-D and TPC-C matrices (both
  engines, both layouts) under each swap.

Everything measures on the warmed TPC grids (one build per layout,
checkpoints restored per arm), so the suite doubles as the regression test
that warmed-build reuse is invisible -- including for TPC-C, whose updates
mutate pages in place and rely on the data checkpoint.
"""

from __future__ import annotations

import pytest

from repro.engine.session import Session
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.systems.vendors import oltp_variant, system_by_key
from repro.workloads.micro import MicroWorkloadConfig
from repro.workloads.tpcc import TPCCConfig
from repro.workloads.tpcd import TPCDConfig

TXNS = 8
ENGINES = ("tuple", "vectorized")


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
def _tpcd_rows_and_setups(runner, engine, layout="nsm"):
    """Per-query rows plus total query_setup charges for one engine."""
    database, checkpoint = runner.tpcd_grid_database(layout)
    database.address_space.restore(checkpoint)
    rows = []
    setups = 0
    with Session(database, system_by_key("B"), spec=runner.config.spec,
                 os_interference=None, engine=engine) as session:
        for query in runner.tpcd_workload.queries():
            result = session.execute(query, warmup_runs=0)
            rows.append(result.rows)
            setups += result.routine_invocations.get("query_setup", 0)
    return rows, setups


@pytest.mark.parametrize("layout", ("nsm", "pax"))
def test_tpcd_rows_identical_across_engines(runner, layout):
    reference_rows, reference_setups = _tpcd_rows_and_setups(
        runner, "tuple", layout)
    assert len(reference_rows) == runner.tpcd_workload.query_count()
    assert all(rows for rows in reference_rows), \
        "every TPC-D query aggregates to at least one row"
    rows, setups = _tpcd_rows_and_setups(runner, "vectorized", layout)
    assert rows == reference_rows, f"rows diverged: {layout}"
    assert setups == reference_setups, f"query_setup charges diverged: {layout}"


def test_tpcd_engines_differ_in_counts_by_design(runner):
    """Sanity: tuple vs vectorized IS a model change (the ablation)."""
    tuple_arm = runner.tpcd_grid_result("nsm", engine="tuple")
    vector_arm = runner.tpcd_grid_result("nsm", engine="vectorized")
    assert (tuple_arm.counters.get("INST_RETIRED")
            != vector_arm.counters.get("INST_RETIRED"))


# ---------------------------------------------------------------- TPC-C rows
def _tpcc_statement_rows(runner, engine, layout="nsm"):
    """Rows of every statement of a fixed transaction stream, one engine.

    Both checkpoints are restored first (the mix updates pages in place),
    then every statement executes through ``Session.execute`` so its rows
    -- selection aggregates and ``{"updated": n}`` acknowledgements alike
    -- are observable.  The stream is fixed by seed, so both engines see
    identical statement sequences against identical starting states.
    """
    database, workload, checkpoint, data = runner.tpcc_grid_database(layout)
    database.address_space.restore(checkpoint)
    database.data_restore(data)
    rows = []
    setups = 0
    with Session(database, oltp_variant(system_by_key("B")),
                 spec=runner.config.spec, os_interference=None,
                 engine=engine) as session:
        for txn in workload.transactions(TXNS, seed=1234):
            for statement in txn.statements:
                result = session.execute(statement, warmup_runs=0)
                rows.append(result.rows)
                setups += result.routine_invocations.get("query_setup", 0)
    return rows, setups


@pytest.mark.parametrize("layout", ("nsm", "pax"))
def test_tpcc_rows_identical_across_engines(runner, layout):
    reference_rows, reference_setups = _tpcc_statement_rows(
        runner, "tuple", layout)
    assert any(row == [{"updated": 1}] for row in reference_rows), \
        "the mix must contain applied updates"
    rows, setups = _tpcc_statement_rows(runner, "vectorized", layout)
    assert rows == reference_rows, f"rows diverged: {layout}"
    assert setups == reference_setups, f"query_setup charges diverged: {layout}"


# -------------------------------------------------------------- TPC-C counts
def _tpcc_counters(runner, engine, layout="nsm"):
    """Full measured counters of the driven mix for one engine."""
    database, workload, checkpoint, data = runner.tpcc_grid_database(layout)
    database.address_space.restore(checkpoint)
    database.data_restore(data)
    with Session(database, oltp_variant(system_by_key("B")),
                 spec=runner.config.spec, os_interference=None,
                 engine=engine) as session:
        counters, _, _, executed = workload.run(
            session, transactions=TXNS, warmup_transactions=2)
    assert executed == TXNS
    return counters.as_dict()


def test_tpcc_grid_repeat_identity(runner):
    """The warmed TPC-C grid is invisible despite in-place updates."""
    first = _tpcc_counters(runner, "vectorized")
    second = _tpcc_counters(runner, "vectorized")
    assert first == second
