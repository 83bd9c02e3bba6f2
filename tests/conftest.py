"""Shared fixtures: small-scale datasets that keep the suite fast.

The unit and integration tests run the same code paths as the paper-scale
benchmarks but on heavily scaled-down datasets (a few hundred rows).  Cache
*behaviour* at that scale is not representative -- the benchmarks under
``benchmarks/`` are responsible for the quantitative claims -- so the tests
concentrate on functional correctness, invariants and the plumbing of the
measurement framework.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

import reference_machine as reference
from oracle import per_address_sessions
from repro.engine import Database, Session
from repro.hardware import OSInterferenceConfig, SimulatedProcessor
from repro.storage import Catalog
from repro.systems import ALL_SYSTEMS, SYSTEM_A, SYSTEM_B, SYSTEM_C, SYSTEM_D
from repro.workloads import MicroWorkload, MicroWorkloadConfig

#: Scale used by tests: ~600-row R, ~20-row S.
TEST_SCALE = 1.0 / 2000.0


@pytest.fixture(scope="session")
def reference_machine():
    """``with reference_machine(): ...`` builds on the reference machine.

    Every automaton and processor reads the one substitution point,
    ``repro.hardware.cache._NATIVE``, when it is constructed (a context
    builds on its processor's machine).  A ``Cache``, ``TLB``,
    ``BranchPredictor``, ``SimulatedProcessor`` or ``Session`` built inside
    the block is therefore the pure-Python oracle of
    ``tests/reference_machine.py``, and stays one after the block ends.
    Session-scoped (it holds no state), so Hypothesis tests may use it.
    """
    return reference.reference_machine


@pytest.fixture
def charging(charge_mode):
    """For a test parametrized over ``charge_mode``: ``with charging(): ...``
    makes every ``Session`` constructed inside the block charge the
    simulated hardware through :class:`oracle.PerAddressContext` when the
    mode is ``"per_address"`` -- one probe per address on the reference
    machine, the reference the production bulk charging must match count
    for count -- and is a no-op for ``"span"`` (production charging).  A
    session keeps its context after the block ends.
    """
    return per_address_sessions if charge_mode == "per_address" else nullcontext


@pytest.fixture(scope="session")
def micro_workload() -> MicroWorkload:
    return MicroWorkload(MicroWorkloadConfig(scale=TEST_SCALE, minimum_r_rows=600))


@pytest.fixture(scope="session")
def micro_database(micro_workload) -> Database:
    database = micro_workload.build()
    micro_workload.create_selection_index(database)
    return database


@pytest.fixture
def processor() -> SimulatedProcessor:
    return SimulatedProcessor()


@pytest.fixture
def catalog() -> Catalog:
    return Catalog()


@pytest.fixture(params=[profile.key for profile in ALL_SYSTEMS])
def system_profile(request):
    """Parametrised over the four commercial-system profiles."""
    from repro.systems import system_by_key
    return system_by_key(request.param)


@pytest.fixture
def session_b(micro_database) -> Session:
    """A measurement session for System B on the shared tiny dataset."""
    return Session(micro_database, SYSTEM_B,
                   os_interference=OSInterferenceConfig(interval_instructions=50_000))
