"""A profile's code has one address, and so does a session's memory.

The modelled DBMS binary is loaded once: ``CodeLayout`` places a profile's
cold pool, its routines and the conjunct branch-site block at fixed offsets
from the ``code`` region's base -- the offsets the first session on a fresh
build always had -- and an execution context allocates its working set from
its own fork of the database's address space.  So a session opened after
any number of sessions on a database that is never restored runs at the
addresses of the first, and is charged exactly as the first.
"""

from __future__ import annotations

import pytest

from repro.engine import Session
from repro.execution import LINE_BYTES
from repro.storage.address_space import AddressSpace
from repro.systems import ALL_SYSTEMS, OPERATION_NAMES, SYSTEM_B
from repro.workloads import MicroWorkload, MicroWorkloadConfig

LAYOUTS = ("nsm", "pax")
SYSTEMS = {profile.key: profile for profile in ALL_SYSTEMS}
QUERIES = {"SRS": "sequential_range_selection",
           "IRS": "indexed_range_selection",
           "SJ": "sequential_join"}


@pytest.fixture(scope="module")
def micro():
    """One unrestored build per layout, shared by every case."""
    workload = MicroWorkload(MicroWorkloadConfig(scale=1 / 2000,
                                                 minimum_r_rows=600))
    databases = {}
    for layout in LAYOUTS:
        database = workload.build(layout_style=layout)
        workload.create_selection_index(database)
        databases[layout] = database
    return workload, databases


def charge(session: Session, query) -> tuple:
    """The rows, both counter banks and the routine invocations of one cold
    execution of ``query``."""
    result = session.execute(query, warmup_runs=0)
    return (result.rows, result.counters.as_dict(),
            result.counters.as_dict("SUP"), dict(result.routine_invocations))


def test_three_thousand_sessions_on_one_unrestored_database(micro):
    workload, databases = micro
    database = databases["nsm"]
    query = workload.sequential_range_selection()
    first = charge(Session(database, SYSTEM_B), query)
    for _ in range(2_998):
        Session(database, SYSTEM_B)
    assert charge(Session(database, SYSTEM_B), query) == first


@pytest.mark.parametrize("kind", sorted(QUERIES))
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("engine", ("tuple", "vectorized"))
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_a_later_session_is_charged_as_the_first(micro, system, engine,
                                                 layout, kind):
    workload, databases = micro
    database, profile = databases[layout], SYSTEMS[system]
    query = getattr(workload, QUERIES[kind])()

    def run() -> tuple:
        return charge(Session(database, profile, engine=engine), query)

    first = run()
    for _ in range(3):
        run()
    assert run() == first


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_a_later_adaptive_session_is_charged_as_the_first(micro, system,
                                                          layout):
    """The adaptive path charges the conjunct branch-site block and keeps
    its statistics per session: a later session reorders and charges the
    three-conjunct selection exactly as the first."""
    workload, databases = micro
    database, profile = databases[layout], SYSTEMS[system]
    query = workload.skewed_conjunct_selection()

    def run() -> tuple:
        return charge(Session(database, profile, engine="vectorized",
                              adaptivity="greedy", batch_size=32), query)

    first = run()
    for _ in range(3):
        run()
    assert run() == first


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_placement_is_the_first_sessions_and_allocates_nothing(micro, system):
    """Every offset is what bump-allocating the layout from the start of an
    empty ``code`` region gave, and an adaptive session -- which charges
    the conjunct block -- leaves the region's cursor at 0."""
    workload, databases = micro
    database, profile = databases["pax"], SYSTEMS[system]
    space = AddressSpace()
    cold_pool = space.allocate("code", profile.cold_code_pool_bytes,
                               alignment=LINE_BYTES)
    routines = {operation: space.allocate(
                    "code", max(profile.cost(operation).code_bytes, LINE_BYTES),
                    alignment=LINE_BYTES)
                for operation in OPERATION_NAMES}
    conjunct_sites = space.allocate("code", 4096, alignment=64)

    session = Session(database, profile, engine="vectorized",
                      adaptivity="greedy")
    session.execute(workload.skewed_conjunct_selection(), warmup_runs=0)
    layout = session.code_layout
    assert layout.cold_pool_base == cold_pool
    assert {operation: layout.segment(operation).base_address
            for operation in OPERATION_NAMES} == routines
    assert layout.conjunct_sites_base == conjunct_sites
    assert session.context.op_invocations["predicate"] > 0
    assert database.address_space.region("code").cursor == 0
    assert session.context.address_space.region("code").cursor == 0
