"""A session is freed when it is dropped.

The native automata (``_cachesim.c``) own their state in C arrays behind
plain reference-counted objects the cycle collector cannot see into.  The
ownership rule that makes this safe -- a cache level owns its next level,
the processor's charging block owns the six state objects, nothing refers
back up except by a *borrowed* pointer to the object that owns it -- is
what these tests pin: dropping a ``Session`` must free its processor, its
context and the arrays behind them by reference count alone, with or
without the OS-interference model; the arrays are freed with the object (no
leak), and a state object lives as long as anything can still reach it (no
dangling pointer).
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import weakref

import pytest

from repro.experiments import ExperimentConfig, ExperimentRunner
from repro.hardware.cache import Cache, PORT_DATA_READ, PORT_DATA_WRITE
from repro.hardware.processor import SimulatedProcessor
from repro.hardware.specs import CacheSpec
from repro.workloads.micro import MicroWorkloadConfig

TINY = MicroWorkloadConfig(scale=0.001)


@pytest.fixture(scope="module", params=[True, False], ids=["os_on", "os_off"])
def runner(request) -> ExperimentRunner:
    return ExperimentRunner(ExperimentConfig(micro=TINY,
                                             os_interference=request.param))


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def live_processors() -> int:
    return sum(isinstance(obj, SimulatedProcessor) for obj in gc.get_objects())


@pytest.mark.parametrize("engine", ["tuple", "vectorized"])
def test_dropped_session_is_freed_by_reference_count(runner, collector_off, engine):
    query = runner.micro_workload.sequential_range_selection()
    session = runner.grid_session(engine=engine, layout="nsm")
    result = session.execute(query, warmup_runs=0)
    assert result.rows
    references = [weakref.ref(session), weakref.ref(session.context),
                  weakref.ref(session.processor)]
    session.close()
    del session, result
    assert [reference() for reference in references] == [None, None, None]


def test_fifty_sessions_leave_no_objects_behind(runner):
    query = runner.micro_workload.sequential_range_selection()

    def open_and_drop(count):
        for _ in range(count):
            session = runner.grid_session(engine="vectorized", layout="nsm")
            session.execute(query, warmup_runs=0)
            session.close()
        del session
        gc.collect()
        return len(gc.get_objects())

    baseline = open_and_drop(2)   # builds, caches and lazy imports settle
    grown = open_and_drop(50)
    # One leaked session is ~9,200 tracked objects; the bound is a constant,
    # not a per-session allowance.
    assert grown - baseline < 500


def test_server_holds_no_processor_per_served_miss(runner, collector_off):
    workload = runner.micro_workload
    queries = [workload.sequential_range_selection(),
               workload.indexed_range_selection(),
               workload.sequential_join(),
               workload.skewed_conjunct_selection()]
    server = runner.serving_server("nsm", result_cache=False)
    before = live_processors()
    futures = [server.submit(queries[i % len(queries)]) for i in range(100)]
    server.step()
    assert 0 < server.queue_depth < 100
    assert live_processors() - before <= server.queue_depth
    server.run_until_idle()
    assert all(future.done() for future in futures)
    assert server.stats.result_cache_hits == 0
    assert live_processors() == before


# ------------------------------------------------------ C-owned memory


def resident_kb() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * resource.getpagesize() // 1024


@pytest.mark.skipif("libasan" in os.environ.get("LD_PRELOAD", ""),
                    reason="AddressSanitizer quarantines freed memory: RSS says nothing")
def test_dropped_processors_give_their_arrays_back(collector_off):
    """A processor's state is ~0.2 MB of C arrays, freed in the state types'
    dealloc: 300 dropped processors leaving 2 MB behind would be a leak of
    a thirtieth of one, far below any one array."""
    def churn(count):
        for _ in range(count):
            processor = SimulatedProcessor()
            processor.data_read_strided(0x10000, 32, 4096, 4)
            processor.fetch_code_run(0x400000, 64)
        del processor

    churn(20)                      # allocator arenas and lazy imports settle
    before = resident_kb()
    churn(300)
    assert resident_kb() - before < 2048


def test_native_state_outlives_its_dropped_wrapper():
    """``l1 -> l2``: the L1's state owns a reference to the L2's, so the L2
    arrays stay valid (and keep filling) after the Python ``l2`` is gone."""
    l2 = Cache(CacheSpec(name="l2", size_bytes=4096, line_bytes=32,
                         associativity=4, write_back=True))
    l1 = Cache(CacheSpec(name="l1", size_bytes=256, line_bytes=32,
                         associativity=2, write_back=True), next_level=l2)
    l1.next_level = None           # the wrapper's only other holder
    assert sys.getrefcount(l2) == 2      # this name and the call's argument
    del l2
    # 64 lines through an 8-line L1: every pass misses the L1 and, from the
    # second pass on, is served by the L2 state nobody wraps any more.
    for _ in range(3):
        assert l1.access_strided(0, 32, 64, 4, PORT_DATA_READ) == 64
    l1.access_strided(0, 32, 64, 4, PORT_DATA_WRITE, write=True)
    assert l1.access_strided(0x8000, 32, 64, 4, PORT_DATA_READ) == 64
    assert l1.stats.writebacks == 64     # every dirty victim written into that L2
    assert l1.resident_lines() == 8


def test_charging_block_keeps_the_automata_alive():
    """The charging block holds its own references to the six state objects
    and their wrappers: it stays usable while the processor that owns it is
    alive, whatever happens to the attributes it was built from."""
    processor = SimulatedProcessor()
    processor.caches = None
    processor.dtlb = processor.itlb = processor.branch_unit = None
    gc.collect()
    assert processor.data_read_strided(0x10000, 32, 512, 4) == 512
    assert processor.fetch_code_run(0x400000, 16) == 16
    assert processor.counters.user["DATA_MEM_REFS"] == 512
