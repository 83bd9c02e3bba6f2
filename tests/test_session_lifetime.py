"""A session is freed when it is dropped.

The native charging block (``_cachesim.c``) keeps parsed pointers into the
processor's state inside ``PyCapsule`` objects, which the cycle collector
cannot see into.  The ownership rule that makes this safe -- the processor
owns the capsule, the capsule owns the state tuple, the tuple never refers
back to the processor, and the C side only *borrows* the processor -- is
what these tests pin: dropping a ``Session`` must free its processor, its
context and the ~8,700 cache-set containers behind them by reference count
alone, with or without the native module and the OS-interference model.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.experiments import ExperimentConfig, ExperimentRunner
from repro.hardware.processor import SimulatedProcessor
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
    session = runner.grid_session(engine, "nsm")
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
            session = runner.grid_session("vectorized", "nsm")
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
