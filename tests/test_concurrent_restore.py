"""Property: interleaved checkpoint/restore equals N fresh serial builds.

The serving layer multiplexes many logical sessions over **one** warmed
database build by rolling the shared address space back to the post-build
checkpoint before every query.  The property that makes this sound is that
*any* interleaving of sessions — any order, any mix of query classes, any
admission concurrency — produces, for every query, exactly the rows and
simulated counts of a solo session against its own freshly built database.

Hypothesis drives the interleavings: it draws an arbitrary sequence of
query classes and a concurrency, serves the sequence through a server with
the caching layers off (so every query executes), and compares each result
against a per-class reference measured once against a fresh build.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.workloads import MicroWorkloadConfig

TINY = MicroWorkloadConfig(scale=0.001)

CLASS_KEYS = ("SRS", "SRS-50", "IRS", "SJ", "ACS")


def _query_for(workload, class_key):
    if class_key == "SRS":
        return workload.sequential_range_selection()
    if class_key == "SRS-50":
        return workload.sequential_range_selection(0.5)
    if class_key == "IRS":
        return workload.indexed_range_selection()
    if class_key == "SJ":
        return workload.sequential_join()
    return workload.skewed_conjunct_selection()


def _fresh_runner() -> ExperimentRunner:
    return ExperimentRunner(ExperimentConfig(micro=TINY,
                                             os_interference=False))


#: Per-class reference measured against its own fresh build, computed once:
#: the builds and sessions are deterministic, so one fresh-build measurement
#: per class IS the "N fresh serial builds" oracle for every interleaving.
_REFERENCE: dict = {}


def _reference(class_key):
    cached = _REFERENCE.get(class_key)
    if cached is None:
        runner = _fresh_runner()  # brand-new build for this class alone
        session = runner.grid_session(engine="vectorized", layout="nsm")
        result = session.execute(_query_for(runner.micro_workload, class_key),
                                 warmup_runs=0)
        cached = (result.rows, result.counters.as_dict())
        _REFERENCE[class_key] = cached
    return cached


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sequence=st.lists(st.sampled_from(CLASS_KEYS), min_size=1,
                         max_size=8),
       concurrency=st.integers(min_value=1, max_value=4))
def test_interleaved_restores_match_fresh_serial_builds(sequence,
                                                        concurrency):
    runner = _fresh_runner()
    server = runner.serving_server("nsm", max_concurrency=concurrency,
                                   plan_cache=False, result_cache=False,
                                   shared_scans=False)
    futures = [server.submit(_query_for(runner.micro_workload, key))
               for key in sequence]
    server.run_until_idle()
    for class_key, future in zip(sequence, futures):
        rows, counters = _reference(class_key)
        assert future.outcome.rows == rows
        assert future.outcome.result.counters.as_dict() == counters


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sequence=st.lists(st.sampled_from(CLASS_KEYS), min_size=1,
                         max_size=8))
def test_interleaved_serving_with_all_layers_preserves_rows(sequence):
    """With caches and shared scans ON rows still match fresh builds (counts
    legitimately differ on result-cache hits)."""
    runner = _fresh_runner()
    server = runner.serving_server("nsm", max_concurrency=4)
    futures = [server.submit(_query_for(runner.micro_workload, key))
               for key in sequence]
    server.run_until_idle()
    for class_key, future in zip(sequence, futures):
        rows, counters = _reference(class_key)
        assert future.outcome.rows == rows
        if not future.outcome.result_cached:
            assert future.outcome.result.counters.as_dict() == counters
