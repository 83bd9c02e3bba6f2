"""Concurrent query serving: the scheduler, caches and shared scans.

The serving layer's contract has two walls:

* **Rows are always identical to solo execution** — whatever mix of plan
  cache, result cache and shared scans served a query, its rows match a
  fresh solo session against a fresh build.
* **Counts change only where a knob says so** — with every layer off the
  server is bit-identical to back-to-back solo sessions; plan caching and
  shared scans change no simulated count (the planner charges nothing; the
  shared stream replays each attachment's charge tape into its own
  context); only a *result-cache hit* charges differently (the modelled
  cache probe instead of execution), by design.

These tests differentially pin both walls, plus the satellite guarantees:
per-logical-session spill namespaces keep concurrent budgeted joins
count-identical to solo, and updates bump table epochs so stale cached
results can never be served.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.execution.parallel import TapeRecorder
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.query import SelectionQuery, count_star, range_predicate
from repro.query.plans import UpdateQuery
from repro.serving import PlanCache, ResultCache, Server, normalize_query
from repro.serving.server import ClassStats
from repro.systems import SYSTEM_B, system_by_key
from repro.workloads import (MicroWorkloadConfig, ServingTraceConfig,
                             build_trace, percentile, run_open_loop)

TINY = MicroWorkloadConfig(scale=0.001)


def tiny_runner() -> ExperimentRunner:
    return ExperimentRunner(ExperimentConfig(micro=TINY, os_interference=False))


def make_server(runner, **kwargs):
    return runner.serving_server("nsm", **kwargs)


def solo_results(runner, queries):
    """Reference measurements: one fresh solo session per query."""
    results = []
    for query in queries:
        session = runner.grid_session(engine="vectorized", layout="nsm")
        results.append(session.execute(query, warmup_runs=0))
    return results


def mixed_queries(workload):
    return [workload.sequential_range_selection(),
            workload.indexed_range_selection(),
            workload.sequential_join(),
            workload.sequential_range_selection(0.5),
            workload.skewed_conjunct_selection(),
            workload.sequential_range_selection()]


# ---------------------------------------------------------------------------
# The count-identity walls
# ---------------------------------------------------------------------------
class TestCountIdentity:
    def test_all_layers_off_is_bit_identical_to_solo(self):
        runner = tiny_runner()
        queries = mixed_queries(runner.micro_workload)
        solo = solo_results(runner, queries)
        server = make_server(runner, max_concurrency=1, plan_cache=False,
                             result_cache=False, shared_scans=False)
        futures = [server.submit(q) for q in queries]
        server.run_until_idle()
        for future, reference in zip(futures, solo):
            assert future.outcome.rows == reference.rows
            assert (future.outcome.result.counters.as_dict()
                    == reference.counters.as_dict())

    def test_rows_identical_with_every_layer_on(self):
        runner = tiny_runner()
        queries = mixed_queries(runner.micro_workload)
        solo = solo_results(runner, queries)
        server = make_server(runner, max_concurrency=8)
        futures = [server.submit(q) for q in queries]
        server.run_until_idle()
        for future, reference in zip(futures, solo):
            assert future.outcome.rows == reference.rows

    def test_plan_cache_and_shared_scans_change_no_counts(self):
        """With the result cache off, every query executes — and its counts
        must match solo even when it rode a cached plan or a shared scan."""
        runner = tiny_runner()
        workload = runner.micro_workload
        queries = [workload.sequential_range_selection(),
                   workload.sequential_range_selection(),
                   workload.sequential_range_selection(),
                   workload.sequential_join()]
        solo = solo_results(runner, queries)
        server = make_server(runner, max_concurrency=8, result_cache=False)
        futures = [server.submit(q) for q in queries]
        server.run_until_idle()
        assert server.stats.plan_cache_hits == 2
        assert server.stats.shared_scan_reuses == 2
        assert any(f.outcome.shared_scan for f in futures)
        for future, reference in zip(futures, solo):
            assert future.outcome.rows == reference.rows
            assert (future.outcome.result.counters.as_dict()
                    == reference.counters.as_dict())

    def test_result_cache_hit_charges_probe_not_execution(self):
        runner = tiny_runner()
        query = runner.micro_workload.sequential_range_selection()
        server = make_server(runner, max_concurrency=8)
        first = server.submit(query)
        second = server.submit(query)
        server.run_until_idle()
        assert not first.outcome.result_cached
        assert second.outcome.result_cached
        assert second.outcome.rows == first.outcome.rows
        assert 0 < second.outcome.cycles < first.outcome.cycles
        assert second.outcome.result.plan_description.startswith(
            "ResultCache hit")

    def test_hit_counts_deterministic_across_servers(self):
        """The memoized probe charge must equal a fresh simulation."""
        runner = tiny_runner()
        query = runner.micro_workload.sequential_range_selection()
        hits = []
        for _ in range(2):
            server = make_server(runner, max_concurrency=4)
            server.submit(query)
            future = server.submit(query)
            repeat = server.submit(query)
            server.run_until_idle()
            assert future.outcome.result_cached
            assert (repeat.outcome.result.counters.as_dict()
                    == future.outcome.result.counters.as_dict())
            hits.append(future.outcome.result.counters.as_dict())
        assert hits[0] == hits[1]

    def test_tape_recorder_records_and_counts_invocations(self):
        """A shared scan's recording context: every charge lands on the
        tape in call order, and invocations count as the real context's."""
        recorder = TapeRecorder(SYSTEM_B)
        recorder.visit("scan_next")
        recorder.visit_batch("predicate", 10)
        recorder.visit_batch("predicate", 0)     # no-op, like the real context
        recorder.read_address(0x100, 8)
        recorder.record_done(3)
        recorder.row_produced(2)
        ops = recorder.take()
        assert [op[0] for op in ops] == ["v", "vb", "dr", "rd", "rp"]
        assert recorder.op_invocations == {"scan_next": 1, "predicate": 1}
        assert recorder.take() == []             # tape drained


# ---------------------------------------------------------------------------
# Spill namespaces (satellite: per-session backing-store isolation)
# ---------------------------------------------------------------------------
class TestSpillNamespaces:
    def test_budgeted_joins_count_identical_under_serving(self):
        runner = tiny_runner()
        workload = runner.micro_workload
        budget = max(runner.config.micro.s_bytes // 2, 1)
        solo = runner.grid_session(
            engine="vectorized", layout="nsm",
            memory_budget_bytes=budget).execute(
            workload.over_budget_join(), warmup_runs=0)
        assert solo.rows  # the join actually produced something
        server = make_server(runner, max_concurrency=4, result_cache=False,
                             memory_budget_bytes=budget)
        futures = [server.submit(workload.over_budget_join())
                   for _ in range(4)]
        server.run_until_idle()
        for future in futures:
            assert future.outcome.rows == solo.rows
            assert (future.outcome.result.counters.as_dict()
                    == solo.counters.as_dict())

    def test_sessions_get_disjoint_backing_regions(self):
        runner = tiny_runner()
        database, _ = runner.grid_database("nsm")
        server = make_server(runner, max_concurrency=3)
        seen = set()
        for index in range(3):
            session = server._session(index)
            namespace = session.context.disk_namespace
            assert namespace == f"disk.s{index % 3}"
            region = database.address_space.ensure_region(namespace)
            assert region.cursor == 0
            seen.add((region.base, region.base + region.size))
        assert len(seen) == 3
        spans = sorted(seen)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start  # disjoint address ranges


# ---------------------------------------------------------------------------
# Cache keying and invalidation
# ---------------------------------------------------------------------------
class TestCaches:
    def test_normalize_strips_labels_but_not_constants(self):
        workload = tiny_runner().micro_workload
        a = workload.sequential_range_selection()
        b = workload.sequential_range_selection()
        wider = workload.sequential_range_selection(0.5)
        assert normalize_query(a) == normalize_query(b)
        assert normalize_query(a) != normalize_query(wider)

    def test_result_cache_copies_rows_both_ways(self):
        cache = ResultCache()
        rows = [{"avg(a3)": 1.0}]
        cache.put(("k",), rows, "plan")
        rows[0]["avg(a3)"] = 99.0  # caller mutates after put
        entry = cache.get(("k",))
        assert entry.rows == [{"avg(a3)": 1.0}]
        entry.rows[0]["avg(a3)"] = 77.0  # caller mutates the returned copy
        assert cache.get(("k",)).rows == [{"avg(a3)": 1.0}]

    def test_update_invalidates_and_new_results_are_visible(self):
        runner = tiny_runner()  # dedicated runner: the update mutates R
        workload = runner.micro_workload
        query = workload.sequential_range_selection()
        update = UpdateQuery(table="R", key_column="a2", key_value=1,
                             set_column="a3", set_value=10_000_000,
                             label="UPD")
        server = make_server(runner, max_concurrency=8)
        before = server.submit(query)
        cached = server.submit(query)
        server.run_until_idle()
        assert cached.outcome.result_cached
        updated = server.submit(update)
        server.run_until_idle()
        assert updated.outcome.rows[0]["updated"] > 0
        after = server.submit(query)
        server.run_until_idle()
        assert not after.outcome.result_cached
        assert after.outcome.rows != before.outcome.rows
        recached = server.submit(query)
        server.run_until_idle()
        assert recached.outcome.result_cached
        assert recached.outcome.rows == after.outcome.rows
        assert server.stats.updates == 1
        assert server.stats.epochs["R"] == 1

    def test_mid_round_update_does_not_replay_stale_recordings(self):
        """select + update + select admitted into ONE round: the second
        select must re-record from live data, not replay the pre-update
        shared-scan recording — and the entry it caches under the new
        epoch must hold the post-update rows."""
        runner = tiny_runner()  # dedicated runner: the update mutates R
        workload = runner.micro_workload
        query = workload.sequential_range_selection()
        update = UpdateQuery(table="R", key_column="a2", key_value=1,
                             set_column="a3", set_value=10_000_000,
                             label="UPD")
        server = make_server(runner, max_concurrency=8)
        before = server.submit(query)
        updated = server.submit(update)
        after = server.submit(query)
        served, _ = server.step()  # one admission round serves all three
        assert len(served) == 3
        assert updated.outcome.rows[0]["updated"] > 0
        # The post-update select executed (no stale cache entry) and its
        # scan re-recorded instead of riding the pre-update stream.
        assert not after.outcome.result_cached
        assert server.stats.shared_scan_recordings == 2
        assert server.stats.shared_scan_reuses == 0
        assert after.outcome.rows != before.outcome.rows
        # Rows must equal a solo session against the (now updated) build.
        reference = runner.grid_session(engine="vectorized", layout="nsm").execute(
            query, warmup_runs=0)
        assert after.outcome.rows == reference.rows
        # The new-epoch cache entry was fed post-update rows, not stale ones.
        recached = server.submit(query)
        server.run_until_idle()
        assert recached.outcome.result_cached
        assert recached.outcome.rows == reference.rows

    def test_plan_cache_counts_hits_and_misses(self):
        cache = PlanCache()
        assert cache.get(("a",)) is None
        cache.put(("a",), "plan")
        assert cache.get(("a",)) == "plan"
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_plan_cache_invalidate_table_reclaims_entries(self):
        cache = PlanCache()
        cache.put(("r",), "plan-r", tables=("R",))
        cache.put(("s",), "plan-s", tables=("S",))
        assert cache.invalidate_table("R") == 1
        assert len(cache) == 1
        assert cache.get(("r",)) is None
        assert cache.get(("s",)) == "plan-s"

    def test_invalidate_table_matches_tables_exactly(self):
        """A table named like a *column* in another entry's normalized key
        must not be swept — matching is on the stored table tuple."""
        cache = ResultCache()
        select_key = (("select", "R", (), "pred", None), (0,))
        # A join whose join columns are both literally named "R".
        join_key = (("join", "L", "S", "R", "R", (), "pred", None), (0, 0))
        cache.put(select_key, [], "plan", tables=("R",))
        cache.put(join_key, [], "plan", tables=("L", "S"))
        assert cache.invalidate_table("R") == 1
        assert len(cache) == 1
        assert cache.get(join_key) is not None


# ---------------------------------------------------------------------------
# The open-loop driver
# ---------------------------------------------------------------------------
class TestOpenLoopDriver:
    def test_trace_is_deterministic(self):
        workload = tiny_runner().micro_workload
        config = ServingTraceConfig(queries=16, seed=7)
        first = build_trace(workload, config)
        second = build_trace(workload, config)
        assert [(t.arrival_seconds, t.class_key) for t in first] \
            == [(t.arrival_seconds, t.class_key) for t in second]
        different = build_trace(workload, ServingTraceConfig(queries=16,
                                                             seed=8))
        assert [(t.arrival_seconds, t.class_key) for t in first] \
            != [(t.arrival_seconds, t.class_key) for t in different]

    def test_percentile_is_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 0.50) == 3.0
        assert percentile(values, 0.99) == 5.0
        assert percentile(values, 0.20) == 1.0
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_class_stats_service_percentiles_are_nearest_rank(self):
        """``ClassStats`` reports service times through the same
        nearest-rank ``percentile`` the open-loop report uses."""
        twenty = ClassStats(completed=20, service_seconds=[
            n / 1000 for n in range(20, 0, -1)]).as_dict()
        assert (twenty["service_p50"], twenty["service_p95"],
                twenty["service_p99"]) == (0.010, 0.019, 0.020)
        one = ClassStats(completed=1, service_seconds=[0.25]).as_dict()
        assert (one["service_p50"], one["service_p95"],
                one["service_p99"]) == (0.25, 0.25, 0.25)
        assert percentile([0.3, 0.1, 0.2], 1.0) == 0.3
        assert percentile([0.25], 1.0) == 0.25

    def test_open_loop_cycles_independent_of_wall_timing(self):
        """Total simulated cycles must not depend on how wall-clock noise
        shapes the admission rounds: two runs of the same trace agree."""
        runner = tiny_runner()
        trace = build_trace(runner.micro_workload,
                            ServingTraceConfig(queries=12))
        reports = []
        for _ in range(2):
            server = make_server(runner, max_concurrency=4)
            reports.append(run_open_loop(server, trace))
        assert reports[0].total_cycles == reports[1].total_cycles
        assert reports[0].total_rows == reports[1].total_rows
        assert reports[0].queries == 12
        assert reports[0].latency_p50 <= reports[0].latency_p95 \
            <= reports[0].latency_p99

    def test_serving_total_cycles_match_serial_when_layers_off(self):
        runner = tiny_runner()
        trace = build_trace(runner.micro_workload,
                            ServingTraceConfig(queries=10))
        serial = make_server(runner, max_concurrency=1, plan_cache=False,
                             result_cache=False, shared_scans=False)
        serial_report = run_open_loop(serial, trace)
        concurrent = make_server(runner, max_concurrency=4, plan_cache=False,
                                 result_cache=False, shared_scans=False)
        concurrent_report = run_open_loop(concurrent, trace)
        assert serial_report.total_cycles == concurrent_report.total_cycles
        assert serial_report.total_rows == concurrent_report.total_rows


# ---------------------------------------------------------------------------
# Serving telemetry: queue depth, per-round log, per-class stats, tracing
# ---------------------------------------------------------------------------
class TestServingTelemetry:
    def test_queue_depth_high_water_and_series(self):
        runner = tiny_runner()
        server = make_server(runner, max_concurrency=2)
        queries = mixed_queries(runner.micro_workload)
        for query in queries:
            server.submit(query)
        assert server.stats.queue_depth_high_water == len(queries)
        server.run_until_idle()
        stats = server.stats.as_dict()
        assert stats["queue_depth_high_water"] == len(queries)
        # One series sample per round, round indices consecutive from 0.
        assert [entry[0] for entry in stats["queue_depth_series"]] \
            == list(range(server.stats.rounds))
        assert stats["queue_depth_series"][0][1] == len(queries)
        rounds_log = stats["rounds_log"]
        assert len(rounds_log) == server.stats.rounds
        assert sum(entry["admitted"] for entry in rounds_log) == len(queries)
        assert all(entry["service_seconds"] >= 0 for entry in rounds_log)

    def test_per_class_stats_partition_the_totals(self):
        runner = tiny_runner()
        server = make_server(runner, max_concurrency=4)
        trace = build_trace(runner.micro_workload,
                            ServingTraceConfig(queries=16, seed=11))
        report = run_open_loop(server, trace)
        classes = server.stats.classes
        assert sum(cls.completed for cls in classes.values()) == 16
        assert (sum(cls.result_cache_hits for cls in classes.values())
                == server.stats.result_cache_hits)
        for class_key, cls in classes.items():
            assert len(cls.service_seconds) == cls.completed
            assert 0.0 <= cls.cache_hit_ratio <= 1.0
            exported = cls.as_dict()
            assert exported["result_cache_misses"] \
                == cls.completed - cls.result_cache_hits
            assert exported["service_p50"] <= exported["service_p99"]
        # The report mirrors the same partition, with latency percentiles.
        assert sum(cell["queries"] for cell in report.classes.values()) == 16
        for cell in report.classes.values():
            assert cell["latency_p50"] <= cell["latency_p95"] \
                <= cell["latency_p99"]
            assert cell["completed"] == cell["queries"]

    def test_result_cache_hit_gets_probe_trace_leaf(self):
        runner = tiny_runner()
        workload = runner.micro_workload
        query = workload.sequential_range_selection()
        server = make_server(runner, max_concurrency=2, tracing="spans")
        miss = server.submit(query)
        hit = server.submit(query)
        server.run_until_idle()
        assert not miss.outcome.result_cached
        assert hit.outcome.result_cached
        trace = hit.outcome.result.trace
        assert trace is not None and trace.name == "result_cache_probe"
        # The leaf carries exactly the probe's charged counters.
        assert (trace.inclusive_counters(None).as_dict()
                == hit.outcome.result.counters.as_dict())
        # Executed queries carry a full trace tree.
        assert miss.outcome.result.trace is not None
        assert miss.outcome.result.trace.children

    def test_untraced_server_attaches_no_traces(self):
        runner = tiny_runner()
        server = make_server(runner, max_concurrency=2)
        query = runner.micro_workload.sequential_range_selection()
        future = server.submit(query)
        server.run_until_idle()
        assert future.outcome.result.trace is None

    def test_traced_server_counts_identical_to_untraced(self):
        runner = tiny_runner()
        config = ServingTraceConfig(queries=10, seed=5)
        plain = run_open_loop(make_server(runner, max_concurrency=4),
                              build_trace(runner.micro_workload, config))
        traced = run_open_loop(
            make_server(runner, max_concurrency=4, tracing="full"),
            build_trace(runner.micro_workload, config))
        assert plain.counters.as_dict() == traced.counters.as_dict()
        assert plain.total_rows == traced.total_rows

    def test_invalid_tracing_mode_rejected(self):
        runner = tiny_runner()
        with pytest.raises(ValueError):
            make_server(runner, tracing="everything")


# ---------------------------------------------------------------------------
# A failing query is its own outcome, not the round's
# ---------------------------------------------------------------------------
class TestFailingQueries:
    def poisoned(self):
        return SelectionQuery(table="R", aggregates=(count_star(),),
                              predicate=range_predicate("no_such_column", 1, 2),
                              label="POISON")

    def test_round_survives_a_failing_query(self):
        runner = tiny_runner()
        workload = runner.micro_workload
        selects = [workload.sequential_range_selection(),
                   workload.sequential_range_selection(0.5)]
        clean = make_server(runner)
        reference = [clean.submit(query) for query in selects]
        clean.run_until_idle()

        server = make_server(runner)
        first = server.submit(selects[0])
        poisoned = server.submit(self.poisoned())
        second = server.submit(selects[1])
        served, _ = server.step()  # one admission round serves all three
        assert served == [first, poisoned, second]
        assert all(future.done() for future in served)
        for future, expected in zip((first, second), reference):
            assert future.result().rows == expected.outcome.rows
            assert (future.outcome.result.counters.as_dict()
                    == expected.outcome.result.counters.as_dict())
        with pytest.raises(Exception, match="no_such_column") as raised:
            poisoned.result()
        assert raised.value is poisoned.error
        stats = server.stats
        assert (stats.submitted, stats.completed, stats.failed) == (3, 2, 1)
        assert stats.rounds == 1 and len(stats.round_log) == 1
        assert stats.round_log[0].admitted == 3
        assert stats.queue_depth_series == [(0, 3)]
        assert (stats.shared_scan_recordings
                == clean.stats.shared_scan_recordings)
        # The server that survived the fault serves the next submission.
        again = server.submit(selects[0])
        assert again.result().rows == reference[0].outcome.rows
        assert server.stats.rounds == 2

    def test_failing_update_changes_nothing(self):
        runner = tiny_runner()
        query = runner.micro_workload.sequential_range_selection()
        server = make_server(runner)
        before = server.submit(query).result()
        broken = server.submit(UpdateQuery(
            table="R", key_column="a2", key_value=1,
            set_column="no_such_column", set_value=1, label="UPD"))
        with pytest.raises(Exception, match="no_such_column"):
            broken.result()
        assert server.stats.failed == 1 and server.stats.updates == 0
        assert server.stats.epochs == {}
        cached = server.submit(query).result()
        assert cached.result_cached and cached.rows == before.rows

    def test_open_loop_driver_reraises_the_query_error(self):
        runner = tiny_runner()
        trace = build_trace(runner.micro_workload,
                            ServingTraceConfig(queries=3))
        trace[1] = replace(trace[1], query=self.poisoned())
        with pytest.raises(Exception, match="no_such_column"):
            run_open_loop(make_server(runner), trace)


# ---------------------------------------------------------------------------
# Throughput acceptance (slow: full mixed trace, serial vs concurrency 8)
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestThroughputAcceptance:
    def test_serving_at_least_2x_serial_throughput(self):
        runner = tiny_runner()
        trace = build_trace(runner.micro_workload,
                            ServingTraceConfig(queries=48))
        serial = make_server(runner, max_concurrency=1, plan_cache=False,
                             result_cache=False, shared_scans=False)
        serial_report = run_open_loop(serial, trace)
        serving = make_server(runner, max_concurrency=8)
        serving_report = run_open_loop(serving, trace)
        ratio = (serving_report.throughput_qps
                 / serial_report.throughput_qps)
        assert ratio >= 2.0, f"serving only {ratio:.2f}x serial"
        assert serving_report.total_rows == serial_report.total_rows
