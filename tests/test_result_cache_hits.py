"""Result-cache hits against the per-hit rebuild oracle.

A hit's probe charge is a pure function of the cached row count, so the
server memoizes the finished parts of a hit -- a counter template, the
breakdown's components and total, the metrics, the routine invocations --
once per row count, and each hit copies them.  Two walls pin that:

* every field of a hit's :class:`QueryResult` equals what the per-hit
  rebuild (``oracle.rebuilt_hit_result``: counters re-validated, breakdown
  and metrics derived again) gives for the same entry;
* nothing mutable is shared between two hits or with the memo.

Every query this engine answers aggregates to one row, so entries of 0 and
of many rows are put into the result cache directly: a hit serves whatever
the entry under its key holds.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from oracle import rebuilt_hit_result
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.serving.cache import normalize_query, query_tables
from repro.workloads import MicroWorkloadConfig

#: Row counts a hit serves: none, the one-row answer the miss cached, many.
ROW_COUNTS = (0, 1, 64)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(ExperimentConfig(
        micro=MicroWorkloadConfig(scale=0.001), os_interference=False))


def cached_server(runner, system, tracing, row_count):
    """A server whose result cache holds a ``row_count``-row entry for
    ``query``; returns the server, the query and the entry's cache key."""
    server = runner.serving_server("nsm", system_key=system, tracing=tracing)
    query = runner.micro_workload.sequential_range_selection()
    tables = query_tables(query)
    key = (normalize_query(query), tuple(server._epoch(t) for t in tables))
    if row_count == 1:
        assert not server.submit(query).result().result_cached
    else:
        rows = [{"a2": n, "a3": 3 * n} for n in range(row_count)]
        server.result_cache.put(key, rows, "SeqScan(R)", tables)
    return server, query, key


def hit(server, query, label):
    future = server.submit(query, label=label)
    assert future.result().result_cached
    return future


def fields(result) -> dict:
    """Every field of a hit's result, as plain values."""
    leaf = result.trace
    return {
        "rows": result.rows,
        "user": dict(result.counters.user),
        "sup": dict(result.counters.sup),
        "components": dict(result.breakdown.components),
        "total_cycles": result.breakdown.total_cycles,
        "breakdown_user": dict(result.breakdown.counters.user),
        "breakdown_sup": dict(result.breakdown.counters.sup),
        "breakdown_label": result.breakdown.label,
        "metrics": asdict(result.metrics),
        "routine_invocations": dict(result.routine_invocations),
        "plan_description": result.plan_description,
        "system": result.system,
        "label": result.label,
        "engine": result.engine,
        "leaf": None if leaf is None else (
            leaf.name, leaf.kind, leaf.pulls,
            dict(leaf.fixed_counters.user), dict(leaf.fixed_counters.sup)),
    }


@pytest.mark.parametrize("system", ("B", "D"))
@pytest.mark.parametrize("tracing", ("off", "spans"))
@pytest.mark.parametrize("row_count", ROW_COUNTS)
def test_hit_equals_rebuilt_result(runner, system, tracing, row_count):
    server, query, key = cached_server(runner, system, tracing, row_count)
    entry = server.result_cache.get(key)
    for label in ("first", "second"):  # the memo's builder, then a reuse
        future = hit(server, query, label)
        served = fields(future.outcome.result)
        expected = fields(rebuilt_hit_result(server, future, entry))
        assert served == expected
        assert len(served["rows"]) == row_count
        # All 30 events, zero-valued ones included, as a hit always had.
        assert 0 in served["user"].values()
        assert (served["leaf"] is None) == (tracing == "off")
        assert repr(served) == repr(expected)  # int stays int, float float


def test_hits_share_nothing_mutable(runner):
    server, query, key = cached_server(runner, "B", "spans", 1)
    first = hit(server, query, "first").outcome.result
    memo = server._probe_memo[1]
    memo_before = (dict(memo.counters.user), dict(memo.counters.sup),
                   dict(memo.components), dict(memo.invocations))
    reference = fields(rebuilt_hit_result(server, first,
                                          server.result_cache.get(key)))

    first.counters.user["CPU_CLK_UNHALTED"] = -1
    first.counters.sup["OS_INTERRUPTS"] = -1
    first.breakdown.components["TC"] = -1.0
    first.breakdown.counters.user["INST_RETIRED"] = -1
    first.routine_invocations["query_setup"] = -1
    first.trace.fixed_counters.user["UOPS_RETIRED"] = -1
    first.rows[0]["avg(a3)"] = -1
    first.rows.append({"avg(a3)": -2})

    second = hit(server, query, "first").outcome.result
    assert fields(second) == reference
    assert (dict(memo.counters.user), dict(memo.counters.sup),
            dict(memo.components), dict(memo.invocations)) == memo_before
    assert server._probe_memo[1] is memo
