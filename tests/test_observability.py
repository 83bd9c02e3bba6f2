"""Differential harness for the query-tracing subsystem.

The identity wall: ``tracing="off"`` must run the exact untraced code
path, and ``"spans"``/``"full"`` must change **zero** simulated counts —
identical result rows, identical cache/TLB/branch/event counts, identical
routine invocations — on every planner-producible plan shape, both page
layouts and both charge modes.  Tracing only
*reads* hardware state between charges, so any divergence is a bug in the
span machinery, not noise.

On top of the identity wall, the attribution contract: the root span's
synthesized counters equal the finalized whole-query counters exactly,
and per-node *self* deltas sum back to the root for every event except
``CPU_CLK_UNHALTED`` (whose assembly is the non-additive
``max(gross - overlap, computation)``).
"""

from __future__ import annotations

import json
from contextlib import nullcontext

import pytest

from oracle import hardware_counts
from repro.engine import Session
from repro.execution.parallel import SharedScanCoordinator
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.observability import (Tracer, chrome_trace, chrome_trace_json,
                                 render_trace, trace_to_dict)
from repro.query.plans import ExecutionConfig
from repro.systems import SYSTEM_B
from repro.workloads.micro import MicroWorkloadConfig

from test_shared_scans import PLAN_SHAPES, build_database

TRACED_MODES = ("spans", "full")


def run_traced(shape: str, tracing: str, layout: str = "nsm",
               charging=nullcontext, memory_budget_bytes=None,
               shared_scans: bool = False):
    """Execute one plan shape and return rows/counts/invocations + trace.

    ``charging`` is ``nullcontext`` (production bulk charging) or the
    ``charging`` fixture's per-address oracle.  ``shared_scans`` gives the
    session a shared-scan coordinator, so its sequential scans are recorded
    and their charge tapes replayed."""
    query, profile = PLAN_SHAPES[shape]()
    db = build_database(layout_style=layout)
    with charging():
        session = Session(db, profile, os_interference=None,
                          engine="vectorized",
                          memory_budget_bytes=memory_budget_bytes,
                          tracing=tracing)
    if shared_scans:
        session.context.shared_scans = SharedScanCoordinator()
    result = session.execute(query, warmup_runs=0)
    session.processor.finalize()
    counts = hardware_counts(session.processor)
    invocations = dict(session.context.op_invocations)
    processor = session.processor
    spec = session.spec
    session.close()
    return {"rows": result.rows, "counts": counts,
            "invocations": invocations, "trace": result.trace,
            "counters": result.counters, "processor": processor,
            "spec": spec}


# --------------------------------------------------------------- identity
@pytest.mark.parametrize("layout", ("nsm", "pax"))
@pytest.mark.parametrize("shape", sorted(PLAN_SHAPES))
def test_tracing_identical_every_plan_shape(shape, layout):
    baseline = run_traced(shape, "off", layout=layout)
    assert baseline["trace"] is None
    for mode in TRACED_MODES:
        traced = run_traced(shape, mode, layout=layout)
        assert traced["rows"] == baseline["rows"], "rows diverged"
        assert traced["counts"] == baseline["counts"], "counts diverged"
        assert traced["invocations"] == baseline["invocations"]
        assert traced["trace"] is not None


@pytest.mark.parametrize("charge_mode", ("span", "per_address"))
def test_tracing_identical_under_both_charge_modes(charging):
    baseline = run_traced("agg_seq_scan", "off")
    for mode in TRACED_MODES:
        traced = run_traced("agg_seq_scan", mode, charging=charging)
        assert traced["rows"] == baseline["rows"]
        assert traced["counts"] == baseline["counts"]


@pytest.mark.parametrize("shape", ("agg_seq_scan", "hash_join"))
def test_tracing_identical_under_shared_scans(shape):
    baseline = run_traced(shape, "off", shared_scans=True)
    for mode in TRACED_MODES:
        traced = run_traced(shape, mode, shared_scans=True)
        assert traced["rows"] == baseline["rows"]
        assert traced["counts"] == baseline["counts"]
        assert traced["invocations"] == baseline["invocations"]
    # ... and a replayed scan matches the plain scan's counts too.
    solo = run_traced(shape, "off")
    assert baseline["rows"] == solo["rows"]
    assert baseline["counts"] == solo["counts"]


def test_tracing_identical_with_spill_budget():
    budget = 600  # well under the build side's ~4000-byte footprint
    baseline = run_traced("hash_join", "off", memory_budget_bytes=budget)
    traced = run_traced("hash_join", "full", memory_budget_bytes=budget)
    assert traced["rows"] == baseline["rows"]
    assert traced["counts"] == baseline["counts"]
    io = traced["trace"].inclusive_counters(traced["processor"])
    assert io is not None  # trace exists alongside spilling
    spans = [node for _, node in traced["trace"].walk() if node.kind == "io"]
    assert spans, "spill I/O produced no io-kind spans under full tracing"
    stats = traced["trace"].io_stats
    assert stats.get("page_writes", 0) > 0


# ------------------------------------------------------------ attribution
@pytest.mark.parametrize("shape", ("agg_seq_scan", "hash_join", "update"))
def test_root_span_matches_finalized_counters(shape):
    traced = run_traced(shape, "spans")
    root = traced["trace"]
    synthesized = root.inclusive_counters(traced["processor"]).as_dict()
    finalized = traced["counters"].as_dict()
    assert synthesized == finalized


@pytest.mark.parametrize("tracing,shared_scans",
                         [("spans", False), ("full", True)])
def test_self_deltas_sum_to_root(tracing, shared_scans):
    """Also under shared scans, whose full-mode replay subspans nest inside
    the scan operator's span."""
    traced = run_traced("hash_join", tracing, shared_scans=shared_scans)
    root = traced["trace"]
    processor = traced["processor"]
    totals = {}
    for _, node in root.walk():
        for event, count in node.self_counters(processor).as_dict().items():
            totals[event] = totals.get(event, 0) + count
    root_counts = root.inclusive_counters(processor).as_dict()
    for event, count in root_counts.items():
        if event == "CPU_CLK_UNHALTED":
            continue  # assembly is max(gross - overlap, comp): not additive
        assert totals.get(event, 0) == count, f"{event} not additive"


def test_update_trace_has_apply_span():
    traced = run_traced("update", "spans")
    names = [node.name for _, node in traced["trace"].walk()]
    assert "update_apply" in names
    assert "query_setup" in names


def shared_scan_round_traces(tracing: str):
    """Traces of two identical scans served in one admission round: the
    first records the scan, and both replay its charge tapes."""
    runner = ExperimentRunner(ExperimentConfig(
        micro=MicroWorkloadConfig(scale=0.001), os_interference=False))
    server = runner.serving_server("nsm", max_concurrency=2,
                                   result_cache=False, tracing=tracing)
    query = runner.micro_workload.sequential_range_selection()
    futures = [server.submit(query) for _ in range(2)]
    server.run_until_idle()
    assert server.stats.shared_scan_reuses == 1
    return [future.outcome.result.trace for future in futures]


def test_full_mode_records_replay_subspans():
    for trace in shared_scan_round_traces("full"):
        replays = [node for _, node in trace.walk() if node.kind == "replay"]
        assert replays
        assert {node.name for node in replays} == {"shared_scan_replay"}
    # spans mode keeps the tree operator-only: no replay subspans.
    for trace in shared_scan_round_traces("spans"):
        assert "replay" not in {node.kind for _, node in trace.walk()}


# --------------------------------------------------------------- exports
def test_render_and_dict_exports():
    traced = run_traced("hash_join", "spans")
    text = render_trace(traced["trace"], traced["spec"], traced["processor"])
    assert "VecHashJoinOperator" in text
    assert "self=" in text and "incl=" in text
    payload = trace_to_dict(traced["trace"], traced["spec"],
                            traced["processor"])
    assert payload["children"], "trace dict lost its children"
    parsed = json.loads(json.dumps(payload))
    assert parsed["name"] == traced["trace"].name


def test_chrome_trace_shows_distinct_scan_build_probe_spans():
    traced = run_traced("hash_join", "full")
    payload = chrome_trace(traced["trace"], traced["spec"],
                           traced["processor"])
    events = payload["traceEvents"]
    assert events and all(event["ph"] == "X" for event in events)
    roles = {event["args"].get("role") for event in events}
    assert {"build", "probe"} <= roles
    scans = [event for event in events
             if event["name"].startswith("VecSeqScanOperator")]
    assert len(scans) == 2 and scans[0]["name"] != scans[1]["name"]
    json.loads(chrome_trace_json(traced["trace"], traced["spec"],
                                 traced["processor"]))


# ------------------------------------------------------------ guard rails
def test_invalid_tracing_mode_rejected():
    with pytest.raises(ValueError):
        ExecutionConfig(tracing="verbose")
    db = build_database()
    with pytest.raises(ValueError):
        Session(db, SYSTEM_B, os_interference=None, tracing="everything")


def test_tracer_refuses_off_mode():
    db = build_database()
    session = Session(db, SYSTEM_B, os_interference=None, engine="vectorized")
    try:
        with pytest.raises(ValueError):
            Tracer(session.context, session.spec, "off")
    finally:
        session.close()


def test_tuple_engine_traces_too():
    query, profile = PLAN_SHAPES["agg_seq_scan"]()
    db = build_database()
    baseline = Session(db, profile, os_interference=None, engine="tuple")
    rows_off = baseline.execute(query, warmup_runs=0).rows
    counts_off = hardware_counts(baseline.processor)
    baseline.close()
    db2 = build_database()
    traced = Session(db2, profile, os_interference=None, engine="tuple",
                     tracing="spans")
    result = traced.execute(query, warmup_runs=0)
    counts_on = hardware_counts(traced.processor)
    traced.close()
    assert result.rows == rows_off
    assert counts_on == counts_off
    assert result.trace is not None
    assert any(node.kind == "operator" for _, node in result.trace.walk())
