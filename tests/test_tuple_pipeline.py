"""Tuple pipelines charge a page per native call: the page programs against
the per-record pipeline they replaced (``oracle.per_record_pipelines``).

A scan feeding an aggregate or a hash join (build or probe) runs each page
-- its per-record Volcano sequence and the consumer's per-row charges -- in
one ``Context.pipeline`` call; every other consumer pulls through the same
entry point, which pauses at each qualifying record.  None of it may be
visible outside the host clock: rows and their order, both counter banks,
routine invocations, ``rows_produced``, ``io_stats`` and the branch-site
state must be the oracle's on every tuple plan shape, Systems A-D, NSM and
PAX, OS interference off and on (with an interval short enough that several
interrupts fire inside one page), and under a tracer, node by node.
Hypothesis adds random tables: page fill, tombstones, emptied pages,
selectivity 0 and 1, and duplicate join keys.

The error path is specified, not identical: a page runs all of its data
work before any of its charges, so a failure leaves the earlier pages fully
charged and its own page not at all -- exactly the state of a run over the
earlier pages alone.

The entry point itself is held against its twin on the reference machine
over random programs, malformed ones included.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracle import per_record_pipelines
from repro.engine import Session
from repro.execution import build_join, build_scan
from repro.execution.context import (STEP_EACH_MATCH, STEP_LOADS, STEP_READ,
                                     STEP_READ_BUCKET, STEP_VISIT,
                                     STEP_VISIT_MATCHED, STEP_VISIT_OUTCOME,
                                     STEP_WRITE, STEP_WRITE_BUCKET, ExecutionContext)
from repro.execution.operators import (HashJoinOperator, IndexNestedLoopJoinOperator,
                                       IndexRangeScanOperator, NestedLoopJoinOperator,
                                       OperatorError, ScalarAggregateOperator,
                                       SeqScanOperator)
from repro.hardware import OSInterferenceConfig, SimulatedProcessor
from repro.query import Aggregate, AggregateFunction, avg, count_star
from repro.query.expressions import (And, ColumnRef, Comparison, ComparisonOp,
                                     Const, range_predicate)
from repro.query.plans import HashJoinPlan, SeqScanPlan
from repro.storage import Catalog
from repro.storage.schema import Column, ColumnType, Schema
from repro.systems import ALL_SYSTEMS, SYSTEM_B, SYSTEM_C
from repro.workloads import MicroWorkload, MicroWorkloadConfig
from test_native_charging import (assert_states_identical, context_pair,
                                  context_state, segment_names)

LAYOUTS = ("nsm", "pax")
SYSTEMS = {profile.key: profile for profile in ALL_SYSTEMS}
#: An interrupt every 4k instructions: several inside one page of R.
OS_ON = OSInterferenceConfig(interval_instructions=4_000)


def outcome(ctx, rows):
    """Everything a pipeline may leave behind: the rows, the machine (both
    counter banks, every automaton's state and statistics, the context's
    cursors, routine invocations and branch-site state), ``rows_produced``
    and ``io_stats``."""
    ctx.processor.finalize()
    return rows, context_state(ctx), ctx.rows_produced, dict(ctx.io_stats)


def assert_same(changed, reference):
    assert changed[0] == reference[0], "rows"
    assert_states_identical(changed[1], reference[1])
    assert changed[2:] == reference[2:], "rows_produced or io_stats"


def differential(run):
    """``run()`` with the page programs, then with the oracle's pipeline."""
    changed = run()
    with per_record_pipelines():
        reference = run()
    return changed, reference


# --------------------------------------------------------- every plan shape
@pytest.fixture(scope="module")
def micro():
    workload = MicroWorkload(MicroWorkloadConfig(scale=1 / 2000, minimum_r_rows=600))
    builds = {}
    for layout in LAYOUTS:
        database = workload.build(layout_style=layout)
        workload.create_selection_index(database)
        builds[layout] = (database, database.address_space.checkpoint())
    return workload, builds


def _query(name):
    return lambda workload, session: session.execute(
        getattr(workload, name)(), warmup_runs=0).rows


def _aggregates(workload, session):
    """Four state slots, ``count(*)`` and a qualified column among them."""
    ctx, catalog = session.context, session.database.catalog
    scan = SeqScanOperator(catalog.table("R"), ctx,
                           predicate=range_predicate("a2", 0, 40),
                           output_columns=("a1", "a3"))
    aggregates = (count_star(), avg("a3"), Aggregate(AggregateFunction.MIN, "a1"),
                  Aggregate(AggregateFunction.MAX, "R.a3"))
    return list(ScalarAggregateOperator(scan, aggregates, ctx).rows())


def _scan(workload, session):
    plan = SeqScanPlan("R", workload.sequential_range_selection().predicate)
    return list(build_scan(plan, session.database.catalog, session.context,
                           ["a3"]).rows())


def _join_plan():
    return HashJoinPlan(probe=SeqScanPlan("R"), build=SeqScanPlan("S"),
                        probe_column="R.a2", build_column="S.a1")


def _join(workload, session):
    """A join whose rows go to an unknown consumer: the probe is pulled."""
    return list(build_join(_join_plan(), session.database.catalog, session.context,
                           ["R.a3"]).rows())


def _counted(child, ctx):
    return list(ScalarAggregateOperator(child, (count_star(), avg("a3")), ctx).rows())


def _nlj(workload, session):
    ctx, catalog = session.context, session.database.catalog
    outer = SeqScanOperator(catalog.table("S"), ctx, predicate=range_predicate("a1", 0, 6),
                            output_columns=("a1", "a3"))

    def inner():
        return SeqScanOperator(catalog.table("R"), ctx,
                               predicate=range_predicate("a3", 1_000, 6_000),
                               output_columns=("a2",), next_operation="inner_scan_next",
                               count_records=False)

    return _counted(NestedLoopJoinOperator(outer, inner, "a1", "a2", ctx), ctx)


def _inlj(workload, session):
    ctx, catalog = session.context, session.database.catalog
    table = catalog.table("R")
    outer = SeqScanOperator(catalog.table("S"), ctx, output_columns=("a1",))
    return _counted(IndexNestedLoopJoinOperator(outer, table, ctx.index_for(table, "a2"),
                                                "a1", ctx, ("a3",)), ctx)


def _index_probe(workload, session):
    """A hash join whose probe side is an index scan: its consumer's steps
    still run inside the join's per-row programs."""
    ctx, catalog = session.context, session.database.catalog
    table = catalog.table("R")
    probe = IndexRangeScanOperator(table, ctx.index_for(table, "a2"), ctx, 0, 30, "a2",
                                   output_columns=("a3",))
    build = SeqScanOperator(catalog.table("S"), ctx, output_columns=("a1",))
    return _counted(HashJoinOperator(probe, build, "a2", "a1", ctx), ctx)


def _nested_join(workload, session):
    """A hash join building on a hash join: a build's steps take operands,
    so it pulls its input."""
    ctx, catalog = session.context, session.database.catalog
    s_side = HashJoinOperator(
        SeqScanOperator(catalog.table("S"), ctx, output_columns=("a1", "a3")),
        SeqScanOperator(catalog.table("S"), ctx, output_columns=("a1",)),
        "a1", "a1", ctx)
    probe = SeqScanOperator(catalog.table("R"), ctx, output_columns=("a2", "a3"))
    return _counted(HashJoinOperator(probe, s_side, "a2", "a1", ctx), ctx)


#: Fused: SRS, ACS, SJ, aggregates.  Pulled: IRS, scan, join (its probe),
#: nlj, inlj.  Fused consumer over a pulled input: index_probe, nested_join.
SHAPES = {"SRS": _query("sequential_range_selection"),
          "ACS": _query("skewed_conjunct_selection"),
          "SJ": _query("sequential_join"),
          "IRS": _query("indexed_range_selection"),
          "aggregates": _aggregates, "scan": _scan, "join": _join, "nlj": _nlj,
          "inlj": _inlj, "index_probe": _index_probe, "nested_join": _nested_join}


def _session(micro, layout, system, os_on, **knobs):
    _, builds = micro
    database, checkpoint = builds[layout]
    database.address_space.restore(checkpoint)
    return Session(database, SYSTEMS[system], os_interference=OS_ON if os_on else None,
                   **knobs)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("os_on", (True, False), ids=("os", "no_os"))
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_pipelines_are_count_identical_to_the_per_record_oracle(micro, system, layout,
                                                                os_on, shape):
    def run():
        session = _session(micro, layout, system, os_on)
        return outcome(session.context, SHAPES[shape](micro[0], session))

    changed, reference = differential(run)
    assert changed[0], "the shape must produce rows"
    assert_same(changed, reference)
    if os_on:
        assert changed[1]["sup"]["OS_INTERRUPTS"] > 0


def test_interrupts_fire_several_times_inside_one_page(micro):
    session = _session(micro, "nsm", "B", True)
    session.execute(micro[0].sequential_range_selection(), warmup_runs=0)
    pages = len(session.database.catalog.table("R").heap.page_numbers())
    assert session.processor.counters.sup["OS_INTERRUPTS"] >= 3 * pages


def _tree(result):
    return [(depth, node.name, node.kind, node.user, node.sup, node.l1i_stall,
             node.l2_accesses, node.l2_misses, node.l2_writebacks, node.io_stats,
             node.rows, node.pulls) for depth, node in result.trace.walk()]


@pytest.mark.parametrize("query", ("sequential_range_selection", "sequential_join",
                                   "indexed_range_selection"))
@pytest.mark.parametrize("tracing", ("spans", "full"))
@pytest.mark.parametrize("layout", LAYOUTS)
def test_a_tracer_keeps_every_node_exact(micro, layout, tracing, query):
    """Traced, every operator charges in its own pull: each node's counts
    are the oracle's, and the untraced run's totals are unchanged."""
    def run(tracing):
        session = _session(micro, layout, "C", True, tracing=tracing)
        result = session.execute(getattr(micro[0], query)(), warmup_runs=0)
        return result, outcome(session.context, result.rows)

    (traced, changed), (oracle, reference) = differential(lambda: run(tracing))
    assert_same(changed, reference)
    assert _tree(traced) == _tree(oracle)
    assert len(_tree(traced)) >= 3
    untraced, _ = run("off")
    assert untraced.counters.as_dict() == traced.counters.as_dict()


# ------------------------------------------------------ random tables (Hypothesis)
RECORD_SIZE = 64
PAGE_SIZE = 1024          # 15 records a page, NSM and PAX


def _schema(name):
    return Schema.of(Column("k", ColumnType.INT32), Column("v", ColumnType.INT32),
                     Column("tag", ColumnType.CHAR, width=4), name=name)


def _table(catalog, name, layout, rows, deleted=(), emptied=None):
    """``rows`` as ``(k, v)`` pairs; deletes ``deleted`` positions and every
    record of page ``emptied``."""
    table = catalog.create_table(name, _schema(name), record_size=RECORD_SIZE,
                                 layout_style=layout)
    rids = [table.insert((k, v, "ab")) for k, v in rows]
    pages = table.heap.page_numbers()
    empty = pages[emptied % len(pages)] if emptied is not None and pages else None
    for position, rid in enumerate(rids):
        if position in deleted or rid.page_number == empty:
            table.delete(rid)
    return table


#: No predicate, none qualifies, all qualify, or a threshold on ``v``.
_PREDICATE = st.one_of(
    st.none(), st.just(Comparison(ComparisonOp.LT, ColumnRef("v"), Const(-1))),
    st.just(Comparison(ComparisonOp.GE, ColumnRef("v"), Const(-1))),
    st.integers(0, 9).map(lambda t: Comparison(ComparisonOp.LT, ColumnRef("v"), Const(t))))
#: Keys from a small domain: build keys repeat, so a probe row matches several.
_ROWS = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9)), max_size=50)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(system=st.sampled_from(sorted(SYSTEMS)), layout=st.sampled_from(LAYOUTS),
       os_on=st.booleans(), probe_rows=_ROWS, build_rows=_ROWS,
       deleted=st.sets(st.integers(0, 49), max_size=20),
       emptied=st.one_of(st.none(), st.integers(0, 3)),
       probe_predicate=_PREDICATE, build_predicate=_PREDICATE,
       shape=st.sampled_from(("aggregate", "join", "aggregate_join")))
def test_random_tables(system, layout, os_on, probe_rows, build_rows, deleted, emptied,
                       probe_predicate, build_predicate, shape):
    catalog = Catalog(page_size=PAGE_SIZE)
    probe_table = _table(catalog, "P", layout, probe_rows, deleted, emptied)
    build_table = _table(catalog, "B", layout, build_rows, deleted)
    checkpoint = catalog.address_space.checkpoint()

    def run():
        catalog.address_space.restore(checkpoint)
        ctx = ExecutionContext(SimulatedProcessor(os_interference=OS_ON if os_on else None),
                               SYSTEMS[system], catalog.address_space)
        probe = SeqScanOperator(probe_table, ctx, predicate=probe_predicate,
                                output_columns=("k", "v"))
        if shape == "aggregate":
            operator = ScalarAggregateOperator(probe, (count_star(), avg("v")), ctx)
        else:
            build = SeqScanOperator(build_table, ctx, predicate=build_predicate,
                                    output_columns=("k", "tag"))
            operator = HashJoinOperator(probe, build, "P.k", "B.k", ctx,
                                        build_row_estimate=len(build_rows))
            if shape == "aggregate_join":
                operator = ScalarAggregateOperator(operator, (count_star(), avg("v")), ctx)
        return outcome(ctx, list(operator.rows()))

    changed, reference = differential(run)
    assert_same(changed, reference)


# ----------------------------------------------------------------- error path
ROWS = 90                 # 6 or 7 pages


def _fail_at(layout):
    """The first row of page 3 (14 records a page on NSM, 15 on PAX)."""
    table = _table(Catalog(page_size=PAGE_SIZE), "T", layout, [(0, 0)] * 20)
    return 3 * len(next(table.heap.scan_pages())[1])


def _failing(consumer, ctx, tables, fail_at):
    """The consumer's pipeline over ``tables``: the first row reaching the
    failing step is row ``fail_at``, the first of page 3."""
    late = Comparison(ComparisonOp.GE, ColumnRef("k"), Const(fail_at))
    aggregate = (count_star(),)
    if consumer == "predicate":
        scan = SeqScanOperator(tables["T"], ctx, predicate=And((late, Comparison(
            ComparisonOp.LT, ColumnRef("tag"), Const(5)))))
        return ScalarAggregateOperator(scan, aggregate, ctx)
    if consumer == "aggregate":
        scan = SeqScanOperator(tables["T"], ctx, predicate=late, output_columns=("tag",))
        return ScalarAggregateOperator(scan, (avg("tag"),), ctx)
    scan = SeqScanOperator(tables["T"], ctx, predicate=late, output_columns=("k",))
    other = SeqScanOperator(tables["O"], ctx, output_columns=("k",))
    if consumer == "build":
        join = HashJoinOperator(other, scan, "k", "zz", ctx, build_row_estimate=64)
    else:
        join = HashJoinOperator(scan, other, "zz", "k", ctx, build_row_estimate=64)
    return ScalarAggregateOperator(join, aggregate, ctx)


#: Rows of the other side: the build case probes an empty table, the probe
#: case builds on a few rows.
OTHER_ROWS = {"build": 0, "probe": 20}


def _error_case(consumer, layout, os_on, rows):
    """A fresh catalog -- the other side first, the failing table last, so
    its length moves no other address -- and a context over it."""
    catalog = Catalog(page_size=PAGE_SIZE)
    fail_at = _fail_at(layout)
    other = [(k, k) for k in range(fail_at, fail_at + OTHER_ROWS.get(consumer, 0))]
    tables = {"O": _table(catalog, "O", layout, other),
              "T": _table(catalog, "T", layout, [(k, k % 7) for k in range(rows)])}
    ctx = ExecutionContext(SimulatedProcessor(os_interference=OS_ON if os_on else None),
                           SYSTEM_C, catalog.address_space)
    return _failing(consumer, ctx, tables, fail_at), ctx


ERRORS = {"predicate": TypeError, "aggregate": TypeError, "build": OperatorError,
          "probe": OperatorError}


@pytest.mark.parametrize("os_on", (True, False), ids=("os", "no_os"))
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("consumer", sorted(ERRORS))
def test_a_failing_page_is_not_charged(consumer, layout, os_on):
    """The error raises with pages 0-2 fully charged and page 3 not at all:
    the state is that of the same pipeline over pages 0-2 alone, which
    completes.  The exception is the oracle's."""
    failing, ctx = _error_case(consumer, layout, os_on, ROWS)
    with pytest.raises(ERRORS[consumer]) as raised:
        list(failing.rows())
    fail_at = _fail_at(layout)
    truncated, clean = _error_case(consumer, layout, os_on, fail_at)
    list(truncated.rows())
    assert_states_identical(context_state(ctx), context_state(clean))
    assert outcome(ctx, None) == outcome(clean, None)
    assert (ctx.processor.counters.user["RECORDS_PROCESSED"]
            == fail_at + OTHER_ROWS.get(consumer, 0))

    with per_record_pipelines():
        oracle, _ = _error_case(consumer, layout, os_on, ROWS)
        with pytest.raises(ERRORS[consumer]) as expected:
            list(oracle.rows())
    assert str(raised.value) == str(expected.value)


# ------------------------------------------------ the entry point, on its twin
_ADDRESS = st.integers(0x10000, 0x30000)
_LOAD = st.tuples(st.integers(0, 256), st.sampled_from((0, 1, 4, 100)),
                  st.integers(1, 100))


def _visit(kinds):
    return st.tuples(st.sampled_from(kinds), st.integers(0, 7))


_RECORD_STEP = st.one_of(_visit((STEP_VISIT, STEP_VISIT_OUTCOME)),
                         st.tuples(st.just(STEP_LOADS), st.lists(_LOAD, max_size=3)))
_ROW_STEP = st.one_of(
    _RECORD_STEP,
    st.tuples(st.sampled_from((STEP_READ, STEP_WRITE)), _ADDRESS, st.integers(1, 64)),
    st.tuples(st.sampled_from((STEP_READ_BUCKET, STEP_WRITE_BUCKET)), st.integers(1, 32)),
    _visit((STEP_VISIT_MATCHED,)),
    st.tuples(st.just(STEP_EACH_MATCH), st.lists(_visit((STEP_VISIT,)), max_size=2)))


def _program(ctx, page, record, row, done, pause):
    """Bind the drawn steps (segment numbers, load lists) to ``ctx``."""
    names = segment_names(ctx)

    def bind(steps):
        out = []
        for kind, *args in steps:
            if kind in (STEP_VISIT, STEP_VISIT_OUTCOME, STEP_VISIT_MATCHED):
                out.append(ctx.visit_step(names[args[0]], kind))
            elif kind in (STEP_LOADS, STEP_EACH_MATCH):
                out.append((kind, tuple(args[0]) if kind == STEP_LOADS else bind(args[0])))
            else:
                out.append((kind, *args))
        return tuple(out)

    return (bind(page), bind(record), bind(row), done, pause)


def _drive(ctx, program, records, outcomes, operands):
    """Run a page the way the operators do: once, or from pause to pause."""
    positions = [ctx.charge_pipeline(program, records, outcomes, operands)]
    while program[4] and positions[-1] < len(records):
        positions.append(ctx.charge_pipeline(program, records, outcomes, operands,
                                             positions[-1] + 1))
    return positions


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(page=st.lists(_visit((STEP_VISIT,)), max_size=2),
       record=st.lists(_RECORD_STEP, max_size=4), row=st.lists(_ROW_STEP, max_size=5),
       done=st.booleans(), pause=st.booleans(), os_on=st.booleans(),
       records=st.lists(st.tuples(_ADDRESS, st.booleans(), _ADDRESS, st.integers(0, 3)),
                        max_size=12),
       with_outcomes=st.booleans())
def test_the_entry_point_matches_its_twin(reference_machine, page, record, row, done,
                                          pause, os_on, records, with_outcomes):
    keys = [key for key, _, _, _ in records]
    outcomes = [passed for _, passed, _, _ in records] if with_outcomes else None
    qualifying = [entry for entry in records if not with_outcomes or entry[1]]
    operands = ([bucket for _, _, bucket, _ in qualifying],
                [matches for _, _, _, matches in qualifying])
    native, oracle = context_pair(
        reference_machine, os_interference=OSInterferenceConfig(interval_instructions=700)
        if os_on else None)
    positions = [_drive(ctx, _program(ctx, page, record, row, done, pause), keys,
                        outcomes, operands) for ctx in (native, oracle)]
    assert positions[0] == positions[1]
    assert_states_identical(context_state(native), context_state(oracle))


def _malformed(ctx):
    """Calls that must raise before anything is charged."""
    visit = ctx.visit_step(segment_names(ctx)[0])
    good = ((visit,), (visit,), (visit, (STEP_READ_BUCKET, 8)), True, False)
    foreign = ExecutionContext(SimulatedProcessor(), SYSTEM_B,
                               ctx.address_space).visit_step("scan_next")
    return [
        (TypeError, (good[:4], [1], None, ([1], None), 0)),
        (TypeError, (((visit,), ("x",), (), True, False), [1], None, None, 0)),
        (TypeError, (((), ((STEP_LOADS, ((1, 2),)),), (), True, False), [1], None,
                      None, 0)),
        (TypeError, (((), ((99, 1),), (), True, False), [1], None, None, 0)),
        (ValueError, (((), ((visit[0], foreign[1]),), (), True, False), [1], None, None, 0)),
        (ValueError, (((), ((STEP_READ_BUCKET, 8),), (), True, False), [1], None,
                      ([1], None), 0)),
        (ValueError, (good, [1, 2], None, None, 0)),
        (ValueError, (good, [1, 2], None, ([1], None), 0)),
        (ValueError, (good, [1, 2], [True], ([1, 2], None), 0)),
        (ValueError, (good, [1, 2], None, ([1, 2], None), 3)),
        (TypeError, (good, [1, "x"], None, ([1, 2], None), 0)),
        (TypeError, (good, [1, 2], None, ([1, None], None), 0)),
        (TypeError, (good, [1, 2], None, [[1, 2], None], 0)),
        (TypeError, (good, 7, None, ([1, 2], None), 0)),
    ]


def test_malformed_calls_raise_before_anything_is_charged(reference_machine):
    native, oracle = context_pair(reference_machine)
    for ctx in (native, oracle):
        ctx.visit("scan_next")
        before = context_state(ctx)
        for error, args in _malformed(ctx):
            with pytest.raises(error):
                ctx.charge_pipeline(*args)
        assert_states_identical(context_state(ctx), before)
    assert_states_identical(context_state(native), context_state(oracle))
