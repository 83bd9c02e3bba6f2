"""The tuple scan reads the page it holds: ``SeqScanOperator.rows`` against
the per-record fetching scan it replaced (``oracle.per_record_fetch_rows``).

The page-at-a-time data plane must be invisible everywhere except on the
host clock: rows and their order, every counter ``finalize()`` reports
(user and supervisor banks), the routine invocations and ``rows_produced``
are those of fetching, charging and decoding one record at a time.  The
paper's queries on Systems A-D and both layouts are the
``per_record_pipelines`` oracle's (``tests/test_reference_oracle.py`` runs
the ``--scale ci`` artifact through it), and every tuple plan shape --
under a consumer, pulled, as the rescanned inner side of a nested-loop
join -- is ``tests/test_tuple_pipeline.py``'s.  Here Hypothesis adds random
tables with random deletes (a fully tombstoned page among them), every
column type, and random ``Between`` / ``Comparison`` / ``And`` predicates,
OS interference on and off.

The error path is specified, not identical: a predicate that raises does so
when its page is decoded (DESIGN.md, "Uncharged work").
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracle import per_record_pipelines
from repro.engine import Session
from repro.execution import ExecutionContext
from repro.execution.operators import (HashJoinOperator, OperatorError,
                                       SeqScanOperator)
from repro.hardware import OSInterferenceConfig, SimulatedProcessor
from repro.query import SelectionQuery, avg
from repro.query.expressions import (And, Between, ColumnRef, Comparison,
                                     ComparisonOp, Const)
from repro.storage import Catalog
from repro.storage.schema import Column, ColumnType, RecordLayout, Schema
from repro.systems import ALL_SYSTEMS, SYSTEM_B, SYSTEM_C
from repro.workloads import MicroWorkload, MicroWorkloadConfig

LAYOUTS = ("nsm", "pax")
SYSTEMS = {profile.key: profile for profile in ALL_SYSTEMS}
#: An interrupt every 20k instructions: several fire inside one scan.
OS_ON = OSInterferenceConfig(interval_instructions=20_000)


def outcome(session_or_ctx, rows):
    """Everything a scan may leave behind, for one equality."""
    ctx = getattr(session_or_ctx, "context", session_or_ctx)
    counters = ctx.processor.finalize()
    return (rows, dict(counters.user), dict(counters.sup),
            dict(ctx.op_invocations), ctx.rows_produced)


def differential(run):
    """``run()`` with the production scan, then with the oracle's."""
    changed = run()
    with per_record_pipelines():
        reference = run()
    return changed, reference


@pytest.fixture(scope="module")
def micro():
    workload = MicroWorkload(MicroWorkloadConfig(scale=1 / 2000, minimum_r_rows=600))
    builds = {}
    for layout in LAYOUTS:
        database = workload.build(layout_style=layout)
        builds[layout] = (database, database.address_space.checkpoint())
    return workload, builds


# ------------------------------------------------------ random tables (Hypothesis)
#: Every column type, CHAR twice (predicate and output sides), padded.
SCHEMA = Schema.of(Column("k", ColumnType.INT32),
                   Column("big", ColumnType.INT64),
                   Column("tag", ColumnType.CHAR, width=4),
                   Column("ratio", ColumnType.FLOAT64),
                   Column("note", ColumnType.CHAR, width=10),
                   Column("n", ColumnType.INT32, nullable=True),
                   name="T")
RECORD_SIZE = 64
PAGE_SIZE = 1024          # 15 records a page on NSM, 15 on PAX
ROWS = 90
INTS = ("k", "big", "n")

_TAGS = ("", "a", "ab", "abc", "abcd", "b", "zz")


def _value(column: str, i: int):
    return {"k": i % 13, "big": (i * 7_919) % 4_001 - 2_000, "tag": _TAGS[i % 7],
            "ratio": (i % 11) / 4.0, "note": f"note{i % 17}", "n": 50 - i}[column]


#: Constants per column: the column's own values, the boundaries either side
#: as floats (an int column against a float constant), and None.
_CONSTANTS = {
    column: st.one_of(
        st.sampled_from(sorted({_value(column, i) for i in range(ROWS)})),
        st.integers(-2_100, 2_100).flatmap(
            lambda v: st.sampled_from((float(v), v - 0.5, v + 0.5))),
        st.none())
    for column in INTS}
_CONSTANTS["ratio"] = st.one_of(st.floats(-1, 4, allow_nan=False), st.none())
_CONSTANTS["tag"] = st.one_of(st.sampled_from(_TAGS + ("aa", "c")), st.none())
_CONSTANTS["note"] = st.sampled_from(("note1", "note15", "note9", "nota"))

_COLUMN = st.sampled_from(sorted(_CONSTANTS))


def _leaf(column):
    bounds = _CONSTANTS[column]
    between = st.builds(lambda low, high, il, ih: Between(ColumnRef(column), Const(low),
                                                          Const(high), il, ih),
                        bounds, bounds, st.booleans(), st.booleans())
    comparison = st.builds(lambda op, value: Comparison(op, ColumnRef(column),
                                                        Const(value)),
                           st.sampled_from(list(ComparisonOp)), bounds)
    return st.one_of(between, comparison)


LEAF = _COLUMN.flatmap(_leaf)
PREDICATE = st.one_of(st.none(), LEAF,
                      st.lists(LEAF, min_size=1, max_size=3).map(
                          lambda operands: And(tuple(operands))))


def random_table(layout, deleted, tombstoned_page):
    catalog = Catalog(page_size=PAGE_SIZE)
    table = catalog.create_table("T", SCHEMA, record_size=RECORD_SIZE,
                                 layout_style=layout)
    rids = [table.insert(tuple(_value(column, i) for column in SCHEMA.column_names()))
            for i in range(ROWS)]
    emptied = table.heap.page_numbers()[tombstoned_page]
    for i, rid in enumerate(rids):
        if i in deleted or rid.page_number == emptied:
            table.delete(rid)
    return catalog, table


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(system=st.sampled_from(sorted(SYSTEMS)), layout=st.sampled_from(LAYOUTS),
       os_on=st.booleans(),
       deleted=st.sets(st.integers(0, ROWS - 1), max_size=40),
       tombstoned_page=st.integers(0, 5),
       predicate=PREDICATE,
       outputs=st.lists(st.sampled_from(SCHEMA.column_names()), max_size=4),
       count_records=st.booleans())
def test_random_tables_and_predicates(system, layout, os_on, deleted,
                                      tombstoned_page, predicate, outputs,
                                      count_records):
    catalog, table = random_table(layout, deleted, tombstoned_page)
    assert any(not slots for _, slots in table.heap.scan_pages())
    checkpoint = catalog.address_space.checkpoint()

    def run():
        catalog.address_space.restore(checkpoint)
        ctx = ExecutionContext(
            SimulatedProcessor(os_interference=OS_ON if os_on else None),
            SYSTEMS[system], catalog.address_space)
        scan = SeqScanOperator(table, ctx, predicate=predicate,
                               output_columns=outputs, count_records=count_records)
        return outcome(ctx, list(scan.rows()))

    changed, reference = differential(run)
    assert changed == reference


def test_storage_holds_no_null():
    """Why the random tables hold no ``None``: a record cannot store one,
    nullable column or not, so ``None`` reaches a scan only as a predicate
    constant (drawn above)."""
    layout = RecordLayout.build(SCHEMA, record_size=RECORD_SIZE)
    row = [_value(column, 0) for column in SCHEMA.column_names()]
    for position, column in enumerate(SCHEMA.columns):
        values = list(row)
        values[position] = None
        with pytest.raises((TypeError, struct.error)):
            layout.encode(values)
        assert column.nullable == (column.name == "n")


# ----------------------------------------------------------------- error path
#: ``a1`` runs 1..600 in storage order, so ``a1 > 400`` first holds pages in.
_LATE = Comparison(ComparisonOp.GT, ColumnRef("a1"), Const(400))
_MISMATCH = Comparison(ComparisonOp.LT, ColumnRef("a2"), Const("x"))
FAILING = {
    "comparison_type_mismatch": _MISMATCH,
    "between_type_mismatch": Between(ColumnRef("a3"), Const(1), Const("z")),
    "mismatch_on_a_later_page": And((_LATE, _MISMATCH)),
}
#: Would raise if every conjunct saw every row; the short circuit never
#: evaluates the mismatch (``a1 < 0`` never holds), so the query succeeds.
SHORT_CIRCUITED = And((Comparison(ComparisonOp.LT, ColumnRef("a1"), Const(0)),
                       _MISMATCH))
#: Counts that only the charge sequence decides, not the machine's state
#: (with OS interference off: the interrupt clock is state too).
RETIREMENT = ("INST_RETIRED", "UOPS_RETIRED", "DATA_MEM_REFS",
              "BR_INST_RETIRED", "RECORDS_PROCESSED")


def _query(predicate):
    return SelectionQuery("R", (avg("a3"),), predicate)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("case", sorted(FAILING))
def test_failed_query_rule(micro, layout, case):
    """Same exception as the oracle; the session runs the next query with a
    fresh session's rows, routine invocations and retirement counts; and a
    session opened as a measurement opens one reads every counter as before
    the failure."""
    workload, builds = micro
    database, checkpoint = builds[layout]
    bad, good = _query(FAILING[case]), workload.sequential_range_selection()

    def measured():
        database.address_space.restore(checkpoint)
        with Session(database, SYSTEM_C, os_interference=None) as session:
            return session.execute(good)

    def after_failure():
        database.address_space.restore(checkpoint)
        with Session(database, SYSTEM_C, os_interference=None) as session:
            with pytest.raises(TypeError) as raised:
                session.execute(bad)
            return raised.value, session.execute(good)

    before = measured()
    error, after = after_failure()
    with per_record_pipelines():
        oracle_error, oracle_after = after_failure()
    assert type(error) is type(oracle_error)
    assert str(error) == str(oracle_error)
    for result in (after, oracle_after):
        assert result.rows == before.rows
        assert result.routine_invocations == before.routine_invocations
        assert ({event: result.counters.as_dict()[event] for event in RETIREMENT}
                == {event: before.counters.as_dict()[event] for event in RETIREMENT})
    again = measured()
    assert again.counters.as_dict() == before.counters.as_dict()
    assert again.rows == before.rows


@pytest.mark.parametrize("layout", LAYOUTS)
def test_short_circuited_operand_never_raises(micro, layout):
    """The page is qualified row by row, not conjunct by conjunct: a
    conjunct the short circuit never reaches cannot fail the query."""
    workload, builds = micro
    database, checkpoint = builds[layout]

    def run():
        database.address_space.restore(checkpoint)
        with Session(database, SYSTEM_C, os_interference=None) as session:
            result = session.execute(_query(SHORT_CIRCUITED))
            return outcome(session, result.rows)

    changed, reference = differential(run)
    assert changed == reference
    assert changed[0] == [{"avg(a3)": None}]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_hash_join_on_a_missing_column_raises_operator_error(micro, layout):
    _, builds = micro
    database, checkpoint = builds[layout]
    for scans in (None, per_record_pipelines):
        database.address_space.restore(checkpoint)
        ctx = Session(database, SYSTEM_B, os_interference=None).context
        catalog = database.catalog
        join = HashJoinOperator(SeqScanOperator(catalog.table("R"), ctx,
                                                output_columns=("a2",)),
                                SeqScanOperator(catalog.table("S"), ctx,
                                                output_columns=("a1",)),
                                "R.a2", "S.zz", ctx)
        with pytest.raises(OperatorError, match="has no column 'zz'"):
            if scans is None:
                list(join.rows())
            else:
                with scans():
                    list(join.rows())
