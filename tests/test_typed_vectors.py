"""Typed column vectors, at their boundaries.

The vectorized engine carries a column as one ``ndarray`` of its
``VECTOR_DTYPES`` dtype from the page it is decoded off to the single
``tolist()`` of ``ColumnBatch.to_rows``.  A numpy scalar compares equal to
the Python value (``np.int32(5) == 5``), so the engines' row differentials
cannot see one leak into a result; these tests look at the types:

* every value ``rows()`` yields -- both engines, both layouts, every plan
  shape -- and every key a B-tree leaf holds after ``create_index`` is an
  ``int``, ``float``, ``str`` or ``None``;
* ``decode_values`` equals the per-record ``RecordLayout.decode`` on random
  NSM and PAX pages with tombstones and in-place updates;
* a batch already emitted does not change when the page it was read from
  is updated in place (vectors never alias page memory).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.execution import ExecutionContext, build_join, build_scan, execute_plan
from repro.execution.vectorized import VecSeqScanOperator
from repro.hardware import SimulatedProcessor
from repro.query import ExecutionConfig, avg, count_star, range_predicate
from repro.query.expressions import Aggregate, AggregateFunction
from repro.query.plans import (AggregatePlan, HashJoinPlan, IndexNestedLoopJoinPlan,
                               IndexPointLookupPlan, IndexRangeScanPlan,
                               NestedLoopJoinPlan, SeqScanPlan)
from repro.storage.page import PaxPage, SlottedPage, decode_values
from repro.storage.schema import Column, ColumnType, RecordLayout, Schema
from repro.systems import SYSTEM_B

PYTHON_TYPES = (int, float, str, type(None))

SCHEMA_COLUMNS = (Column("k", ColumnType.INT32), Column("big", ColumnType.INT64),
                  Column("x", ColumnType.FLOAT64),
                  Column("name", ColumnType.CHAR, width=6))
NAMES = tuple(column.name for column in SCHEMA_COLUMNS)


def sample_rows(count: int, offset: int = 0) -> list:
    words = ("", "a", "été", "abcdef", "ab\x00", "日本")
    specials = (0.0, -0.0, 1.5, float("inf"), -2.25e300)
    return [((i % 11) - 5, (i - 45) * (2 ** 56 + 3) + offset, specials[i % 5] + i,
             words[i % len(words)]) for i in range(count)]


def build_database(layout_style: str) -> Database:
    db = Database()
    for name, count in (("T", 90), ("U", 13)):
        schema = Schema(columns=SCHEMA_COLUMNS, name=name)
        db.catalog.create_table(name, schema, record_size=40,
                                layout_style=layout_style)
        db.load(name, sample_rows(count, offset=len(name)))
    for column in NAMES:
        db.create_index("T", column)
    db.create_index("U", "k")
    return db


def context(db: Database, engine: str) -> ExecutionContext:
    return ExecutionContext(SimulatedProcessor(), SYSTEM_B, db.address_space,
                            execution=ExecutionConfig(engine=engine, batch_size=7))


def assert_python_values(rows) -> None:
    assert rows, "the check needs rows to bite"
    for row in rows:
        for name, value in row.items():
            if name == "__rid__":  # the point lookup's record id (updates)
                value = value.page_number, value.slot
                assert {type(part) for part in value} == {int}
            else:
                assert type(value) in PYTHON_TYPES, (name, type(value))


def result_rows(db: Database, engine: str) -> dict:
    """Every plan shape's rows under ``engine``."""
    catalog = db.catalog
    scans = {
        "seq": SeqScanPlan(table="T", predicate=range_predicate("k", -4, 3)),
        "seq_bare": SeqScanPlan(table="T", predicate=None),
        "range": IndexRangeScanPlan(table="T", column="k", low=-3, high=4),
        "range_residual": IndexRangeScanPlan(
            table="T", column="k", low=-6, high=6,
            residual_predicate=range_predicate("x", 1.0, 60.0)),
        "point": IndexPointLookupPlan(table="T", column="name", value="été"),
    }
    out = {name: list(build_scan(plan, catalog, context(db, engine),
                                 NAMES).rows())
           for name, plan in scans.items()}
    joins = {
        "hash": HashJoinPlan(probe=SeqScanPlan(table="T"),
                             build=SeqScanPlan(table="U"),
                             probe_column="k", build_column="k"),
        "nested_loop": NestedLoopJoinPlan(outer=SeqScanPlan(table="U"),
                                          inner=SeqScanPlan(table="T"),
                                          outer_column="k", inner_column="k"),
        "index_nested_loop": IndexNestedLoopJoinPlan(
            outer=SeqScanPlan(table="U"), inner_table="T", inner_column="k",
            outer_column="k"),
    }
    for name, plan in joins.items():
        out[name] = list(build_join(plan, catalog, context(db, engine),
                                    NAMES).rows())
    aggregates = tuple(Aggregate(function, column)
                       for function in (AggregateFunction.MIN,
                                        AggregateFunction.MAX,
                                        AggregateFunction.SUM)
                       for column in ("k", "big", "x")) + (avg("k"), count_star())
    out["aggregate"] = execute_plan(
        AggregatePlan(input=SeqScanPlan(table="T"), aggregates=aggregates),
        catalog, context(db, engine))
    return out


@pytest.mark.parametrize("layout_style", ["nsm", "pax"])
def test_rows_hold_python_values_in_both_engines(layout_style):
    db = build_database(layout_style)
    results = {engine: result_rows(db, engine)
               for engine in ("tuple", "vectorized")}
    for engine, shapes in results.items():
        for shape, rows in shapes.items():
            assert_python_values(rows)
    # Same types as well as equal values: repr tells np.float64 from float
    # and -0.0 from 0.0.
    assert repr(results["vectorized"]) == repr(results["tuple"])


@pytest.mark.parametrize("layout_style", ["nsm", "pax"])
def test_index_leaves_hold_python_keys(layout_style):
    db = build_database(layout_style)
    table = db.catalog.table("T")
    stored = sample_rows(90, offset=1)
    for position, column in enumerate(NAMES):
        index = table.indexes[column]
        keys = index.keys_in_order()
        assert len(keys) == len(stored)
        assert {type(key) for key in keys} == {type(stored[0][position])}
        assert repr(keys) == repr(sorted(_decoded(row[position]) for row in stored))
        for key in (keys[0], keys[-1]):
            for rid in index.search(key):
                assert type(rid.page_number) is int and type(rid.slot) is int


def _decoded(value):
    """A stored value as decode returns it (CHAR: truncated, NUL-stripped)."""
    if isinstance(value, str):
        return value.encode()[:6].rstrip(b"\x00").decode(errors="replace")
    return value


# ---------------------------------------------------------------------------
# decode_values == per-record decode, NSM and PAX
# ---------------------------------------------------------------------------
_values = st.tuples(
    st.integers(-2 ** 31, 2 ** 31 - 1),
    st.integers(-2 ** 63, 2 ** 63 - 1),
    st.one_of(st.floats(allow_nan=False), st.sampled_from([-0.0, math.inf])),
    st.text(max_size=8))
_edits = st.lists(st.tuples(st.sampled_from(["delete", "update", "field"]),
                            st.integers(0, 10 ** 6), _values), max_size=12)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(_values, min_size=1, max_size=60), edits=_edits,
       record_size=st.sampled_from([30, 36, 64]),
       columnar=st.booleans(), data=st.data())
def test_decode_values_equals_per_record_decode(rows, edits, record_size,
                                                columnar, data):
    schema = Schema(columns=SCHEMA_COLUMNS, name="P")
    layout = RecordLayout.build(schema, record_size=record_size)
    page = (PaxPage(0, 1 << 20, layout) if columnar
            else SlottedPage(0, 1 << 20))
    for row in rows:
        if not page.has_room_for(record_size):
            break
        page.insert(layout.encode(row))
    for kind, which, row in edits:
        live = list(page.live_slots())
        if not live:
            break
        slot = live[which % len(live)]
        if kind == "delete":
            page.delete(slot)
        elif kind == "update":
            page.update_in_place(slot, layout.encode(row))
        else:
            name = NAMES[which % len(NAMES)]
            page.write_field(slot, layout.offset_of(name),
                             layout.encode_column(name, row[NAMES.index(name)]))
    live = list(page.live_slots())
    slots = sorted(data.draw(st.sets(st.sampled_from(live)))) if live else []
    expected = [layout.decode(page.record_bytes(slot)) for slot in slots]
    for position, name in enumerate(NAMES):
        vector = decode_values(page, layout, name, slots)
        assert isinstance(vector, np.ndarray) and len(vector) == len(slots)
        assert repr(vector.tolist()) == repr([values[position]
                                              for values in expected])
        # The full live run (the strided / slice path) too.
        assert repr(decode_values(page, layout, name, live).tolist()) == repr(
            [layout.decode(page.record_bytes(slot))[position] for slot in live])


# ---------------------------------------------------------------------------
# Emitted batches never alias page memory
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("layout_style", ["nsm", "pax"])
@pytest.mark.parametrize("system_access", ["fields_only", "full_record"])
def test_update_after_scan_leaves_emitted_batch_unchanged(layout_style,
                                                          system_access):
    from repro.systems import SYSTEM_C
    profile = SYSTEM_B if system_access == "fields_only" else SYSTEM_C
    assert profile.record_access_style == system_access
    db = build_database(layout_style)
    table = db.catalog.table("T")
    ctx = ExecutionContext(SimulatedProcessor(), profile, db.address_space,
                           execution=ExecutionConfig(engine="vectorized"))
    scan = VecSeqScanOperator(table, ctx, predicate=None, output_columns=NAMES)
    batches = list(scan.batches())
    before = [repr(batch.to_rows()) for batch in batches]
    for entry in table.heap.scan():
        table.update(entry.rid, (99, 2 ** 62, 0.5, "zz"))
    assert [repr(batch.to_rows()) for batch in batches] == before
    # ... and the update did land: a new scan sees it.
    rows = list(VecSeqScanOperator(table, ctx, predicate=None,
                                   output_columns=NAMES).rows())
    assert {tuple(row[name] for name in NAMES) for row in rows} == {
        (99, 2 ** 62, 0.5, "zz")}
