"""Both engines fail the same queries.

``And`` and ``Or`` short-circuit row by row in ``Expression.evaluate`` (the
tuple engine) and over the rows still undecided in
``Expression.evaluate_batch`` (the vectorized engine), so an operand that
raises -- an integer column compared with a string -- is evaluated on the
same rows in both, and both return the same rows or raise the same error.

The adaptive modes that reorder a conjunction's (flattened) conjuncts
(``greedy``, ``epsilon``) may evaluate them in any order, which for a
predicate that raises on some rows is allowed to change whether it raises:
their outcome must be an error one of the conjuncts raises on its own, or
-- where no batch raised -- the rows on which every conjunct holds.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adaptive import AdaptiveExecution
from repro.adaptive.manager import flatten_conjuncts
from repro.engine import Database, Session
from repro.execution import ExecutionContext, execute_plan
from repro.hardware import SimulatedProcessor
from repro.query import ExecutionConfig, SelectionQuery, avg
from repro.query.expressions import (And, Between, ColumnRef, Comparison,
                                     ComparisonOp, Const, Not, Or)
from repro.query.plans import ADAPTIVITY_MODES, SeqScanPlan
from repro.storage.schema import ColumnType
from repro.systems import SYSTEM_B
from repro.workloads.micro import MicroWorkload, MicroWorkloadConfig

ROWS = 48
COLUMNS = ("a1", "a2", "a3")
#: The one way a predicate here can fail: every mistyped leaf compares an
#: integer with this string first, so every failure carries one message.
MISTYPED = "x"


def test_conjunction_never_evaluates_a_conjunct_the_first_one_decided():
    """``SRS`` with ``a2 < -10**9 and a3 < 'x'``: no row passes the first
    conjunct, so neither engine ever compares ``a3`` with a string."""
    workload = MicroWorkload(MicroWorkloadConfig(scale=1 / 2000))
    db = workload.build()
    query = SelectionQuery(table="R", aggregates=(avg("a3"),), predicate=And((
        Comparison(ComparisonOp.LT, ColumnRef("a2"), Const(-10**9)),
        Comparison(ComparisonOp.LT, ColumnRef("a3"), Const(MISTYPED)))))
    for engine in ("tuple", "vectorized"):
        with Session(db, SYSTEM_B, engine=engine) as session:
            assert session.execute(query, warmup_runs=0).rows == \
                [{"avg(a3)": None}]


def test_disjunction_never_evaluates_an_operand_the_first_one_decided():
    columns = {"a": [1, 2, 3]}
    predicate = Or((Comparison(ComparisonOp.GT, ColumnRef("a"), Const(0)),
                    Comparison(ComparisonOp.LT, ColumnRef("a"), Const(MISTYPED))))
    assert predicate.evaluate_batch(columns, 3) == [True, True, True]


def build_database(seed: int) -> Database:
    rng = random.Random(seed)
    db = Database()
    db.create_table("R", [(name, ColumnType.INT32) for name in COLUMNS],
                    record_size=24)
    db.load("R", [tuple(rng.randint(-20, 20) for _ in COLUMNS)
                  for _ in range(ROWS)])
    return db


_column = st.sampled_from(COLUMNS).map(ColumnRef)
_number = st.integers(-25, 25).map(Const)
_ordered_ops = st.sampled_from((ComparisonOp.LT, ComparisonOp.LE,
                                ComparisonOp.GE, ComparisonOp.GT,
                                ComparisonOp.EQ, ComparisonOp.NE))
_leaf = st.one_of(
    st.builds(Comparison, _ordered_ops, _column, _number),
    st.builds(Comparison, _ordered_ops, _number, _column),
    st.builds(Comparison, st.sampled_from((ComparisonOp.EQ, ComparisonOp.NE)),
              _column, st.sampled_from((Const(MISTYPED), Const(None)))),
    st.builds(Comparison, _ordered_ops, _column, st.just(Const(None))),
    st.builds(Between, _column, _number, _number, st.booleans(), st.booleans()),
    # The partial leaves: each raises the same TypeError on every row it is
    # evaluated on (``value > 'x'``, the comparison ``Between`` makes first).
    st.builds(Comparison, st.just(ComparisonOp.GT), _column,
              st.just(Const(MISTYPED))),
    st.builds(Between, _column, st.just(Const(MISTYPED)), _number,
              st.booleans(), st.booleans()),
)
_tree = st.recursive(_leaf, lambda inner: st.one_of(
    st.lists(inner, min_size=1, max_size=3).map(lambda ops: And(tuple(ops))),
    st.lists(inner, min_size=1, max_size=3).map(lambda ops: Or(tuple(ops))),
    st.builds(Not, inner)), max_leaves=6)
_predicate = st.one_of(
    _tree, st.lists(_tree, min_size=2, max_size=3).map(lambda ops: And(tuple(ops))))


def outcome(db: Database, predicate, engine: str = "tuple",
            adaptivity: str = "off", batch_size: int = 256):
    """Rows of a sequential scan under ``predicate``, or the error's type
    and message."""
    execution = ExecutionConfig(engine=engine, batch_size=batch_size,
                                adaptivity=adaptivity)
    ctx = ExecutionContext(SimulatedProcessor(), SYSTEM_B, db.address_space,
                           execution=execution)
    if execution.is_adaptive:
        ctx.adaptive = AdaptiveExecution(adaptivity)
    try:
        rows = execute_plan(SeqScanPlan(table="R", predicate=predicate),
                            db.catalog, ctx)
    except Exception as error:
        return "raised", type(error), str(error)
    return "rows", tuple(tuple(sorted(row.items())) for row in rows)


def lenient_rows(db: Database, conjuncts) -> tuple:
    """The rows on which every conjunct evaluates to true without raising."""
    def holds(conjunct, row) -> bool:
        try:
            return bool(conjunct.evaluate(row))
        except TypeError:
            return False
    table = db.table("R")
    names = sorted(set().union(*(c.columns() for c in conjuncts)))
    out = []
    for entry in table.heap.scan():
        values = dict(zip(COLUMNS, table.heap.read_values(entry.rid)))
        row = {name: values[name] for name in names}
        if all(holds(conjunct, row) for conjunct in conjuncts):
            out.append(tuple(sorted(row.items())))
    return "rows", tuple(out)


DATABASES = {seed: build_database(seed) for seed in (1, 2)}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_predicate, st.sampled_from(sorted(DATABASES)),
       st.sampled_from((1, 7, 256)))
def test_both_engines_and_every_adaptivity_mode_agree(predicate, seed,
                                                      batch_size):
    db = DATABASES[seed]
    expected = outcome(db, predicate)
    conjuncts = flatten_conjuncts(predicate)
    errors = {outcome(db, conjunct) for conjunct in conjuncts}
    for mode in ADAPTIVITY_MODES:
        got = outcome(db, predicate, "vectorized", mode, batch_size)
        if mode in ("off", "static"):
            assert got == expected, mode
        elif got[0] == "raised":
            assert got in errors, mode
        else:
            assert got == lenient_rows(db, conjuncts), mode
