"""Differential harness for shared-scan recording and replay.

A serving admission round attaches its queries' sequential scans to one
:class:`~repro.execution.parallel.SharedScanCoordinator`: the first query
with a scan signature records the scan's data work against a
:class:`~repro.execution.parallel.TapeRecorder`, and every attached query
(the recording one included) replays the charge tapes into its own
context.  The contract is that a round with a coordinator is
*indistinguishable* from the same round without one: identical result
rows, identical cache/TLB/branch/event counts and identical routine
invocations for every session, on every planner-producible plan shape,
both page layouts and any batch size (and under per-address charging:
the ``--scale ci`` artifact's concurrent serving arm shares scans under
every oracle of ``oracle.ORACLES``).  The roles are
tested apart: the *recording* session is the round's first, and the
*replaying* session is a second one that rides the first's recording.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import hardware_counts
from repro.engine import Database, Session
from repro.execution.parallel import SharedScanCoordinator
from repro.query import (JoinQuery, SelectionQuery, UpdateQuery, avg,
                         count_star, range_predicate)
from repro.storage.schema import ColumnType
from repro.systems import SYSTEM_B, SYSTEM_C


R_ROWS = 420
S_ROWS = 40
A2_DOMAIN = 60

JOIN_QUERY = JoinQuery(left_table="R", right_table="S", left_column="a2",
                       right_column="a1", aggregates=(avg("R.a3"), count_star()))

#: Planner-producible plan shapes, as logical queries plus the profile that
#: plans and runs them.
PLAN_SHAPES = {
    "agg_seq_scan": lambda: (SelectionQuery(
        table="R", aggregates=(avg("a3"), count_star()),
        predicate=range_predicate("a2", 5, 25)), SYSTEM_C),
    "agg_seq_scan_wide": lambda: (SelectionQuery(
        table="R", aggregates=(count_star(),),
        predicate=range_predicate("a2", 1, 50)), SYSTEM_C),
    "agg_index_range": lambda: (SelectionQuery(
        table="R", aggregates=(avg("a3"),),
        predicate=range_predicate("a2", 10, 20), prefer_index_on="a2"), SYSTEM_B),
    "hash_join": lambda: (JOIN_QUERY, SYSTEM_B),
    "update": lambda: (UpdateQuery(table="S", key_column="a1", key_value=11,
                                   set_column="a3", set_value=-5), SYSTEM_B),
}

#: Shapes with no shareable sequential scan: index access paths only (an
#: update's lookup is one).  A coordinator must be inert for them.
UNSHARED_SHAPES = {"agg_index_range", "update"}

ROLES = ("recording", "replaying")


def build_database(layout_style: str = "nsm", seed: int = 42,
                   r_rows: int = R_ROWS) -> Database:
    db = Database()
    columns = [("a1", ColumnType.INT32), ("a2", ColumnType.INT32),
               ("a3", ColumnType.INT32)]
    db.create_table("R", columns, record_size=100, layout_style=layout_style)
    db.create_table("S", columns, record_size=100, layout_style=layout_style)
    rng = random.Random(seed)
    db.load("R", [(i + 1, rng.randint(1, A2_DOMAIN), rng.randint(0, 9_999))
                  for i in range(r_rows)])
    db.load("S", [(i + 1, rng.randint(1, A2_DOMAIN), rng.randint(0, 9_999))
                  for i in range(S_ROWS)])
    db.create_index("R", "a2")
    db.create_index("S", "a1", unique=True)
    return db


def run_round(shape: str, shared: bool, sessions: int = 1,
              layout: str = "nsm", batch_size: int = 64,
              r_rows: int = R_ROWS):
    """Execute ``shape`` once in each of ``sessions`` fresh sessions over
    one database, in order, as one admission round.

    With ``shared`` every session's context carries the round's one
    coordinator, so the first session records and later ones replay.
    Returns ``(rows, counts, invocations)`` per session and the
    coordinator (``None`` without ``shared``).
    """
    query, profile = PLAN_SHAPES[shape]()
    db = build_database(layout_style=layout, r_rows=r_rows)
    coordinator = SharedScanCoordinator() if shared else None
    outcomes = []
    for _ in range(sessions):
        session = Session(db, profile, os_interference=None,
                          engine="vectorized", batch_size=batch_size)
        session.context.shared_scans = coordinator
        result = session.execute(query, warmup_runs=0)
        session.processor.finalize()
        outcomes.append((result.rows, hardware_counts(session.processor),
                         dict(session.context.op_invocations)))
        session.close()
    return outcomes, coordinator


def assert_role_identical(role: str, **round_args):
    """The ``role`` session of a shared round equals its unshared twin."""
    sessions = ROLES.index(role) + 1
    solo, _ = run_round(shared=False, sessions=sessions, **round_args)
    shared, coordinator = run_round(shared=True, sessions=sessions,
                                    **round_args)
    assert shared[-1][0] == solo[-1][0], "rows diverged"
    assert shared[-1][1] == solo[-1][1], "hardware counts diverged"
    assert shared[-1][2] == solo[-1][2], "routine invocations diverged"
    return coordinator


@pytest.mark.parametrize("role", ROLES)
@pytest.mark.parametrize("layout", ("nsm", "pax"))
@pytest.mark.parametrize("shape", sorted(PLAN_SHAPES))
def test_shared_scan_identical_to_solo_every_plan_shape(shape, layout, role):
    coordinator = assert_role_identical(role, shape=shape, layout=layout)
    if shape in UNSHARED_SHAPES:
        assert coordinator.attachments == 0
        return
    # The path under test really ran: one recording per scan signature,
    # and the replaying session rode it instead of scanning again.
    assert coordinator.recordings >= 1
    if role == "replaying":
        assert coordinator.reuses == coordinator.recordings
    else:
        assert coordinator.reuses == 0


@pytest.mark.parametrize("batch_size", (1, 7))
def test_shared_scan_identical_at_odd_batch_sizes(batch_size):
    solo, _ = run_round("hash_join", shared=False, sessions=2,
                        batch_size=batch_size)
    shared, coordinator = run_round("hash_join", shared=True, sessions=2,
                                    batch_size=batch_size)
    assert shared == solo
    assert coordinator.reuses == coordinator.recordings >= 1


@settings(max_examples=10, deadline=None)
@given(batch_size=st.integers(min_value=1, max_value=512),
       layout=st.sampled_from(("nsm", "pax")),
       shape=st.sampled_from(("agg_seq_scan", "hash_join")))
def test_any_batch_size_shared_round_matches_solo(batch_size, layout, shape):
    args = dict(sessions=2, layout=layout, batch_size=batch_size)
    solo, _ = run_round(shape, shared=False, **args)
    shared, _ = run_round(shape, shared=True, **args)
    assert shared == solo


def test_shared_scan_on_empty_table_yields_nothing():
    solo, _ = run_round("agg_seq_scan", shared=False, sessions=2, r_rows=0)
    shared, coordinator = run_round("agg_seq_scan", shared=True, sessions=2,
                                    r_rows=0)
    assert shared == solo
    assert shared[-1][0] == [{"avg(a3)": None, "count(*)": 0}]
    assert coordinator.reuses == 1
    (recording,) = coordinator._recordings.values()
    assert recording.batches == []


def test_coordinator_keys_recordings_by_scan_signature():
    """Scans that differ in predicate, columns or batch size must not share
    a recording; the same signature must."""
    db = build_database()
    table = db.table("R")
    session = Session(db, SYSTEM_B, os_interference=None, engine="vectorized")
    ctx = session.context
    coordinator = SharedScanCoordinator()
    narrow = range_predicate("a2", 5, 25)
    scans = [
        dict(predicate=narrow, output_columns=("a3",), batch_size=64),
        dict(predicate=narrow, output_columns=("a3",), batch_size=64),
        dict(predicate=range_predicate("a2", 5, 26), output_columns=("a3",),
             batch_size=64),
        dict(predicate=narrow, output_columns=("a1", "a3"), batch_size=64),
        dict(predicate=narrow, output_columns=("a3",), batch_size=32),
    ]
    for scan in scans:
        coordinator.attach(table, ctx, **scan)
    session.close()
    assert coordinator.attachments == 5
    assert coordinator.recordings == 4
    assert coordinator.reuses == 1
    assert coordinator.drop_table("S") == 0
    assert coordinator.drop_table("R") == 4
