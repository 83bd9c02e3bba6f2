"""Plan and result caches for the serving layer.

Both caches are *semantically* keyed: the key is the normalized structure of
the logical query (labels stripped, predicate trees and constants rendered
canonically) combined with the **version epoch** of every table the query
reads.  The serving :class:`~repro.serving.server.Server` bumps a table's
epoch whenever an update executes against it, so every cached plan and
result for that table becomes unreachable at once — invalidation is free and
exact, and a re-submitted query after an update re-plans and re-executes
against current data.

The plan cache is a pure host-side optimisation: the planner never touches
the simulated hardware (its selectivity estimate reads the two ends of the
column's index, no heap page and no execution context), so serving a cached
plan changes no simulated count — only the wall-clock cost of planning, about
ten microseconds a plan, disappears.  The result cache *does* change the
simulated story, deliberately: a hit charges a small cache-probe cost instead
of the query's full execution (see ``Server._serve_hit``), which is the
modelled behaviour of a semantic result cache in front of the engine.  Rows
returned from the cache are copied on the way in and on the way out, so
callers can never corrupt a cached result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..query.plans import (JoinQuery, LogicalQuery, PhysicalPlan,
                           SelectionQuery, UpdateQuery)

__all__ = ["normalize_query", "query_tables", "PlanCache", "ResultCache",
           "CachedResult"]


def query_tables(query: LogicalQuery) -> Tuple[str, ...]:
    """Names of the tables a logical query reads (or writes)."""
    if isinstance(query, (SelectionQuery, UpdateQuery)):
        return (query.table,)
    if isinstance(query, JoinQuery):
        return (query.left_table, query.right_table)
    raise TypeError(f"unknown logical query {query!r}")


def normalize_query(query: LogicalQuery) -> tuple:
    """A hashable key for the query's structure, with the label stripped.

    Two submissions of the same query class (same tables, aggregates,
    predicate tree and constants, planner hints) normalize to the same key
    regardless of their display labels.  Expression trees and aggregate
    specs are frozen dataclasses, so their ``repr`` is a canonical rendering
    of structure plus constants.
    """
    if isinstance(query, SelectionQuery):
        return ("select", query.table,
                tuple(repr(a) for a in query.aggregates),
                repr(query.predicate), query.prefer_index_on)
    if isinstance(query, JoinQuery):
        return ("join", query.left_table, query.right_table,
                query.left_column, query.right_column,
                tuple(repr(a) for a in query.aggregates),
                repr(query.predicate), query.build_side)
    if isinstance(query, UpdateQuery):
        return ("update", query.table, query.key_column, repr(query.key_value),
                query.set_column, repr(query.set_value))
    raise TypeError(f"unknown logical query {query!r}")


class PlanCache:
    """Physical plans keyed on (normalized query, table epochs).

    Epoch keying already guarantees a stale plan is never *served*;
    :meth:`invalidate_table` additionally reclaims the entries an epoch
    bump made unreachable, so a long-running server's plan cache does not
    grow with its update history.
    """

    def __init__(self) -> None:
        self._plans: Dict[tuple, Tuple[PhysicalPlan, Tuple[str, ...]]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> Optional[PhysicalPlan]:
        entry = self._plans.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry[0]

    def put(self, key: tuple, plan: PhysicalPlan,
            tables: Tuple[str, ...] = ()) -> None:
        self._plans[key] = (plan, tuple(tables))

    def invalidate_table(self, table: str) -> int:
        """Drop every plan whose query reads ``table``; returns the count.

        Matches the table tuple stored with each entry, never substrings
        or arbitrary elements of the normalized key.
        """
        stale = [key for key, (_, tables) in self._plans.items()
                 if table in tables]
        for key in stale:
            del self._plans[key]
        return len(stale)

    def __len__(self) -> int:
        return len(self._plans)


@dataclass
class CachedResult:
    """Rows (plus the plan description they came from) of one cached query."""

    rows: List[Dict[str, object]]
    plan_description: str
    #: Tables the query read — the exact match target for invalidation.
    tables: Tuple[str, ...] = ()


class ResultCache:
    """Query results keyed on (normalized query, table epochs).

    Epoch keying makes update invalidation implicit: after the server bumps
    a table's epoch, every entry recorded under the old epoch can never be
    looked up again.  Stale entries are dropped eagerly anyway (see
    :meth:`invalidate_table`) so a long-running server's cache does not
    grow with its update history.
    """

    def __init__(self) -> None:
        self._results: Dict[tuple, CachedResult] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> Optional[CachedResult]:
        entry = self._results.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return CachedResult(rows=[dict(row) for row in entry.rows],
                            plan_description=entry.plan_description,
                            tables=entry.tables)

    def put(self, key: tuple, rows: List[Dict[str, object]],
            plan_description: str, tables: Tuple[str, ...] = ()) -> None:
        self._results[key] = CachedResult(rows=[dict(row) for row in rows],
                                          plan_description=plan_description,
                                          tables=tuple(tables))

    def invalidate_table(self, table: str) -> int:
        """Drop every entry whose query read ``table``; returns the count.

        The epoch in the key already guarantees correctness; this only
        reclaims memory for entries that became unreachable.  Matching is
        against the table tuple stored with each entry, so a table whose
        name happens to equal a column name in some other entry's key is
        never over-invalidated.
        """
        stale = [key for key, entry in self._results.items()
                 if table in entry.tables]
        for key in stale:
            del self._results[key]
        return len(stale)

    def __len__(self) -> int:
        return len(self._results)
