"""Synthetic TPC-D-style decision-support workload.

Section 5.5 of the paper runs "the 17 TPC-D selection queries" against a
100 MB database on systems A, B and D, and shows that the clock-per-
instruction breakdown and the cache-related stall breakdown of the TPC-D
average closely resemble the simple sequential range selection -- that is the
paper's methodological argument for studying microbenchmarks.

The actual TPC-D dataset and query text are not reproducible here (and would
add nothing: the paper uses only the *averaged breakdown shape*), so this
module builds a synthetic decision-support schema and a 17-query suite that
exercises the same operator mix over data volumes with the same relationship
to the cache hierarchy:

* a fact table (``lineitem``) much larger than the L2 cache, scanned by most
  queries with varying selectivities and aggregate columns,
* three dimension tables (``orders``, ``part``, ``supplier``) joined to the
  fact table by several queries,
* a non-clustered index on the fact table's date-like column used by the more
  selective queries.

All 17 queries are scalar-aggregate selections or equijoins, matching the
paper's description of the workload as "selection queries".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.random import default_rng

from ..engine.database import Database
from ..query.expressions import avg, count_star, range_predicate
from ..query.plans import JoinQuery, LogicalQuery, SelectionQuery
from ..storage.schema import ColumnType

#: Scale of the paper's TPC-D run in bytes (100 MB); the default synthetic
#: scale keeps the same >L2 relationship at a fraction of the size.
PAPER_DATABASE_BYTES = 100 * 1024 * 1024

#: Date-like domain for the fact table's pseudo ``shipdate`` column.
DATE_DOMAIN = 2_400


@dataclass(frozen=True)
class TPCDConfig:
    """Parameters of the synthetic DSS dataset."""

    lineitem_rows: int = 9_000
    orders_rows: int = 900
    part_rows: int = 300
    supplier_rows: int = 60
    lineitem_record_size: int = 120
    dimension_record_size: int = 64
    seed: int = 2025

    def __post_init__(self) -> None:
        if min(self.lineitem_rows, self.orders_rows, self.part_rows, self.supplier_rows) <= 0:
            raise ValueError("all row counts must be positive")


class TPCDWorkload:
    """Builds the synthetic DSS schema, data and 17-query suite."""

    LINEITEM = "lineitem"
    ORDERS = "orders"
    PART = "part"
    SUPPLIER = "supplier"

    def __init__(self, config: Optional[TPCDConfig] = None) -> None:
        self.config = config or TPCDConfig()

    # ----------------------------------------------------------------- data
    def table_columns(self) -> Iterator[Tuple[str, Dict[str, np.ndarray]]]:
        """``(table, columns)`` for the fact table, then each dimension, all
        drawn from one seeded stream in that order (every column
        ``INT32``)."""
        config = self.config
        rng = default_rng(config.seed)
        rows = config.lineitem_rows
        yield self.LINEITEM, {
            "l_orderkey": rng.integers(1, config.orders_rows + 1, size=rows),
            "l_partkey": rng.integers(1, config.part_rows + 1, size=rows),
            "l_suppkey": rng.integers(1, config.supplier_rows + 1, size=rows),
            "l_quantity": rng.integers(1, 51, size=rows),
            "l_extendedprice": rng.integers(100, 100_000, size=rows),
            "l_discount": rng.integers(0, 11, size=rows),
            "l_shipdate": rng.integers(1, DATE_DOMAIN + 1, size=rows),
        }
        for name, rows in ((self.ORDERS, config.orders_rows),
                           (self.PART, config.part_rows),
                           (self.SUPPLIER, config.supplier_rows)):
            attrs = rng.integers(0, 1_000, size=(rows, 2))
            yield name, {"key": np.arange(1, rows + 1),
                         "attr1": attrs[:, 0], "attr2": attrs[:, 1]}

    def build(self, database: Optional[Database] = None,
              layout_style: str = "nsm") -> Database:
        """Create and populate the four tables, plus the fact-table index.

        ``layout_style`` selects the page organisation of every table
        (``"nsm"`` slotted pages, the paper's systems; ``"pax"`` minipages)
        -- the layout axis of the TPC-under-the-modern-engine matrix.  The
        generated rows are identical for both layouts (one seeded stream).
        """
        config = self.config
        db = database or Database()
        for name, columns in self.table_columns():
            record_size = (config.lineitem_record_size if name == self.LINEITEM
                           else config.dimension_record_size)
            db.create_table(name, [(column, ColumnType.INT32) for column in columns],
                            record_size=record_size, layout_style=layout_style)
            db.load(name, columns)
        db.create_index(self.LINEITEM, "l_shipdate")
        return db

    # -------------------------------------------------------------- queries
    def _date_bounds(self, selectivity: float) -> Tuple[int, int]:
        width = int(round(selectivity * DATE_DOMAIN))
        return 0, width + 1

    def _fact_selection(self, number: int, selectivity: float, agg_column: str,
                        use_index: bool) -> SelectionQuery:
        low, high = self._date_bounds(selectivity)
        return SelectionQuery(
            table=self.LINEITEM,
            aggregates=(avg(agg_column),),
            predicate=range_predicate("l_shipdate", low, high),
            prefer_index_on="l_shipdate" if use_index else None,
            label=f"Q{number}",
        )

    def _fact_join(self, number: int, dimension: str, fact_column: str) -> JoinQuery:
        return JoinQuery(
            left_table=self.LINEITEM,
            right_table=dimension,
            left_column=fact_column,
            right_column="key",
            aggregates=(avg("l_extendedprice"),),
            label=f"Q{number}",
        )

    def queries(self) -> List[LogicalQuery]:
        """The 17-query suite (scans, index selections and joins)."""
        suite: List[LogicalQuery] = [
            # Wide scans with aggregates over different measure columns.
            self._fact_selection(1, 0.95, "l_extendedprice", use_index=False),
            self._fact_selection(2, 0.60, "l_quantity", use_index=False),
            self._fact_selection(3, 0.45, "l_discount", use_index=False),
            self._fact_selection(4, 0.30, "l_extendedprice", use_index=False),
            self._fact_selection(5, 0.75, "l_quantity", use_index=False),
            self._fact_selection(6, 0.50, "l_extendedprice", use_index=False),
            # Selective predicates that invite the non-clustered index.
            self._fact_selection(7, 0.02, "l_extendedprice", use_index=True),
            self._fact_selection(8, 0.05, "l_quantity", use_index=True),
            self._fact_selection(9, 0.10, "l_discount", use_index=True),
            self._fact_selection(10, 0.01, "l_extendedprice", use_index=True),
            self._fact_selection(11, 0.15, "l_quantity", use_index=True),
            # Fact-to-dimension equijoins.
            self._fact_join(12, self.ORDERS, "l_orderkey"),
            self._fact_join(13, self.PART, "l_partkey"),
            self._fact_join(14, self.SUPPLIER, "l_suppkey"),
            self._fact_join(15, self.ORDERS, "l_orderkey"),
            self._fact_join(16, self.PART, "l_partkey"),
            # A counting scan rounding out the suite.
            SelectionQuery(table=self.LINEITEM, aggregates=(count_star(), avg("l_quantity")),
                           predicate=range_predicate("l_quantity", 0, 26),
                           prefer_index_on=None, label="Q17"),
        ]
        return suite

    def query_count(self) -> int:
        return len(self.queries())
