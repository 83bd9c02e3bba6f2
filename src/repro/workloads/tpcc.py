"""Synthetic TPC-C-style OLTP workload.

The paper's Section 5.5 runs a 10-user, 1-warehouse TPC-C workload against all
four DBMSs and reports (without figures) that TPC-C behaves very differently
from the DSS workloads: CPI rates between 2.5 and 4.5, 60--80% of execution
time in memory stalls, and a memory-stall breakdown dominated by *second
level* data and instruction misses.

A full TPC-C implementation (think aborts, deadlocks, terminals) is outside
the scope of a single-threaded measurement study; what matters for the
comparison is the access pattern: short transactions making *random point
accesses* through indexes into tables far larger than the L2 cache, with a
large transaction-management code path executed per transaction.  The
workload here provides exactly that:

* ``customer`` and ``stock`` tables scaled per warehouse/district as in
  TPC-C (30,000 customer rows and 100,000 stock rows per warehouse at scale
  1.0), each with a unique index on its primary key,
* a transaction mix of *new-order*-like transactions (one customer lookup,
  ~10 stock lookups + updates) and *payment*-like transactions (one customer
  lookup + update), issued by ``users`` interleaved round-robin,
* per-transaction ``txn_overhead`` charged through the session's transaction
  path (locking, logging, begin/commit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.random import default_rng

from ..engine.database import Database
from ..engine.session import Session
from ..query.expressions import avg, equals
from ..query.plans import LogicalQuery, SelectionQuery, UpdateQuery
from ..storage.schema import ColumnType

#: Rows per warehouse at scale 1.0 (the TPC-C sizing rules).
PAPER_CUSTOMER_ROWS = 30_000
PAPER_STOCK_ROWS = 100_000

#: Default scale keeps the tables several times larger than the 512 KB L2.
DEFAULT_SCALE = 1.0 / 12.0


@dataclass(frozen=True)
class TPCCConfig:
    """Parameters of the OLTP dataset and transaction mix."""

    scale: float = DEFAULT_SCALE
    warehouses: int = 1
    users: int = 10
    new_order_fraction: float = 0.5
    items_per_new_order: int = 10
    customer_record_size: int = 120
    stock_record_size: int = 100
    seed: int = 4242

    def __post_init__(self) -> None:
        if self.scale <= 0 or self.warehouses <= 0 or self.users <= 0:
            raise ValueError("scale, warehouses and users must be positive")
        if not 0.0 <= self.new_order_fraction <= 1.0:
            raise ValueError("new_order_fraction must be within [0, 1]")

    @property
    def customer_rows(self) -> int:
        return max(int(PAPER_CUSTOMER_ROWS * self.scale) * self.warehouses, 100)

    @property
    def stock_rows(self) -> int:
        return max(int(PAPER_STOCK_ROWS * self.scale) * self.warehouses, 200)


@dataclass(frozen=True)
class Transaction:
    """One OLTP transaction: a label plus its statements."""

    kind: str
    user: int
    statements: Tuple[LogicalQuery, ...]


class TPCCWorkload:
    """Builds the OLTP dataset and generates the transaction stream."""

    CUSTOMER = "customer"
    STOCK = "stock"

    def __init__(self, config: Optional[TPCCConfig] = None) -> None:
        self.config = config or TPCCConfig()

    # ----------------------------------------------------------------- data
    def table_columns(self) -> Iterator[Tuple[str, Dict[str, np.ndarray]]]:
        """``(table, columns)`` for ``customer`` then ``stock``, drawn from
        one seeded stream in that order (every column ``INT32``)."""
        config = self.config
        rng = default_rng(config.seed)
        ids = np.arange(config.customer_rows)
        yield self.CUSTOMER, {
            "c_id": ids + 1,
            "c_d_id": ids % 10 + 1,
            "c_w_id": ids % config.warehouses + 1,
            "c_balance": rng.integers(0, 50_000, size=config.customer_rows),
            "c_payment_cnt": np.zeros(config.customer_rows, dtype=np.int64),
        }
        ids = np.arange(config.stock_rows)
        yield self.STOCK, {
            "s_i_id": ids + 1,
            "s_w_id": ids % config.warehouses + 1,
            "s_quantity": rng.integers(10, 100, size=config.stock_rows),
            "s_order_cnt": np.zeros(config.stock_rows, dtype=np.int64),
        }

    def build(self, database: Optional[Database] = None,
              layout_style: str = "nsm") -> Database:
        """Create and populate both tables plus their unique key indexes.

        ``layout_style`` selects the page organisation of both tables
        (``"nsm"`` / ``"pax"``); the seeded row streams are layout-independent.
        """
        config = self.config
        db = database or Database()
        record_sizes = {self.CUSTOMER: config.customer_record_size,
                        self.STOCK: config.stock_record_size}
        for name, columns in self.table_columns():
            db.create_table(name, [(column, ColumnType.INT32) for column in columns],
                            record_size=record_sizes[name], layout_style=layout_style)
            db.load(name, columns)
        db.create_index(self.CUSTOMER, "c_id", unique=True)
        db.create_index(self.STOCK, "s_i_id", unique=True)
        return db

    # --------------------------------------------------------- transactions
    def _new_order(self, rng, user: int) -> Transaction:
        config = self.config
        customer = int(rng.integers(1, config.customer_rows + 1))
        statements: List[LogicalQuery] = [
            SelectionQuery(table=self.CUSTOMER, aggregates=(avg("c_balance"),),
                           predicate=equals("c_id", customer),
                           prefer_index_on="c_id", label="no.customer"),
        ]
        items = rng.integers(1, config.stock_rows + 1, size=config.items_per_new_order)
        for item in items:
            quantity = int(rng.integers(1, 11))
            statements.append(UpdateQuery(table=self.STOCK, key_column="s_i_id",
                                          key_value=int(item), set_column="s_quantity",
                                          set_value=quantity, label="no.stock"))
        return Transaction(kind="new_order", user=user, statements=tuple(statements))

    def _payment(self, rng, user: int) -> Transaction:
        config = self.config
        customer = int(rng.integers(1, config.customer_rows + 1))
        amount = int(rng.integers(1, 5_000))
        statements: Tuple[LogicalQuery, ...] = (
            SelectionQuery(table=self.CUSTOMER, aggregates=(avg("c_balance"),),
                           predicate=equals("c_id", customer),
                           prefer_index_on="c_id", label="pay.lookup"),
            UpdateQuery(table=self.CUSTOMER, key_column="c_id", key_value=customer,
                        set_column="c_balance", set_value=amount, label="pay.update"),
        )
        return Transaction(kind="payment", user=user, statements=statements)

    def transactions(self, count: int, seed: Optional[int] = None) -> Iterator[Transaction]:
        """Generate ``count`` transactions, interleaving the simulated users."""
        config = self.config
        rng = default_rng(config.seed + 7 if seed is None else seed)
        for position in range(count):
            user = position % config.users
            if rng.random() < config.new_order_fraction:
                yield self._new_order(rng, user)
            else:
                yield self._payment(rng, user)

    # -------------------------------------------------------------- driving
    def run(self, session: Session, transactions: int = 200,
            warmup_transactions: int = 20, seed: Optional[int] = None):
        """Drive a session through the transaction mix and measure it.

        Returns the ``(counters, breakdown, metrics)`` triple of
        :meth:`repro.engine.session.Session.measure` covering the measured
        transactions (warm-up transactions excluded), exactly how the
        microbenchmark measurements exclude their warm-up runs.
        """
        for txn in self.transactions(warmup_transactions, seed=seed):
            session.execute_transaction(txn.statements)
        session.reset_measurement()
        executed = 0
        for txn in self.transactions(transactions, seed=None if seed is None else seed + 1):
            session.execute_transaction(txn.statements)
            executed += 1
        counters, breakdown, metrics = session.measure()
        return counters, breakdown, metrics, executed
