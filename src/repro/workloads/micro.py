"""The paper's microbenchmark workload (Section 3.3).

The database contains one basic relation::

    create table R (a1 integer not null,
                    a2 integer not null,
                    a3 integer not null,
                    <rest of fields>)

populated with 1.2 million 100-byte records whose ``a2`` values are uniformly
distributed between 1 and 40,000, plus a second relation ``S`` defined the
same way with 40,000 records whose ``a1`` is a primary key, so that each ``S``
record joins with 30 records of ``R``.  The three queries are:

1. *Sequential range selection* -- ``select avg(a3) from R where a2 < Hi and
   a2 > Lo`` executed with a sequential scan;
2. *Indexed range selection* -- the same query resubmitted after building a
   non-clustered index on ``R.a2``;
3. *Sequential join* -- ``select avg(R.a3) from R, S where R.a2 = S.a1`` with
   no indexes available.

Because the simulation is pure Python, the workload exposes a ``scale``
factor: at ``scale=1.0`` the row counts match the paper exactly; the defaults
use a much smaller scale whose working set still exceeds the 512 KB L2 cache
several times over, which is the property the L2 behaviour depends on.  The
ratio between R and S (and therefore the join fan-out of 30) and the
uniformity of ``a2`` are preserved at every scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

from numpy.random import default_rng

from ..engine.database import Database
from ..query.expressions import (ColumnRef, Comparison, ComparisonOp, Const,
                                 avg, conjunction, range_predicate)
from ..query.plans import JoinQuery, SelectionQuery
from ..storage.schema import ColumnType

#: The paper's row counts and value domain (scale == 1.0).
PAPER_R_ROWS = 1_200_000
PAPER_S_ROWS = 40_000
PAPER_A2_DOMAIN = 40_000
#: Records of R joining with each record of S (R rows / S rows).
JOIN_FANOUT = PAPER_R_ROWS // PAPER_S_ROWS

#: Default scale: 1/200th of the paper (6,000-row R, 200-row S, 600 KB of R
#: data -- comfortably larger than the 512 KB L2 cache).
DEFAULT_SCALE = 1.0 / 200.0


@dataclass(frozen=True)
class MicroWorkloadConfig:
    """Parameters of the microbenchmark dataset."""

    scale: float = DEFAULT_SCALE
    record_size: int = 100
    selectivity: float = 0.10
    seed: int = 1999
    minimum_r_rows: int = 300

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.record_size < 12:
            raise ValueError("record_size must hold at least the three declared integers")
        if not 0.0 <= self.selectivity <= 1.0:
            raise ValueError("selectivity must be within [0, 1]")

    @property
    def r_rows(self) -> int:
        return max(int(round(PAPER_R_ROWS * self.scale)), self.minimum_r_rows)

    @property
    def s_rows(self) -> int:
        return max(self.r_rows // JOIN_FANOUT, 1)

    @property
    def a2_domain(self) -> int:
        """Upper bound of the uniform ``a2`` domain (40,000 at scale 1.0)."""
        return self.s_rows

    @property
    def r_bytes(self) -> int:
        return self.r_rows * self.record_size

    @property
    def s_bytes(self) -> int:
        """Bytes of S -- the equijoin's build side, the quantity a join
        memory budget is expressed relative to (the bench's budget sweep
        runs at infinity / 2x / 1x / 0.5x this size)."""
        return self.s_rows * self.record_size


class MicroWorkload:
    """Builds the R/S dataset and the three microbenchmark queries."""

    R_TABLE = "R"
    S_TABLE = "S"

    def __init__(self, config: Optional[MicroWorkloadConfig] = None) -> None:
        self.config = config or MicroWorkloadConfig()

    # ----------------------------------------------------------------- data
    def generate_r_rows(self) -> Iterator[Tuple[int, int, int]]:
        """Rows of R: ``a1`` sequential, ``a2`` uniform over the domain, ``a3`` values."""
        config = self.config
        rng = default_rng(config.seed)
        a2 = rng.integers(1, config.a2_domain + 1, size=config.r_rows)
        a3 = rng.integers(0, 10_000, size=config.r_rows)
        for i in range(config.r_rows):
            yield i + 1, int(a2[i]), int(a3[i])

    def generate_s_rows(self) -> Iterator[Tuple[int, int, int]]:
        """Rows of S: ``a1`` is the primary key 1..|S|."""
        config = self.config
        rng = default_rng(config.seed + 1)
        a2 = rng.integers(1, config.a2_domain + 1, size=config.s_rows)
        a3 = rng.integers(0, 10_000, size=config.s_rows)
        for i in range(config.s_rows):
            yield i + 1, int(a2[i]), int(a3[i])

    def build(self, database: Optional[Database] = None,
              include_s: bool = True, layout_style: str = "nsm") -> Database:
        """Create and load R (and S) into ``database`` (a new one by default).

        ``layout_style`` selects the page organisation of both tables
        (``"nsm"`` slotted pages or ``"pax"`` minipages) -- the layout axis
        of the engine x layout benchmark grid.
        """
        db = database or Database()
        columns = [("a1", ColumnType.INT32), ("a2", ColumnType.INT32), ("a3", ColumnType.INT32)]
        db.create_table(self.R_TABLE, columns, record_size=self.config.record_size,
                        layout_style=layout_style)
        db.load(self.R_TABLE, self.generate_r_rows())
        if include_s:
            db.create_table(self.S_TABLE, columns, record_size=self.config.record_size,
                            layout_style=layout_style)
            db.load(self.S_TABLE, self.generate_s_rows())
        return db

    def create_selection_index(self, database: Database):
        """Build the non-clustered index on ``R.a2`` (for the indexed selection)."""
        return database.create_index(self.R_TABLE, "a2")

    # -------------------------------------------------------------- queries
    def bounds_for_selectivity(self, selectivity: Optional[float] = None,
                               offset: float = 0.0) -> Tuple[int, int]:
        """``(Lo, Hi)`` bounds giving the requested selectivity.

        The qualification is ``a2 > Lo and a2 < Hi`` with exclusive bounds, so
        for a domain of ``D`` uniform values the selected fraction is
        ``(Hi - Lo - 1) / D``.  ``Lo`` is anchored at 0 as in the paper's
        sweeps (only the width of the interval matters for a uniform column);
        ``offset`` shifts the window's start to a different fraction of the
        domain, which the experiment runner uses to build *warm-up* queries
        that exercise the same code path over a disjoint set of records.
        """
        config = self.config
        if selectivity is None:
            selectivity = config.selectivity
        if not 0.0 <= selectivity <= 1.0:
            raise ValueError("selectivity must be within [0, 1]")
        if not 0.0 <= offset <= 1.0:
            raise ValueError("offset must be within [0, 1]")
        domain = config.a2_domain
        selected = int(round(selectivity * domain))
        low = min(int(round(offset * domain)), domain - selected)
        low = max(low, 0)
        high = low + selected + 1
        return low, high

    def sequential_range_selection(self, selectivity: Optional[float] = None,
                                   offset: float = 0.0) -> SelectionQuery:
        """Query (1): ``select avg(a3) from R where a2 < Hi and a2 > Lo``."""
        low, high = self.bounds_for_selectivity(selectivity, offset)
        return SelectionQuery(
            table=self.R_TABLE,
            aggregates=(avg("a3"),),
            predicate=range_predicate("a2", low, high),
            prefer_index_on=None,
            label=f"SRS {self._selectivity_label(selectivity)}",
        )

    def indexed_range_selection(self, selectivity: Optional[float] = None,
                                offset: float = 0.0) -> SelectionQuery:
        """Query (2): the range selection resubmitted with the index available."""
        low, high = self.bounds_for_selectivity(selectivity, offset)
        return SelectionQuery(
            table=self.R_TABLE,
            aggregates=(avg("a3"),),
            predicate=range_predicate("a2", low, high),
            prefer_index_on="a2",
            label=f"IRS {self._selectivity_label(selectivity)}",
        )

    def skewed_conjunct_selection(self, narrow: float = 0.05,
                                  wide: float = 0.90,
                                  coin_threshold: int = 5_000) -> SelectionQuery:
        """The adaptivity microworkload: a 3-conjunct filter in skewed order.

        ``select avg(a3) from R where a1 <= W and a3 >= C and a2 < N`` with
        the conjuncts deliberately written in the *worst* static order:

        1. ``a1 <= W`` passes ~``wide`` (90%) of rows -- cheap, nearly
           useless as a filter,
        2. ``a3 >= C`` passes ~50% of rows -- a data branch the predictor
           cannot learn (the paper's coin-flip misprediction case), and
        3. ``a2 < N`` passes ~``narrow`` (5%) of rows -- the conjunct that
           should run first.

        A planner without column statistics executes source order, paying
        the 50/50 branch on ~90% of the records and forwarding ~45% of them
        to the selective conjunct.  The greedy runtime policy learns within
        a batch to evaluate ``a2 < N`` first, which short-circuits ~95% of
        the rows past both expensive conjuncts -- the branch-misprediction
        and cycle delta the ``figure_adaptivity`` experiment measures.
        """
        wide_bound, narrow_bound = self._skewed_bounds(narrow, wide)
        predicate = conjunction(
            Comparison(ComparisonOp.LE, ColumnRef("a1"), Const(wide_bound)),
            Comparison(ComparisonOp.GE, ColumnRef("a3"), Const(coin_threshold)),
            Comparison(ComparisonOp.LT, ColumnRef("a2"), Const(narrow_bound)),
        )
        return SelectionQuery(
            table=self.R_TABLE,
            aggregates=(avg("a3"),),
            predicate=predicate,
            prefer_index_on=None,
            label=f"ACS {narrow:.0%}/50%/{wide:.0%}",
        )

    def _skewed_bounds(self, narrow: float, wide: float) -> Tuple[int, int]:
        """``(wide_bound, narrow_bound)`` shared by the query and its truth."""
        config = self.config
        return (max(int(round(wide * config.r_rows)), 1),
                max(int(round(narrow * config.a2_domain)) + 1, 2))

    def expected_skewed_rows(self, narrow: float = 0.05, wide: float = 0.90,
                             coin_threshold: int = 5_000) -> int:
        """Ground-truth count of rows the skewed-conjunct filter qualifies."""
        wide_bound, narrow_bound = self._skewed_bounds(narrow, wide)
        return sum(1 for a1, a2, a3 in self.generate_r_rows()
                   if a1 <= wide_bound and a3 >= coin_threshold
                   and a2 < narrow_bound)

    def sequential_join(self) -> JoinQuery:
        """Query (3): ``select avg(R.a3) from R, S where R.a2 = S.a1``."""
        return JoinQuery(
            left_table=self.R_TABLE,
            right_table=self.S_TABLE,
            left_column="a2",
            right_column="a1",
            aggregates=(avg("R.a3"),),
            label="SJ",
        )

    def skewed_join(self) -> JoinQuery:
        """The adaptive-join microworkload: the planner builds on the wrong side.

        The same equijoin as :meth:`sequential_join`, but with the hash
        join's build side pinned to ``R`` -- the 30x *larger* relation --
        modelling a planner whose stale statistics believed R small.  The
        static plan therefore hashes all of R (a hash area ~30x the L1
        D-cache at default scale, every bucket write a likely miss) and
        probes with the few S rows; runtime join-side selection observes R's
        cardinality streaming past the probe-side expectation within a few
        batches and flips, hashing the small S instead and streaming R
        through an L1D-resident table.  Result rows (and their order) are
        identical either way -- only the charged work differs, which is the
        cycle delta the ``AJS`` benchmark cells record.
        """
        return JoinQuery(
            left_table=self.R_TABLE,
            right_table=self.S_TABLE,
            left_column="a2",
            right_column="a1",
            aggregates=(avg("R.a3"),),
            build_side="left",
            label="AJS",
        )

    def over_budget_join(self) -> JoinQuery:
        """The memory-budget microworkload: the same equijoin, run under a
        ``memory_budget_bytes`` the session chooses relative to
        :attr:`MicroWorkloadConfig.s_bytes` (the build side's footprint).

        The query itself is identical to :meth:`sequential_join` -- the
        planner still builds on the smaller S -- because the budget is an
        execution knob, not a query property: the bench sweeps one query
        across budgets of infinity / 2x / 1x / 0.5x the build size and
        records how the grace/hybrid spilling path trades charged page I/O
        for residency.  Result rows are identical at every budget.
        """
        return JoinQuery(
            left_table=self.R_TABLE,
            right_table=self.S_TABLE,
            left_column="a2",
            right_column="a1",
            aggregates=(avg("R.a3"),),
            label="SJB",
        )

    def _selectivity_label(self, selectivity: Optional[float]) -> str:
        value = self.config.selectivity if selectivity is None else selectivity
        return f"{value:.0%}"

    # --------------------------------------------------------------- truths
    def expected_selected_rows(self, selectivity: Optional[float] = None) -> int:
        """Exact number of R rows the range selection qualifies (ground truth)."""
        low, high = self.bounds_for_selectivity(selectivity)
        return sum(1 for _, a2, _ in self.generate_r_rows() if low < a2 < high)

    def expected_average(self, selectivity: Optional[float] = None) -> Optional[float]:
        """Exact ``avg(a3)`` of the range selection (ground truth for tests)."""
        low, high = self.bounds_for_selectivity(selectivity)
        total = 0
        count = 0
        for _, a2, a3 in self.generate_r_rows():
            if low < a2 < high:
                total += a3
                count += 1
        return total / count if count else None

    def expected_join_rows(self) -> int:
        """Exact number of joined pairs produced by the equijoin."""
        s_keys = {a1 for a1, _, _ in self.generate_s_rows()}
        return sum(1 for _, a2, _ in self.generate_r_rows() if a2 in s_keys)
