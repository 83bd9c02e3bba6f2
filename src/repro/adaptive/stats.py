"""Runtime statistics for micro-adaptive execution.

The paper's result -- branch mispredictions and instruction stalls, not
computation, dominate query time -- makes multi-conjunct filters the
cheapest place to recover cycles at run time: evaluating a poorly-selective
conjunct first pays a ~50/50 data branch per record *and* forwards most
records to the remaining conjuncts.  The optimiser cannot fix this without
estimates it does not have; the engine can, because per-batch selectivity is
directly observable.

:class:`RuntimeStatsCollector` is the observation half of that loop.  It
records three families of observations, all keyed by stable strings:

* **per-conjunct** (:class:`ConjunctStats`, keyed by the conjunct's textual
  identity): rows in / rows passed / batches -- pure functions of the stored
  data -- plus the simulated branch outcomes the
  :class:`~repro.execution.context.ExecutionContext` charged for them;
* **per-operator cardinalities** (:class:`CardinalityStats`, keyed by a
  plan-side identity such as the source table of a join input): how many
  rows an operator input actually produced per execution.  Cardinalities
  are *not* additive across executions, so the collector keeps a running
  total plus an observation count and exposes the mean -- the runtime
  estimate the adaptive join-side decision weighs against the planner's
  guess; and
* **per-scan L1D pressure** (:class:`BatchPressureStats`, keyed by scan and
  bucketed by the vector size that produced them): rows processed and
  simulated L1 data-cache misses per batch-size rung, the signal the
  adaptive batch-size ladder climbs.

Everything is plain integer counters, observed by the one execution
context the collector's manager is attached to.

>>> collector = RuntimeStatsCollector()
>>> collector.observe_batch("a2 < 10", rows_in=256, rows_passed=16)
>>> round(collector.selectivity("a2 < 10"), 3)
0.062
>>> collector.observe_cardinality("card:S", 200)
>>> collector.cardinality("card:S")
200.0
>>> collector.observe_pressure("scan:R", size=256, rows=256, l1d_misses=310)
>>> collector.pressure_profile("scan:R")[256].l1d_misses
310
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


def conjunct_key(expression) -> str:
    """Stable identity of a conjunct across operators and batches.

    Expressions are frozen dataclasses, so ``repr`` is a deterministic
    rendering of the conjunct's structure -- the same predicate text maps
    to the same statistics no matter which scan evaluated it.
    """
    return repr(expression)


@dataclass
class ConjunctStats:
    """Counters for one conjunct (all sums)."""

    rows_in: int = 0
    rows_passed: int = 0
    batches: int = 0
    branches: int = 0
    branches_taken: int = 0
    mispredictions: int = 0

    @property
    def selectivity(self) -> Optional[float]:
        """Observed pass fraction, or ``None`` before any observation."""
        if self.rows_in <= 0:
            return None
        return self.rows_passed / self.rows_in

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.branches if self.branches else 0.0


@dataclass
class CardinalityStats:
    """Observed output cardinality of one operator input (per execution).

    A cardinality is a per-execution quantity, so summing across executions
    would be meaningless; the collector keeps the pair (total rows,
    observation count), and the mean is the runtime estimate policies
    consume.
    """

    rows: int = 0
    observations: int = 0

    @property
    def mean(self) -> Optional[float]:
        if self.observations <= 0:
            return None
        return self.rows / self.observations


@dataclass
class BatchPressureStats:
    """Rows and simulated L1D misses charged at one batch-size rung."""

    rows: int = 0
    l1d_misses: int = 0
    batches: int = 0

    @property
    def misses_per_row(self) -> Optional[float]:
        if self.rows <= 0:
            return None
        return self.l1d_misses / self.rows


class RuntimeStatsCollector:
    """Runtime observations (conjuncts, cardinalities, L1D pressure)."""

    __slots__ = ("conjuncts", "cardinalities", "pressure")

    def __init__(self) -> None:
        self.conjuncts: Dict[str, ConjunctStats] = {}
        #: Per-operator-input observed cardinalities (join-side decision).
        self.cardinalities: Dict[str, CardinalityStats] = {}
        #: Per-scan, per-batch-size-rung L1D pressure (batch-size decision).
        self.pressure: Dict[str, Dict[int, BatchPressureStats]] = {}

    def stats_for(self, key: str) -> ConjunctStats:
        stats = self.conjuncts.get(key)
        if stats is None:
            stats = ConjunctStats()
            self.conjuncts[key] = stats
        return stats

    # -------------------------------------------------------- observations
    def observe_batch(self, key: str, rows_in: int, rows_passed: int) -> None:
        """Record one conjunct evaluation over ``rows_in`` surviving rows."""
        stats = self.stats_for(key)
        stats.rows_in += rows_in
        stats.rows_passed += rows_passed
        stats.batches += 1

    def observe_branches(self, key: str, branches: int, taken: int,
                         mispredictions: int) -> None:
        """Record the simulated branch outcomes of one conjunct evaluation."""
        stats = self.stats_for(key)
        stats.branches += branches
        stats.branches_taken += taken
        stats.mispredictions += mispredictions

    def observe_cardinality(self, key: str, rows: int) -> None:
        """Record that the operator input ``key`` produced ``rows`` rows in
        one complete execution (not additive across executions -- the mean
        over observations is the estimate)."""
        stats = self.cardinalities.get(key)
        if stats is None:
            stats = self.cardinalities[key] = CardinalityStats()
        stats.rows += rows
        stats.observations += 1

    def observe_pressure(self, key: str, size: int, rows: int,
                         l1d_misses: int) -> None:
        """Record one batch's simulated L1D misses at batch-size rung
        ``size`` for the scan identified by ``key``."""
        rungs = self.pressure.get(key)
        if rungs is None:
            rungs = self.pressure[key] = {}
        stats = rungs.get(size)
        if stats is None:
            stats = rungs[size] = BatchPressureStats()
        stats.rows += rows
        stats.l1d_misses += l1d_misses
        stats.batches += 1

    # ------------------------------------------------------------- queries
    def selectivity(self, key: str, default: float = 0.5) -> float:
        """Observed selectivity of a conjunct (``default`` until observed)."""
        stats = self.conjuncts.get(key)
        if stats is None:
            return default
        value = stats.selectivity
        return default if value is None else value

    def observed(self, key: str) -> bool:
        stats = self.conjuncts.get(key)
        return stats is not None and stats.rows_in > 0

    def total_rows_in(self) -> int:
        return sum(stats.rows_in for stats in self.conjuncts.values())

    def cardinality(self, key: str) -> Optional[float]:
        """Mean observed cardinality of an operator input (``None`` until
        observed at least once)."""
        stats = self.cardinalities.get(key)
        if stats is None:
            return None
        return stats.mean

    def pressure_profile(self, key: str) -> Dict[int, BatchPressureStats]:
        """Observed L1D pressure per batch-size rung for one scan key."""
        return self.pressure.get(key, {})
