"""Branch Target Buffer and branch-direction prediction.

Section 5.3 of the paper attributes a significant share of execution time to
branch mispredictions and makes three quantitative observations that this
model is designed to reproduce:

* branch instructions account for roughly 20% of instructions retired,
* the BTB misses about 50% of the time on average, so the dynamic prediction
  hardware is only consulted for half the branches (static prediction --
  backward taken, forward not taken -- covers the rest), and
* the misprediction *rate* is largely insensitive to selectivity and record
  size, while the misprediction *stall time* tracks the L1 I-cache stall time
  because the Xeon's instruction prefetching couples the two.

The predictor implemented here follows the Pentium II's published design at
the level of detail the paper uses: a 512-entry, 4-way set-associative BTB
whose entries carry a small per-branch history register indexing a table of
2-bit saturating counters (two-level adaptive prediction, Yeh & Patt style),
with the static rule as fallback on BTB misses.  A :class:`BranchPredictor`
owns a ``_cachesim.BTBState`` and every method is a call into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from . import cache as _cache  # home of ``_NATIVE``, read at construction
from .native import stats_view
from .specs import BranchSpec


@dataclass
class BranchStats:
    """Counters kept by the branch unit."""

    branches: int = 0
    taken: int = 0
    mispredictions: int = 0
    btb_hits: int = 0
    btb_misses: int = 0

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.branches if self.branches else 0.0

    @property
    def btb_miss_rate(self) -> float:
        return self.btb_misses / self.branches if self.branches else 0.0

    def as_dict(self) -> dict:
        return {
            "branches": self.branches,
            "taken": self.taken,
            "mispredictions": self.mispredictions,
            "btb_hits": self.btb_hits,
            "btb_misses": self.btb_misses,
            "misprediction_rate": self.misprediction_rate,
            "btb_miss_rate": self.btb_miss_rate,
        }


#: :attr:`BranchPredictor.stats`: a view of the five counts its
#: ``_cachesim.BTBState`` keeps.
_NativeBranchStats = stats_view(BranchStats)


class BranchPredictor:
    """Two-level adaptive predictor behind a set-associative BTB.

    The state and the statistics have one owner: the ``_cachesim.BTBState``
    in :attr:`_native` (per way a tag, a history register and a pattern
    table of two-bit counters, initialised weakly taken; per set an MRU
    order; the five counts), :attr:`stats` being a view of it.
    :meth:`snapshot` is the surface the reference machine is compared
    through.
    """

    __slots__ = ("spec", "_native", "stats")

    def __init__(self, spec: BranchSpec) -> None:
        self.spec = spec
        self._native = _cache._NATIVE.BTBState(
            spec.btb_sets, spec.btb_associativity, spec.history_bits,
            spec.static_backward_taken)
        self.stats = _NativeBranchStats(self._native)

    # ------------------------------------------------------------------ API
    def execute(self, site_addr: int, taken: bool, backward: bool = False) -> bool:
        """Execute one dynamic branch at ``site_addr``.

        Parameters
        ----------
        site_addr:
            The (simulated) address of the branch instruction.  Branches at
            the same address share prediction state, which is what produces
            the data-dependent misprediction behaviour of the selection
            predicate as selectivity varies.  The low four bits are dropped
            for indexing (branches are sparse).
        taken:
            The actual outcome.
        backward:
            Whether the branch target lies at a lower address (loop-closing
            branches).  Only used by the static fallback prediction --
            backward taken, forward not taken -- on a BTB miss.  Only taken
            branches allocate an entry, as real BTBs do: not-taken branches
            that never hit keep falling back to static prediction, one of
            the reasons the measured BTB miss ratio stays near 50%.

        Returns
        -------
        bool
            ``True`` when the branch was mispredicted.
        """
        return self._native.execute(site_addr, taken, backward)

    # -------------------------------------------------------------- helpers
    def snapshot(self) -> List[List[Tuple[int, int, Tuple[int, ...]]]]:
        """Per set, most recently used first: ``(tag, history, counters)``."""
        return self._native.snapshot()

    def resident_entries(self) -> int:
        return self._native.resident_entries()

    def flush(self) -> None:
        """Clear all prediction state (used between unrelated experiments)."""
        self._native.flush()

    def reset_stats(self) -> None:
        self.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"BranchPredictor(BTB {self.spec.btb_entries} entries, "
                f"{self.spec.btb_associativity}-way, {self.spec.history_bits}-bit history)")
