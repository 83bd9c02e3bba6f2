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
with the static rule as fallback on BTB misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import cache as _cache  # home of the one ``_NATIVE`` switch
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

    def merge(self, other: "BranchStats") -> "BranchStats":
        """Commutatively fold ``other``'s counts into this instance (sums
        only, so merge order cannot matter).  Returns ``self``."""
        self.branches += other.branches
        self.taken += other.taken
        self.mispredictions += other.mispredictions
        self.btb_hits += other.btb_hits
        self.btb_misses += other.btb_misses
        return self

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


class _BTBEntry:
    """One BTB entry: branch history register + pattern table of 2-bit counters."""

    __slots__ = ("tag", "history", "counters")

    def __init__(self, tag: int, history_bits: int) -> None:
        self.tag = tag
        self.history = 0
        # Pattern table: 2-bit saturating counters, initialised weakly taken.
        self.counters = [2] * (1 << history_bits)

    def predict(self) -> bool:
        return self.counters[self.history] >= 2

    def update(self, taken: bool, history_mask: int) -> None:
        counter = self.counters[self.history]
        if taken:
            if counter < 3:
                self.counters[self.history] = counter + 1
        else:
            if counter > 0:
                self.counters[self.history] = counter - 1
        self.history = ((self.history << 1) | (1 if taken else 0)) & history_mask


#: :attr:`BranchPredictor.stats` of a natively built predictor: a view of
#: the five counts its ``_cachesim.BTBState`` keeps.
_NativeBranchStats = stats_view(BranchStats)


class BranchPredictor:
    """Two-level adaptive predictor behind a set-associative BTB.

    The state and the statistics have one owner, decided at construction
    (``repro.hardware.cache._NATIVE``): a ``_cachesim.BTBState`` (per way a
    tag, a history register and a pattern table of two-bit counters; per
    set an MRU order; the five counts) in :attr:`_native` when the native
    module is loaded, :attr:`stats` being a view of it; otherwise per-set
    lists of :class:`_BTBEntry` and a plain :class:`BranchStats` -- the
    reference the native transitions are transcribed from.
    :meth:`snapshot` is the comparison surface between the two.
    """

    __slots__ = ("spec", "_sets", "_native", "_set_mask", "_history_mask", "stats")

    def __init__(self, spec: BranchSpec) -> None:
        self.spec = spec
        self._set_mask = spec.btb_sets - 1
        self._history_mask = (1 << spec.history_bits) - 1
        native = _cache._NATIVE
        if native is not None:
            # ``_sets`` stays unset: the C side owns the state.
            self._native = native.BTBState(
                spec.btb_sets, spec.btb_associativity, spec.history_bits,
                spec.static_backward_taken)
            self.stats = _NativeBranchStats(self._native)
        else:
            self._native = None
            # Each set is a list of entries ordered MRU first.
            self._sets: List[List[_BTBEntry]] = [[] for _ in range(spec.btb_sets)]
            self.stats = BranchStats()

    # ------------------------------------------------------------------ API
    def execute(self, site_addr: int, taken: bool, backward: bool = False) -> bool:
        """Execute one dynamic branch at ``site_addr``.

        Parameters
        ----------
        site_addr:
            The (simulated) address of the branch instruction.  Branches at
            the same address share prediction state, which is what produces
            the data-dependent misprediction behaviour of the selection
            predicate as selectivity varies.
        taken:
            The actual outcome.
        backward:
            Whether the branch target lies at a lower address (loop-closing
            branches).  Only used by the static fallback prediction.

        Returns
        -------
        bool
            ``True`` when the branch was mispredicted.
        """
        if self._native is not None:
            return self._native.execute(site_addr, taken, backward)
        stats = self.stats
        stats.branches += 1
        if taken:
            stats.taken += 1

        site = site_addr >> 4  # branches are sparse; drop low bits for indexing
        set_index = site & self._set_mask
        tag = site >> 0
        ways = self._sets[set_index]

        entry: Optional[_BTBEntry] = None
        for candidate in ways:
            if candidate.tag == tag:
                entry = candidate
                break

        if entry is not None:
            stats.btb_hits += 1
            prediction = entry.predict()
            if ways[0] is not entry:
                ways.remove(entry)
                ways.insert(0, entry)
            entry.update(taken, self._history_mask)
        else:
            stats.btb_misses += 1
            # Static prediction: backward taken, forward not taken.
            prediction = backward if self.spec.static_backward_taken else False
            # Allocate an entry for (only) taken branches, as real BTBs do --
            # not-taken branches that never hit in the BTB keep falling back
            # to static prediction, which is one of the reasons the measured
            # BTB miss ratio stays near 50%.
            if taken:
                entry = _BTBEntry(tag, self.spec.history_bits)
                entry.update(taken, self._history_mask)
                ways.insert(0, entry)
                if len(ways) > self.spec.btb_associativity:
                    ways.pop()

        mispredicted = prediction != taken
        if mispredicted:
            stats.mispredictions += 1
        return mispredicted

    # -------------------------------------------------------------- helpers
    def snapshot(self) -> List[List[Tuple[int, int, Tuple[int, ...]]]]:
        """Per set, most recently used first: ``(tag, history, counters)``."""
        if self._native is not None:
            return self._native.snapshot()
        return [[(entry.tag, entry.history, tuple(entry.counters))
                 for entry in ways] for ways in self._sets]

    def resident_entries(self) -> int:
        if self._native is not None:
            return self._native.resident_entries()
        return sum(len(ways) for ways in self._sets)

    def flush(self) -> None:
        """Clear all prediction state (used between unrelated experiments)."""
        if self._native is not None:
            self._native.flush()
            return
        for ways in self._sets:
            ways.clear()

    def reset_stats(self) -> None:
        if self._native is not None:
            self.stats.reset()
        else:
            self.stats = BranchStats()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"BranchPredictor(BTB {self.spec.btb_entries} entries, "
                f"{self.spec.btb_associativity}-way, {self.spec.history_bits}-bit history)")
