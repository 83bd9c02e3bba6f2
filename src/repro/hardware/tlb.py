"""Translation lookaside buffer models.

The paper tracks two TLB-related stall components (Table 3.1):

* ``TITLB`` -- instruction TLB misses, charged at 32 cycles each (Table 4.2).
  The measured values are tiny because the DBMSs use few instruction pages.
* ``TDTLB`` -- data TLB misses.  The authors could not measure this component
  ("the event code is not available"), so the breakdown layer mirrors that by
  excluding it from ``TM`` by default while the simulator still tracks it for
  completeness.

Both TLBs are modelled as LRU-replacement page caches; the ITLB is fully
associative (32 entries) and the DTLB has 64 entries, matching the Pentium II.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List

from . import cache as _cache  # home of the one ``_NATIVE`` switch
from .native import stats_view
from .specs import TLBSpec


@dataclass
class TLBStats:
    """Hit/miss statistics for one TLB."""

    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "TLBStats") -> "TLBStats":
        """Commutatively fold ``other``'s counts into this instance (sums
        only, so merge order cannot matter).  Returns ``self``."""
        self.accesses += other.accesses
        self.misses += other.misses
        return self

    def as_dict(self) -> dict:
        return {"accesses": self.accesses, "misses": self.misses, "miss_rate": self.miss_rate}


#: :attr:`TLB.stats` of a natively built TLB: a view of the two counts its
#: ``_cachesim.TLBState`` keeps.
_NativeTLBStats = stats_view(TLBStats)


class TLB:
    """A fully-associative LRU TLB.

    The Pentium II's TLBs are small enough that full associativity with true
    LRU is an accurate and cheap model.  The state and the statistics have
    one owner, decided at construction (``repro.hardware.cache._NATIVE``): a
    ``_cachesim.TLBState`` (an MRU-ordered page array and its two counts) in
    :attr:`_native` when the native module is loaded, :attr:`stats` being a
    view of it; otherwise an :class:`collections.OrderedDict` and a plain
    :class:`TLBStats` -- the reference the native transitions are
    transcribed from.  :meth:`snapshot` is the comparison surface between
    the two.
    """

    __slots__ = ("spec", "_page_shift", "_entries", "_native", "stats")

    def __init__(self, spec: TLBSpec) -> None:
        self.spec = spec
        self._page_shift = spec.page_bytes.bit_length() - 1
        native = _cache._NATIVE
        if native is not None:
            # ``_entries`` stays unset: the C side owns the state.
            self._native = native.TLBState(spec.entries, self._page_shift)
            self.stats = _NativeTLBStats(self._native)
        else:
            self._native = None
            self._entries: OrderedDict[int, None] = OrderedDict()
            self.stats = TLBStats()

    def page_number(self, addr: int) -> int:
        return addr >> self._page_shift

    def access(self, addr: int) -> int:
        """Translate ``addr``; returns 1 on a TLB miss, 0 on a hit."""
        return self.access_bulk(addr, 1)

    def access_bulk(self, addr: int, count: int) -> int:
        """Translate ``count`` same-page accesses starting at ``addr`` in bulk.

        Span charging issues one call per page a vector touches instead of
        one per element.  The statistics and the LRU state end up exactly as
        if :meth:`access` had been called ``count`` times with addresses
        inside the page: ``count`` accesses, at most one miss, and the page
        left in the MRU position.
        """
        if count <= 0:
            return 0
        if self._native is not None:
            return self._native.access(addr, count)
        self.stats.accesses += count
        miss = self._touch(addr >> self._page_shift)
        self.stats.misses += miss
        return miss

    def _touch(self, page: int) -> int:
        """One transition of the pure-Python automaton; 1 on a miss."""
        entries = self._entries
        if page in entries:
            entries.move_to_end(page)
            return 0
        entries[page] = None
        if len(entries) > self.spec.entries:
            entries.popitem(last=False)
        return 1

    def snapshot(self) -> List[int]:
        """Resident page numbers, least recently used first."""
        if self._native is not None:
            return self._native.snapshot()
        return list(self._entries)

    def contains(self, addr: int) -> bool:
        if self._native is not None:
            return self._native.contains(addr)
        return (addr >> self._page_shift) in self._entries

    def resident_pages(self) -> int:
        if self._native is not None:
            return self._native.resident_pages()
        return len(self._entries)

    def flush(self) -> int:
        """Drop every translation (e.g. on a simulated context switch)."""
        if self._native is not None:
            return self._native.flush()
        dropped = len(self._entries)
        self._entries.clear()
        return dropped

    def reset_stats(self) -> None:
        if self._native is not None:
            self.stats.reset()
        else:
            self.stats = TLBStats()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TLB({self.spec.name}, {self.spec.entries} entries, {self.spec.page_bytes}B pages)"
