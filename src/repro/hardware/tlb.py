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
A :class:`TLB` owns a ``_cachesim.TLBState`` and every method is a call into
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from . import cache as _cache  # home of ``_NATIVE``, read at construction
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

    def as_dict(self) -> dict:
        return {"accesses": self.accesses, "misses": self.misses, "miss_rate": self.miss_rate}


#: :attr:`TLB.stats`: a view of the two counts its
#: ``_cachesim.TLBState`` keeps.
_NativeTLBStats = stats_view(TLBStats)


class TLB:
    """A fully-associative LRU TLB.

    The Pentium II's TLBs are small enough that full associativity with true
    LRU is an accurate and cheap model.  The state and the statistics have
    one owner: the ``_cachesim.TLBState`` in :attr:`_native` (an MRU-ordered
    page array and its two counts), :attr:`stats` being a view of it.
    :meth:`snapshot` is the surface the reference machine is compared
    through.
    """

    __slots__ = ("spec", "_page_shift", "_native", "stats")

    def __init__(self, spec: TLBSpec) -> None:
        self.spec = spec
        self._page_shift = spec.page_bytes.bit_length() - 1
        self._native = _cache._NATIVE.TLBState(spec.entries, self._page_shift)
        self.stats = _NativeTLBStats(self._native)

    def page_number(self, addr: int) -> int:
        return addr >> self._page_shift

    def access(self, addr: int) -> int:
        """Translate ``addr``; returns 1 on a TLB miss, 0 on a hit."""
        return self._native.access(addr, 1)

    def snapshot(self) -> List[int]:
        """Resident page numbers, least recently used first."""
        return self._native.snapshot()

    def contains(self, addr: int) -> bool:
        return self._native.contains(addr)

    def resident_pages(self) -> int:
        return self._native.resident_pages()

    def flush(self) -> int:
        """Drop every translation (e.g. on a simulated context switch)."""
        return self._native.flush()

    def reset_stats(self) -> None:
        self.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TLB({self.spec.name}, {self.spec.entries} entries, {self.spec.page_bytes}B pages)"
