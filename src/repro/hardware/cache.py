"""Set-associative cache model.

The caches are *trace driven*: the execution engine presents the addresses it
touches (relation data, index nodes, private working structures, instruction
cache lines) and the cache records hits and misses.  Timing is not simulated
cycle-by-cycle; instead the breakdown layer multiplies miss counts by the
penalty constants of the paper's Table 4.2, exactly as the paper does for the
components it could not measure directly.

The model implements:

* configurable size / line size / associativity (Table 4.1 geometries),
* true LRU replacement within a set,
* split statistics per *port* (data read, data write, instruction fetch) so
  that the unified L2 can report data misses and instruction misses
  separately (``TL2D`` vs ``TL2I``),
* write-back dirty-line accounting (write-backs contribute to bandwidth, not
  latency, matching the latency-bound observation of Section 5.2.1),
* selective invalidation, used by the OS-interference model to evict
  instruction lines on simulated context switches,
* *span-charging* entry points for the vectorized engine's columnar
  dataflow: :meth:`Cache.access_strided` / :meth:`Cache.access_lines` take
  a whole column-vector (or code-path) touch as one bulk operation.  They
  are *count-identical* to issuing the element accesses one at a time, in
  ascending address order (the differential harness in
  ``tests/test_vectorized_equivalence.py`` asserts this on every plan
  shape); they only remove simulator overhead, never modelled events.

The automaton is native: a :class:`Cache` owns a ``_cachesim.CacheState``
and every method is a call into it (see the class docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .native import load_native, stats_view
from .specs import CacheSpec

#: The compiled ``_cachesim`` module: every hardware automaton
#: (:class:`Cache`, ``TLB``, ``BranchPredictor``) and the processor's
#: charging block build their state from what this attribute holds *at
#: construction* (an execution context builds on its processor's block).
#: It is the one substitution point: the
#: test suite's reference machine (``tests/reference_machine.py``, the same
#: surface in pure Python) is swapped in here to build an oracle, and must
#: produce every hit/miss count, LRU ordering and write-back this module does.
_NATIVE = load_native()

#: Access port identifiers.  They index the statistics arrays.
PORT_DATA_READ = 0
PORT_DATA_WRITE = 1
PORT_INSTRUCTION = 2

PORT_NAMES = ("data_read", "data_write", "instruction")


@dataclass
class CacheStats:
    """Aggregate statistics for one cache instance."""

    accesses: List[int] = field(default_factory=lambda: [0, 0, 0])
    misses: List[int] = field(default_factory=lambda: [0, 0, 0])
    writebacks: int = 0
    invalidations: int = 0

    # -- convenience views -------------------------------------------------
    @property
    def total_accesses(self) -> int:
        return sum(self.accesses)

    @property
    def total_misses(self) -> int:
        return sum(self.misses)

    @property
    def data_accesses(self) -> int:
        return self.accesses[PORT_DATA_READ] + self.accesses[PORT_DATA_WRITE]

    @property
    def data_misses(self) -> int:
        return self.misses[PORT_DATA_READ] + self.misses[PORT_DATA_WRITE]

    @property
    def instruction_accesses(self) -> int:
        return self.accesses[PORT_INSTRUCTION]

    @property
    def instruction_misses(self) -> int:
        return self.misses[PORT_INSTRUCTION]

    def add_bulk(self, port: int, accesses: int, misses: int = 0) -> None:
        """Fold a batch of accesses/misses into one counter update (element
        loads that are line hits by construction are accounted this way,
        without probing).  Each per-port field is assigned whole, so the
        update lands in C through a view."""
        for name, count in (("accesses", accesses), ("misses", misses)):
            ports = list(getattr(self, name))
            ports[port] += count
            setattr(self, name, ports)

    def miss_rate(self, port: Optional[int] = None) -> float:
        """Miss ratio overall or for a specific port (0.0 when unused)."""
        if port is None:
            acc, mis = self.total_accesses, self.total_misses
        else:
            acc, mis = self.accesses[port], self.misses[port]
        return mis / acc if acc else 0.0

    def data_miss_rate(self) -> float:
        return self.data_misses / self.data_accesses if self.data_accesses else 0.0

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "accesses": self.total_accesses,
            "misses": self.total_misses,
            "writebacks": self.writebacks,
            "invalidations": self.invalidations,
            "miss_rate": self.miss_rate(),
        }
        for port, name in enumerate(PORT_NAMES):
            out[f"{name}_accesses"] = self.accesses[port]
            out[f"{name}_misses"] = self.misses[port]
        return out


#: :attr:`Cache.stats`: a view of the counts its ``_cachesim.CacheState``
#: keeps (see :func:`.native.stats_view`).
_NativeCacheStats = stats_view(CacheStats)


class Cache:
    """A single level of set-associative, LRU, optionally write-back cache.

    The state and the statistics have exactly one owner: the
    ``_cachesim.CacheState`` in :attr:`_native` (flat tag array, MRU first
    within a set; a dirty byte per way; a fill count per set; a pointer to
    the next level's state; the per-port counts).  Every method is a call
    into it and :attr:`stats` is a view of its counts.  :meth:`snapshot`
    returns its contents in canonical Python shapes, the surface the
    reference machine is compared through.
    """

    __slots__ = ("spec", "name", "_native", "_line_shift", "stats", "next_level")

    def __init__(self, spec: CacheSpec, next_level: Optional["Cache"] = None) -> None:
        self.spec = spec
        self.name = spec.name
        self.next_level = next_level
        self._line_shift = spec.line_bytes.bit_length() - 1
        self._native = _NATIVE.CacheState(
            spec.num_sets, spec.associativity, self._line_shift, spec.write_back,
            next_level._native if next_level is not None else None)
        self.stats = _NativeCacheStats(self._native)

    # ------------------------------------------------------------------ API
    def line_address(self, addr: int) -> int:
        """Return the line-aligned address containing ``addr``."""
        return (addr >> self._line_shift) << self._line_shift

    def lines_spanned(self, addr: int, size: int) -> range:
        """Return the line numbers touched by an access of ``size`` bytes."""
        first = addr >> self._line_shift
        last = (addr + max(size, 1) - 1) >> self._line_shift
        return range(first, last + 1)

    def access(self, addr: int, port: int, size: int = 1, write: bool = False) -> int:
        """Access ``size`` bytes at ``addr`` through ``port``.

        Returns the number of misses incurred *at this level* (an access can
        straddle a line boundary and therefore miss more than once).  Misses
        are automatically forwarded to :attr:`next_level` when one is
        attached, so a single call on the L1 drives the whole hierarchy.
        """
        return self._native.strided(addr, 0, 1, size, port, write)

    def access_line(self, line_addr: int, port: int, write: bool = False) -> int:
        """Access a single, already line-aligned address."""
        return self._native.lines(line_addr, 0, 1, port, write)

    def access_strided(self, addr: int, stride: int, count: int, size: int,
                       port: int, write: bool = False) -> int:
        """Bulk access to ``count`` elements of ``size`` bytes, ``stride``
        bytes apart, starting at ``addr`` (the span-charging entry point).

        Exactly the hit/miss counts, LRU evolution, write-back and
        next-level traffic of calling :meth:`access` once per element in
        ascending order -- contiguous column vectors are the ``stride ==
        size`` special case, NSM field strides and workspace churn use wider
        strides.
        """
        return self._native.strided(addr, stride, count, size, port, write)

    def access_lines(self, line_addresses: Iterable[int], port: int,
                     write: bool = False) -> int:
        """Bulk access to already line-aligned addresses (code-path fetches).

        Equivalent to calling :meth:`access_line` per address in order; a
        ``range`` is one call.
        """
        lines = self._native.lines
        if type(line_addresses) is range:
            return lines(line_addresses.start, line_addresses.step,
                         len(line_addresses), port, write)
        return sum(lines(line_addr, 0, 1, port, write) for line_addr in line_addresses)

    # ------------------------------------------------------------ contents
    def snapshot(self) -> Tuple[List[List[int]], List[set]]:
        """``(sets, dirty)``: per set the resident line numbers, most
        recently used first, and the set of dirty ones (a copy)."""
        return self._native.snapshot()

    def contains(self, addr: int) -> bool:
        """True when the line containing ``addr`` is resident."""
        return self._native.contains(addr)

    def resident_lines(self) -> int:
        """Number of lines currently resident (useful in tests)."""
        return self._native.resident_lines()

    def invalidate_all(self) -> int:
        """Invalidate every line; returns (and counts) the lines dropped."""
        return self._native.invalidate_all()

    def invalidate_fraction(self, fraction: float) -> int:
        """Invalidate roughly ``fraction`` of resident lines.

        Used by the OS-interference model to approximate the instruction
        cache pollution caused by a context switch: the interrupt handler and
        the scheduler evict a portion of the DBMS's instruction lines, which
        must then be re-fetched (Section 5.2.2).  Each set keeps its
        ``round(n * (1 - fraction))`` most recently used lines; ``round`` is
        half-to-even, so at ``fraction = 0.5`` a 1-line set keeps none and a
        3-line set keeps two.
        """
        return self._native.invalidate_fraction(fraction)

    def warm(self, addresses: Iterable[int], port: int = PORT_DATA_READ) -> None:
        """Pre-load lines without counting statistics (cache warm-up).

        The paper warms the caches with multiple runs of each query before
        measuring; warm-up through this method (or by discarding the counters
        of a priming run) reproduces that methodology.
        """
        saved_acc = list(self.stats.accesses)
        saved_miss = list(self.stats.misses)
        saved_wb = self.stats.writebacks
        next_saved = None
        if self.next_level is not None:
            next_saved = (list(self.next_level.stats.accesses),
                          list(self.next_level.stats.misses),
                          self.next_level.stats.writebacks)
        for addr in addresses:
            self.access(addr, port)
        self.stats.accesses = saved_acc
        self.stats.misses = saved_miss
        self.stats.writebacks = saved_wb
        if self.next_level is not None and next_saved is not None:
            self.next_level.stats.accesses, self.next_level.stats.misses, \
                self.next_level.stats.writebacks = next_saved

    def reset_stats(self) -> None:
        self.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"Cache({self.name}, {self.spec.size_bytes // 1024}KB, "
                f"{self.spec.associativity}-way, {self.spec.line_bytes}B lines)")


@dataclass
class HierarchyStats:
    """Snapshot of the statistics of every level plus derived quantities."""

    l1d: Dict[str, float]
    l1i: Dict[str, float]
    l2: Dict[str, float]

    @property
    def l1d_misses(self) -> int:
        return int(self.l1d["misses"])

    @property
    def l1i_misses(self) -> int:
        return int(self.l1i["misses"])

    @property
    def l2_data_misses(self) -> int:
        return int(self.l2["data_read_misses"] + self.l2["data_write_misses"])

    @property
    def l2_instruction_misses(self) -> int:
        return int(self.l2["instruction_misses"])


class CacheHierarchy:
    """The split-L1 / unified-L2 hierarchy of Table 4.1.

    Data accesses go through the L1 D-cache, instruction fetches through the
    L1 I-cache, and misses from either are forwarded to the shared L2 which
    keeps per-port statistics so that data and instruction misses can be
    reported separately (they carry different stall components in the
    paper's framework).
    """

    def __init__(self, l1d_spec: CacheSpec, l1i_spec: CacheSpec, l2_spec: CacheSpec) -> None:
        self.l2 = Cache(l2_spec)
        self.l1d = Cache(l1d_spec, next_level=self.l2)
        self.l1i = Cache(l1i_spec, next_level=self.l2)

    # Data side -----------------------------------------------------------
    def read(self, addr: int, size: int = 4) -> int:
        """Data read; returns number of L1D misses incurred."""
        return self.l1d.access(addr, PORT_DATA_READ, size=size, write=False)

    def write(self, addr: int, size: int = 4) -> int:
        """Data write; returns number of L1D misses incurred."""
        return self.l1d.access(addr, PORT_DATA_WRITE, size=size, write=True)

    def read_strided(self, addr: int, stride: int, count: int, size: int) -> int:
        """Bulk data read of ``count`` ``size``-byte elements ``stride`` apart.

        Count-identical to ``count`` individual :meth:`read` calls in
        ascending order; this is the data side of the span-charging fast
        path (contiguous column vectors use ``stride == size``).
        """
        return self.l1d.access_strided(addr, stride, count, size, PORT_DATA_READ)

    def write_strided(self, addr: int, stride: int, count: int, size: int) -> int:
        """Bulk data write of ``count`` ``size``-byte elements ``stride`` apart.

        Count-identical to ``count`` individual :meth:`write` calls in
        ascending order; the store-side twin of :meth:`read_strided` (page
        flushes write whole line runs through this).
        """
        return self.l1d.access_strided(addr, stride, count, size, PORT_DATA_WRITE,
                                       write=True)

    # Instruction side ------------------------------------------------------
    def fetch(self, line_addr: int) -> int:
        """Instruction fetch of one line; returns 1 on an L1I miss else 0."""
        return self.l1i.access_line(line_addr, PORT_INSTRUCTION)

    def fetch_lines(self, line_addresses: Iterable[int]) -> int:
        """Bulk instruction fetch; count-identical to per-line :meth:`fetch`."""
        return self.l1i.access_lines(line_addresses, PORT_INSTRUCTION)

    # Statistics ------------------------------------------------------------
    def snapshot(self) -> HierarchyStats:
        return HierarchyStats(
            l1d=self.l1d.stats.as_dict(),
            l1i=self.l1i.stats.as_dict(),
            l2=self.l2.stats.as_dict(),
        )

    def reset_stats(self) -> None:
        self.l1d.reset_stats()
        self.l1i.reset_stats()
        self.l2.reset_stats()
