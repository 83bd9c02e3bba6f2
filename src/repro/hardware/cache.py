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

The production automaton is native: when ``_cachesim.c`` is loaded a
:class:`Cache` holds a C state object and delegates to it, and the Python
loops in this module are the reference it was transcribed from (see the
class docstring for the ownership rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .native import load_native, stats_view
from .specs import CacheSpec

#: The compiled ``_cachesim`` module or ``None``: the one switch every
#: hardware automaton (:class:`Cache`, ``TLB``, ``BranchPredictor``) and the
#: processor read *at construction* to decide who owns their state.  The
#: transitions are transcriptions of the pure-Python ones, asserted
#: identical by ``tests/test_native_cache.py`` and
#: ``tests/test_native_charging.py``, so with or without it every hit/miss
#: count, LRU ordering and write-back is the same; only the simulator's
#: wall-clock changes.  ``REPRO_NATIVE=0`` leaves it ``None``; tests hide it
#: to build a pure-Python oracle.
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
        without probing)."""
        self.accesses[port] += accesses
        if misses:
            self.misses[port] += misses

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Commutatively fold ``other``'s counts into this instance.

        Every field is a sum, so merging worker-local statistics in any
        order yields the same totals -- the property the morsel-parallel
        subsystem relies on when it combines per-worker hardware state
        (``tests/test_parallel_execution.py`` asserts it under random
        permutations).  Returns ``self`` for chaining.
        """
        for port in range(len(self.accesses)):
            self.accesses[port] += other.accesses[port]
            self.misses[port] += other.misses[port]
        self.writebacks += other.writebacks
        self.invalidations += other.invalidations
        return self

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


class _NativeCacheStats(stats_view(CacheStats)):
    """:attr:`Cache.stats` of a natively built level: a view of the counts
    its ``_cachesim.CacheState`` keeps (see :func:`.native.stats_view`)."""

    def add_bulk(self, port: int, accesses: int, misses: int = 0) -> None:
        for name, count in (("accesses", accesses), ("misses", misses)):
            ports = list(getattr(self, name))
            ports[port] += count
            setattr(self, name, ports)


class Cache:
    """A single level of set-associative, LRU, optionally write-back cache.

    The state and the statistics have exactly one owner, decided here at
    construction and never mixed afterwards.  With the native module loaded
    it is a ``_cachesim.CacheState`` (flat tag array, MRU first within a
    set; a dirty byte per way; a fill count per set; a pointer to the next
    level's state; the per-port counts) held in :attr:`_native`: every
    method delegates to it and :attr:`stats` is a view of its counts.
    Without it this class *is* the automaton: each set is a small list of
    line numbers ordered from most- to least-recently used, with the dirty
    lines of a set in a parallel ``set`` -- the reference the native
    transitions are transcribed from, the oracle of the differential tests
    and the fallback on a machine without a C toolchain.  :meth:`snapshot`
    returns the same canonical shape on both sides and is the only surface
    the two are compared through.
    """

    __slots__ = ("spec", "name", "_sets", "_dirty", "_native", "_line_shift",
                 "_set_mask", "stats", "next_level", "_assoc", "_write_back")

    def __init__(self, spec: CacheSpec, next_level: Optional["Cache"] = None) -> None:
        self.spec = spec
        self.name = spec.name
        self.next_level = next_level
        self._line_shift = spec.line_bytes.bit_length() - 1
        self._set_mask = spec.num_sets - 1
        self._assoc = spec.associativity
        self._write_back = spec.write_back
        native = _NATIVE
        if next_level is not None and (next_level._native is None) != (native is None):
            raise ValueError(f"{spec.name}: native and pure-Python cache levels "
                             "cannot be chained")
        if native is not None:
            # ``_sets``/``_dirty`` stay unset: the C side owns the state.
            self._native = native.CacheState(
                spec.num_sets, self._assoc, self._line_shift, self._write_back,
                next_level._native if next_level is not None else None)
            self.stats = _NativeCacheStats(self._native)
        else:
            self._native = None
            self.stats = CacheStats()
            # Each set: list of line numbers, index 0 == MRU.
            self._sets: List[List[int]] = [[] for _ in range(spec.num_sets)]
            # Dirty lines per set (write-back bookkeeping).
            self._dirty: List[set] = [set() for _ in range(spec.num_sets)]

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
        return self.access_strided(addr, 0, 1, size, port, write)

    def access_line(self, line_addr: int, port: int, write: bool = False) -> int:
        """Access a single, already line-aligned address."""
        if self._native is not None:
            return self._native.lines(line_addr, 0, 1, port, write)
        return self._access_line(line_addr >> self._line_shift, port, write)

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
        if count <= 0:
            return 0
        if self._native is not None:
            return self._native.strided(addr, stride, count, size, port, write)
        shift = self._line_shift
        span = max(size, 1) - 1
        misses = 0
        element = addr
        for _ in range(count):
            for line in range(element >> shift, ((element + span) >> shift) + 1):
                misses += self._access_line(line, port, write)
            element += stride
        return misses

    def access_lines(self, line_addresses: Iterable[int], port: int,
                     write: bool = False) -> int:
        """Bulk access to already line-aligned addresses (code-path fetches).

        Equivalent to calling :meth:`access_line` per address in order.
        """
        if self._native is not None and type(line_addresses) is range:
            return self._native.lines(line_addresses.start, line_addresses.step,
                                      len(line_addresses), port, write)
        return sum(self.access_line(line_addr, port, write)
                   for line_addr in line_addresses)

    # ------------------------------------------------- reference automaton
    def _access_line(self, line_number: int, port: int, write: bool) -> int:
        """One line touch of the pure-Python automaton; returns 1 on a miss.

        The full line number is kept as the tag (the set bits are redundant
        but harmless).  ``_cachesim.c`` transcribes this function.
        """
        stats = self.stats
        stats.accesses[port] += 1
        set_index = line_number & self._set_mask
        ways = self._sets[set_index]
        if line_number in ways:
            # Hit: move to MRU position.
            if ways[0] != line_number:
                ways.remove(line_number)
                ways.insert(0, line_number)
            if write:
                self._dirty[set_index].add(line_number)
            return 0
        stats.misses[port] += 1
        next_level = self.next_level
        if next_level is not None:
            # Fill request: a read regardless of the original direction
            # (write-allocate); instruction fills keep the instruction port
            # so the unified L2 separates TL2D from TL2I.
            next_level._access_line(
                line_number,
                PORT_INSTRUCTION if port == PORT_INSTRUCTION else PORT_DATA_READ,
                False)
        # Victim selection, write-back bookkeeping, fill.
        if len(ways) >= self._assoc:
            victim = ways.pop()
            dirty_set = self._dirty[set_index]
            if victim in dirty_set:
                dirty_set.discard(victim)
                stats.writebacks += 1
                if next_level is not None:
                    # The write-back installs the line in the next level.
                    next_level._access_line(victim, PORT_DATA_WRITE, True)
        ways.insert(0, line_number)
        if write:
            if self._write_back:
                self._dirty[set_index].add(line_number)
            elif next_level is not None:
                # Write-through: the write is also forwarded (counted as
                # traffic only; latency is hidden by the write buffer).
                next_level._access_line(line_number, PORT_DATA_WRITE, True)
        return 1

    # ------------------------------------------------------------ contents
    def snapshot(self) -> Tuple[List[List[int]], List[set]]:
        """``(sets, dirty)``: per set the resident line numbers, most
        recently used first, and the set of dirty ones.  A copy in the
        canonical (pure-Python) shape whichever side owns the state."""
        if self._native is not None:
            return self._native.snapshot()
        return ([list(ways) for ways in self._sets],
                [set(dirty) for dirty in self._dirty])

    def contains(self, addr: int) -> bool:
        """True when the line containing ``addr`` is resident."""
        if self._native is not None:
            return self._native.contains(addr)
        line_number = addr >> self._line_shift
        return line_number in self._sets[line_number & self._set_mask]

    def resident_lines(self) -> int:
        """Number of lines currently resident (useful in tests)."""
        if self._native is not None:
            return self._native.resident_lines()
        return sum(len(ways) for ways in self._sets)

    def invalidate_all(self) -> int:
        """Invalidate every line; returns the number of lines dropped."""
        if self._native is not None:
            return self._native.invalidate_all()  # counts its invalidations
        dropped = self.resident_lines()
        for ways in self._sets:
            ways.clear()
        for dirty in self._dirty:
            dirty.clear()
        self.stats.invalidations += dropped
        return dropped

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
        if fraction <= 0.0:
            return 0
        if fraction >= 1.0:
            return self.invalidate_all()
        if self._native is not None:
            return self._native.invalidate_fraction(fraction)
        dropped = 0
        for ways, dirty in zip(self._sets, self._dirty):
            if not ways:
                continue
            keep = int(round(len(ways) * (1.0 - fraction)))
            victims = ways[keep:]
            del ways[keep:]
            dirty.difference_update(victims)
            dropped += len(victims)
        self.stats.invalidations += dropped
        return dropped

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
        if self._native is not None:
            self.stats.reset()
        else:
            self.stats = CacheStats()

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
