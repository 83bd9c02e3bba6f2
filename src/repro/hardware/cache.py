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
* a *span-charging fast path* for the vectorized engine's columnar
  dataflow: :meth:`Cache.access_strided` / :meth:`Cache.access_lines` charge
  a whole column-vector (or code-path) touch as one bulk operation -- the
  per-set LRU updates still happen line by line, in ascending address
  order, but the hit bookkeeping and the :class:`CacheStats` counters are
  applied once per call (:meth:`CacheStats.add_bulk`) instead of once per
  address.  The bulk paths are *count-identical* to issuing the element
  accesses one at a time (the differential harness in
  ``tests/test_vectorized_equivalence.py`` asserts this on every plan
  shape); they only remove simulator overhead, never modelled events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .native import load_native
from .specs import CacheSpec

#: Compiled cache-automaton fast path (``_cachesim.c``) or ``None``.  The
#: native module manipulates the same per-set lists and dirty sets as the
#: pure-Python loops below -- state transitions are identical by
#: construction and asserted by ``tests/test_native_cache.py`` -- so with
#: or without it every hit/miss count, LRU ordering and write-back is the
#: same; only the simulator's wall-clock changes.  Set ``REPRO_NATIVE=0``
#: to force the pure-Python oracle.
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
        """Fold a batch of accesses/misses into one counter update.

        The span-charging fast path accumulates its per-line outcomes in
        local variables and applies them here once per bulk call, which is
        where most of the simulator-side win over per-address probing comes
        from.
        """
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


class Cache:
    """A single level of set-associative, LRU, optionally write-back cache.

    The implementation favours simulation throughput: each set is a small
    Python list of tags ordered from most- to least-recently used, and dirty
    bits live in a parallel per-set dictionary.  For the geometries in this
    study (4-way) the per-access work is a handful of list operations.
    """

    __slots__ = ("spec", "name", "_sets", "_dirty", "_line_shift", "_set_mask", "stats",
                 "next_level", "_assoc", "_write_back", "_nargs")

    def __init__(self, spec: CacheSpec, next_level: Optional["Cache"] = None) -> None:
        self.spec = spec
        self.name = spec.name
        self.next_level = next_level
        self._line_shift = spec.line_bytes.bit_length() - 1
        self._set_mask = spec.num_sets - 1
        self._assoc = spec.associativity
        self._write_back = spec.write_back
        # Each set: list of tags, index 0 == MRU.
        self._sets: List[List[int]] = [[] for _ in range(spec.num_sets)]
        # Dirty tags per set (write-back bookkeeping).
        self._dirty: List[set] = [set() for _ in range(spec.num_sets)]
        self.stats = CacheStats()
        # Prebuilt argument block for the native automaton: the lists are
        # mutated in place everywhere (never rebound), so this stays valid
        # for the cache's lifetime.
        self._nargs = (self._sets, self._dirty, self._set_mask, self._assoc,
                       1 if self._write_back else 0)

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
        if _NATIVE is not None:
            next_level = self.next_level
            deltas = _NATIVE.strided(
                self._nargs, next_level._nargs if next_level is not None else None,
                self._line_shift, addr, 0, 1, size, port, 1 if write else 0)
            return self._apply_native(deltas, port, next_level)
        misses = 0
        for line in self.lines_spanned(addr, size):
            misses += self._access_line(line, port, write)
        return misses

    def access_line(self, line_addr: int, port: int, write: bool = False) -> int:
        """Access a single, already line-aligned address (fast path)."""
        return self._access_line(line_addr >> self._line_shift, port, write)

    def access_span(self, addr: int, size: int, port: int,
                    refs: Optional[int] = None, write: bool = False) -> int:
        """Streaming access to a contiguous ``size``-byte span (batch path).

        A vectorized executor reads a column batch as one tight loop of
        element loads over a contiguous buffer.  ``refs`` is the number of
        element accesses the loop issues (defaults to one per cache line);
        the accesses land sequentially, so each line is looked up once and
        the remaining ``refs - lines`` accesses are line hits by
        construction.  When the element geometry is known, prefer
        :meth:`access_strided` (with ``stride == size_per_element``), which
        is additionally *count-identical* to the per-address loop even for
        elements that straddle line boundaries.
        """
        first = addr >> self._line_shift
        last = (addr + max(size, 1) - 1) >> self._line_shift
        n_lines = last - first + 1
        misses = self._walk_lines(first, last, port, write)
        self.stats.add_bulk(port, max(refs or 0, n_lines), misses)
        return misses

    def access_strided(self, addr: int, stride: int, count: int, size: int,
                       port: int, write: bool = False) -> int:
        """Bulk access to ``count`` elements of ``size`` bytes, ``stride``
        bytes apart, starting at ``addr`` (the span-charging fast path).

        Produces exactly the hit/miss counts, LRU evolution, write-back and
        next-level traffic of calling :meth:`access` once per element in
        ascending order -- contiguous column vectors are the ``stride ==
        size`` special case, NSM field strides and workspace churn use wider
        strides -- while updating the statistics once per call.
        """
        if count <= 0:
            return 0
        if _NATIVE is not None:
            next_level = self.next_level
            deltas = _NATIVE.strided(
                self._nargs, next_level._nargs if next_level is not None else None,
                self._line_shift, addr, stride, count, size, port,
                1 if write else 0)
            return self._apply_native(deltas, port, next_level)
        shift = self._line_shift
        set_mask = self._set_mask
        sets = self._sets
        dirty = self._dirty
        assoc = self._assoc
        next_level = self.next_level
        next_port = PORT_INSTRUCTION if port == PORT_INSTRUCTION else PORT_DATA_READ
        next_sets = next_level._sets if next_level is not None else None
        next_mask = next_level._set_mask if next_level is not None else 0
        next_forwarded = 0
        span = max(size, 1) - 1
        accesses = 0
        misses = 0
        element = addr
        for _ in range(count):
            first = element >> shift
            last = (element + span) >> shift
            element += stride
            if first == last:
                # Common case: the element lives in one line.
                accesses += 1
                set_index = first & set_mask
                ways = sets[set_index]
                if first in ways:
                    if ways[0] != first:
                        ways.remove(first)
                        ways.insert(0, first)
                    if write:
                        dirty[set_index].add(first)
                    continue
                misses += 1
                # Dominant miss outcome inlined: clean read miss that hits
                # the next level; everything else (writes, next-level
                # misses, dirty victims' write-backs) falls back to the
                # shared state machine.  This body is deliberately
                # duplicated in :meth:`access_lines` (a shared helper would
                # reintroduce the per-line call the fast path removes) --
                # any change here must be mirrored there and in
                # :meth:`_miss_line`, and is guarded by the charge-mode
                # differential tests.
                if next_level is not None and not write:
                    next_ways = next_sets[first & next_mask]
                    if first in next_ways:
                        if next_ways[0] != first:
                            next_ways.remove(first)
                            next_ways.insert(0, first)
                        next_forwarded += 1
                        if len(ways) >= assoc:
                            victim = ways.pop()
                            dirty_set = dirty[set_index]
                            if victim in dirty_set:
                                dirty_set.discard(victim)
                                self.stats.writebacks += 1
                                next_level._access_line(victim, PORT_DATA_WRITE, True)
                        ways.insert(0, first)
                        continue
                self._miss_line(first, port, write)
            else:
                accesses += last - first + 1
                misses += self._walk_lines(first, last, port, write)
        if next_forwarded and next_level is not None:
            next_level.stats.add_bulk(next_port, next_forwarded)
        self.stats.add_bulk(port, accesses, misses)
        return misses

    def access_lines(self, line_addresses: Iterable[int], port: int,
                     write: bool = False) -> int:
        """Bulk access to already line-aligned addresses (code-path fetches).

        Equivalent to calling :meth:`access_line` per address in order, with
        the statistics applied once -- the instruction side of the fast
        path.
        """
        if _NATIVE is not None and type(line_addresses) is range:
            count = len(line_addresses)
            if count == 0:
                return 0
            next_level = self.next_level
            deltas = _NATIVE.lines(
                self._nargs, next_level._nargs if next_level is not None else None,
                self._line_shift, line_addresses.start, line_addresses.step,
                count, port, 1 if write else 0)
            return self._apply_native(deltas, port, next_level)
        shift = self._line_shift
        set_mask = self._set_mask
        sets = self._sets
        dirty = self._dirty
        assoc = self._assoc
        next_level = self.next_level
        next_port = PORT_INSTRUCTION if port == PORT_INSTRUCTION else PORT_DATA_READ
        next_sets = next_level._sets if next_level is not None else None
        next_mask = next_level._set_mask if next_level is not None else 0
        next_forwarded = 0
        accesses = 0
        misses = 0
        for line_addr in line_addresses:
            line = line_addr >> shift
            accesses += 1
            set_index = line & set_mask
            ways = sets[set_index]
            if line in ways:
                if ways[0] != line:
                    ways.remove(line)
                    ways.insert(0, line)
                if write:
                    dirty[set_index].add(line)
                continue
            misses += 1
            # Same inlined clean-miss/next-level-hit fast path as
            # :meth:`access_strided` (cold-code fetches miss the L1I and hit
            # the L2 on nearly every visit).
            if next_level is not None and not write:
                next_ways = next_sets[line & next_mask]
                if line in next_ways:
                    if next_ways[0] != line:
                        next_ways.remove(line)
                        next_ways.insert(0, line)
                    next_forwarded += 1
                    if len(ways) >= assoc:
                        victim = ways.pop()
                        dirty_set = dirty[set_index]
                        if victim in dirty_set:
                            dirty_set.discard(victim)
                            self.stats.writebacks += 1
                            next_level._access_line(victim, PORT_DATA_WRITE, True)
                    ways.insert(0, line)
                    continue
            self._miss_line(line, port, write)
        if next_forwarded and next_level is not None:
            next_level.stats.add_bulk(next_port, next_forwarded)
        self.stats.add_bulk(port, accesses, misses)
        return misses

    def _walk_lines(self, first: int, last: int, port: int, write: bool) -> int:
        """Touch lines ``first..last`` in order without counting statistics."""
        set_mask = self._set_mask
        sets = self._sets
        misses = 0
        for line in range(first, last + 1):
            ways = sets[line & set_mask]
            if line in ways:
                if ways[0] != line:
                    ways.remove(line)
                    ways.insert(0, line)
                if write:
                    self._dirty[line & set_mask].add(line)
            else:
                misses += 1
                self._miss_line(line, port, write)
        return misses

    def _miss_line(self, line_number: int, port: int, write: bool) -> None:
        """Statistics-free miss handling shared by every access path.

        This is the per-miss state machine (next-level fill request, victim
        selection, write-back bookkeeping) with the next level's *hit* case
        inlined -- an L1 miss that hits the L2 is by far the most common
        miss outcome, and this is the simulator's hottest path.
        """
        next_level = self.next_level
        if next_level is not None:
            # Fill request: a read regardless of the original direction
            # (write-allocate); instruction fills keep the instruction port
            # so the unified L2 separates TL2D from TL2I.
            next_port = PORT_INSTRUCTION if port == PORT_INSTRUCTION else PORT_DATA_READ
            next_stats = next_level.stats
            next_stats.accesses[next_port] += 1
            next_ways = next_level._sets[line_number & next_level._set_mask]
            if line_number in next_ways:
                if next_ways[0] != line_number:
                    next_ways.remove(line_number)
                    next_ways.insert(0, line_number)
            else:
                next_stats.misses[next_port] += 1
                next_level._miss_line(line_number, next_port, False)
        # Victim selection and fill (the former ``_fill``).
        set_index = line_number & self._set_mask
        ways = self._sets[set_index]
        if len(ways) >= self._assoc:
            victim = ways.pop()
            dirty_set = self._dirty[set_index]
            if victim in dirty_set:
                dirty_set.discard(victim)
                self.stats.writebacks += 1
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

    def _apply_native(self, deltas: Tuple[int, ...], port: int,
                      next_level: Optional["Cache"]) -> int:
        """Fold a native call's counter deltas into the statistics.

        The native automaton performed every state transition in place; the
        counter adds it reports all commute, so applying them here once per
        call yields the same totals as the per-event updates of the
        pure-Python loops.
        """
        (accesses, misses, self_wb, fill_acc, fill_miss,
         write_acc, write_miss, next_wb) = deltas
        stats = self.stats
        stats.accesses[port] += accesses
        if misses:
            stats.misses[port] += misses
        if self_wb:
            stats.writebacks += self_wb
        if next_level is not None:
            next_stats = next_level.stats
            fill_port = PORT_INSTRUCTION if port == PORT_INSTRUCTION else PORT_DATA_READ
            if fill_acc:
                next_stats.accesses[fill_port] += fill_acc
            if fill_miss:
                next_stats.misses[fill_port] += fill_miss
            if write_acc:
                next_stats.accesses[PORT_DATA_WRITE] += write_acc
            if write_miss:
                next_stats.misses[PORT_DATA_WRITE] += write_miss
            if next_wb:
                next_stats.writebacks += next_wb
        return misses

    # ----------------------------------------------------------- internals
    def _access_line(self, line_number: int, port: int, write: bool) -> int:
        stats = self.stats
        stats.accesses[port] += 1
        set_index = line_number & self._set_mask
        tag = line_number >> 0  # keep full line number as tag; set bits are redundant but harmless
        ways = self._sets[set_index]
        if tag in ways:
            # Hit: move to MRU position.
            if ways[0] != tag:
                ways.remove(tag)
                ways.insert(0, tag)
            if write:
                self._dirty[set_index].add(tag)
            return 0

        # Miss.  The fill request to the next level is a read regardless of
        # the original port's direction (write-allocate), but instruction
        # fills keep the instruction port so the unified L2 can separate
        # TL2D from TL2I; write-through caches additionally forward the
        # write itself (counted as traffic only; latency is hidden by the
        # write buffer).
        stats.misses[port] += 1
        self._miss_line(line_number, port, write)
        return 1

    # ------------------------------------------------------------ contents
    def contains(self, addr: int) -> bool:
        """True when the line containing ``addr`` is resident."""
        line_number = addr >> self._line_shift
        return line_number in self._sets[line_number & self._set_mask]

    def resident_lines(self) -> int:
        """Number of lines currently resident (useful in tests)."""
        return sum(len(ways) for ways in self._sets)

    def invalidate_all(self) -> int:
        """Invalidate every line; returns the number of lines dropped."""
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
        must then be re-fetched (Section 5.2.2).
        """
        if fraction <= 0.0:
            return 0
        if fraction >= 1.0:
            return self.invalidate_all()
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

    def read_span(self, addr: int, size: int, refs: Optional[int] = None) -> int:
        """Streaming data read of a contiguous span (vectorized column batch)."""
        return self.l1d.access_span(addr, size, PORT_DATA_READ, refs=refs)

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
