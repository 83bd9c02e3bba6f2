"""The reference machine: the surface of ``_cachesim`` in plain Python.

Production charges every simulated event through the compiled ``_cachesim``
extension: a ``CacheState`` per cache level, a ``TLBState`` per TLB, a
``BTBState`` for the branch unit, a ``Machine`` per processor (the six
automata, the user-mode counter bank, the front-end scalars, the
OS-interference clock and the charged operations) and, per execution
context, a ``Context`` (workspace churn, the tuple pipeline's page program)
with one ``Segment`` per operation (the routine visit).  This module is
the same surface -- the same constructors, methods, members and return
values -- as plain Python loops.  It is the oracle of the differential
suites: a machine built on it
must leave every count, every LRU order, every BTB pattern table and every
cursor exactly where the native machine leaves them.

It plugs in at production's one substitution point, the module attribute
``repro.hardware.cache._NATIVE`` that every automaton and processor builds
its state from when it is constructed (an execution context builds its
state from its processor's machine).  Everything constructed inside ``with
reference_machine():`` runs here for life; nothing in ``src/`` asks which
module it got.  The two are never mixed: a reference cache level refuses a
native next level, a native one a reference level.

``Context.per_address`` is a test-side option the native context does not
have: the cyclic workspace churn as one 4-byte read per touch instead of
one strided run per wrap of the cursor (``oracle.PerAddressContext``).
"""

from __future__ import annotations

import math
import sys
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from operator import index
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import repro.hardware.cache as cache_mod
from repro.hardware.counters import EVENT_NAMES

PORT_DATA_READ = 0
PORT_DATA_WRITE = 1
PORT_INSTRUCTION = 2

#: Knuth multiplicative-hash constant behind the deterministic pseudo-random
#: branch outcomes.
_HASH_CONSTANT = 2654435761

#: Branch-site kinds of a segment handle.
_LOOP, _DATA, _ALTERNATING, _RARE, _COLD = range(5)

#: Step kinds of a pipeline program.
(_VISIT, _VISIT_OUTCOME, _VISIT_MATCHED, _LOADS, _READ, _WRITE, _READ_BUCKET,
 _WRITE_BUCKET, _EACH_MATCH) = range(9)
_VISITS = (_VISIT, _VISIT_OUTCOME, _VISIT_MATCHED)
#: Arguments each step kind takes.
_ARITY = {_VISIT: 1, _VISIT_OUTCOME: 1, _VISIT_MATCHED: 1, _LOADS: 1, _READ: 2,
          _WRITE: 2, _READ_BUCKET: 1, _WRITE_BUCKET: 1, _EACH_MATCH: 1}
#: Steps that read a row's bucket address or match count.
_PER_ROW = (_VISIT_MATCHED, _READ_BUCKET, _WRITE_BUCKET, _EACH_MATCH)

_EVENTS = frozenset(EVENT_NAMES)


@contextmanager
def reference_machine() -> Iterator[None]:
    """Automata and processors constructed inside the block (and the
    contexts built over those processors) run on the reference machine."""
    saved = cache_mod._NATIVE
    cache_mod._NATIVE = sys.modules[__name__]
    try:
        yield
    finally:
        cache_mod._NATIVE = saved


def _ports(name: str) -> property:
    """Per-port statistics: read as a 3-tuple (an item assignment into it
    raises instead of being lost), assigned as any sequence of three."""
    def get(self) -> Tuple[int, int, int]:
        return tuple(getattr(self, name))

    def put(self, value) -> None:
        ports = [index(count) for count in value]
        if len(ports) != 3:
            raise ValueError("per-port statistics are three integers")
        setattr(self, name, ports)

    return property(get, put)


# ---------------------------------------------------------------- cache level


class CacheState:
    """One set-associative LRU cache level: per set the resident line
    numbers, most recently used first, and the set of dirty ones."""

    accesses = _ports("_accesses")
    misses = _ports("_misses")

    def __init__(self, num_sets: int, assoc: int, line_shift: int,
                 write_back: bool, next_level: Optional["CacheState"]) -> None:
        if num_sets < 1 or num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a power of two")
        if next_level is not None and type(next_level) is not CacheState:
            raise TypeError("next level must be a CacheState or None")
        self._sets: List[List[int]] = [[] for _ in range(num_sets)]
        self._dirty: List[set] = [set() for _ in range(num_sets)]
        self._set_mask = num_sets - 1
        self._assoc = assoc
        self._line_shift = line_shift
        self._write_back = bool(write_back)
        self._next = next_level
        self._accesses = [0, 0, 0]
        self._misses = [0, 0, 0]
        self.writebacks = 0
        self.invalidations = 0

    def _line(self, line: int, port: int, write: bool) -> int:
        """One line touch; returns 1 on a miss.  The full line number is
        the tag (the set bits are redundant but harmless)."""
        self._accesses[port] += 1
        set_index = line & self._set_mask
        ways = self._sets[set_index]
        if line in ways:
            # Hit: move to MRU position.
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            if write:
                self._dirty[set_index].add(line)
            return 0
        self._misses[port] += 1
        next_level = self._next
        if next_level is not None:
            # Fill request: a read regardless of the original direction
            # (write-allocate); instruction fills keep the instruction port
            # so the unified L2 separates TL2D from TL2I.
            next_level._line(
                line, PORT_INSTRUCTION if port == PORT_INSTRUCTION else PORT_DATA_READ,
                False)
        # Victim selection, write-back bookkeeping, fill.
        if len(ways) >= self._assoc:
            victim = ways.pop()
            dirty = self._dirty[set_index]
            if victim in dirty:
                dirty.discard(victim)
                self.writebacks += 1
                if next_level is not None:
                    # The write-back installs the line in the next level.
                    next_level._line(victim, PORT_DATA_WRITE, True)
        ways.insert(0, line)
        if write:
            if self._write_back:
                self._dirty[set_index].add(line)
            elif next_level is not None:
                # Write-through: the write is also forwarded (counted as
                # traffic only; latency is hidden by the write buffer).
                next_level._line(line, PORT_DATA_WRITE, True)
        return 1

    def strided(self, addr: int, stride: int, count: int, size: int,
                port: int, write) -> int:
        """``count`` elements of ``size`` bytes, ``stride`` apart, every
        line each element spans, in ascending order; this level's misses."""
        shift = self._line_shift
        span = max(size, 1) - 1
        before = self._misses[port]
        element = addr
        for _ in range(count):
            for line in range(element >> shift, ((element + span) >> shift) + 1):
                self._line(line, port, write)
            element += stride
        return self._misses[port] - before

    def lines(self, addr: int, step: int, count: int, port: int, write) -> int:
        """``count`` line touches at byte addresses ``addr + k * step``."""
        misses = 0
        for _ in range(count):
            misses += self._line(addr >> self._line_shift, port, write)
            addr += step
        return misses

    def contains(self, addr: int) -> bool:
        line = addr >> self._line_shift
        return line in self._sets[line & self._set_mask]

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def invalidate_all(self) -> int:
        dropped = self.resident_lines()
        for ways, dirty in zip(self._sets, self._dirty):
            ways.clear()
            dirty.clear()
        self.invalidations += dropped
        return dropped

    def invalidate_fraction(self, fraction: float) -> int:
        """Per set keep the ``round(n * (1 - fraction))`` most recently used
        lines (half-to-even); the victims' dirty bits go with them."""
        if math.isnan(fraction):
            raise ValueError("cannot convert float NaN to integer")
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
        self.invalidations += dropped
        return dropped

    def snapshot(self) -> Tuple[List[List[int]], List[set]]:
        return ([list(ways) for ways in self._sets],
                [set(dirty) for dirty in self._dirty])


# ------------------------------------------------------------------------ TLB


class TLBState:
    """A fully associative LRU TLB: resident pages in an ordered dict,
    least recently used first."""

    def __init__(self, entries: int, page_shift: int) -> None:
        self._pages: "OrderedDict[int, None]" = OrderedDict()
        self._capacity = entries
        self._page_shift = page_shift
        self.accesses = 0
        self.misses = 0

    def access(self, addr: int, count: int) -> int:
        """``count`` same-page consultations: one transition, at most one
        miss; returns 1 on a miss."""
        self.accesses += count
        page = addr >> self._page_shift
        pages = self._pages
        if page in pages:
            pages.move_to_end(page)
            return 0
        pages[page] = None
        if len(pages) > self._capacity:
            pages.popitem(last=False)
        self.misses += 1
        return 1

    def contains(self, addr: int) -> bool:
        return (addr >> self._page_shift) in self._pages

    def resident_pages(self) -> int:
        return len(self._pages)

    def flush(self) -> int:
        dropped = len(self._pages)
        self._pages.clear()
        return dropped

    def snapshot(self) -> List[int]:
        return list(self._pages)


# ------------------------------------------------------------------------ BTB


class _Entry:
    """One BTB entry: branch history register + pattern table of 2-bit
    counters, initialised weakly taken."""

    __slots__ = ("tag", "history", "counters")

    def __init__(self, tag: int, history_bits: int) -> None:
        self.tag = tag
        self.history = 0
        self.counters = [2] * (1 << history_bits)


class BTBState:
    """Two-level adaptive predictor behind a set-associative BTB: per set
    a list of entries, most recently used first."""

    def __init__(self, num_sets: int, assoc: int, history_bits: int,
                 static_backward_taken: bool) -> None:
        self._sets: List[List[_Entry]] = [[] for _ in range(num_sets)]
        self._set_mask = num_sets - 1
        self._assoc = assoc
        self._history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._static_backward = bool(static_backward_taken)
        self.branches = self.taken = self.mispredictions = 0
        self.btb_hits = self.btb_misses = 0

    def _update(self, entry: _Entry, taken: bool) -> None:
        """Saturate the two-bit counter, shift the history."""
        counter = entry.counters[entry.history]
        if taken:
            if counter < 3:
                entry.counters[entry.history] = counter + 1
        elif counter > 0:
            entry.counters[entry.history] = counter - 1
        entry.history = ((entry.history << 1) | taken) & self._history_mask

    def execute(self, site_addr: int, taken, backward) -> bool:
        """One dynamic branch; True when mispredicted.  A BTB miss falls
        back to the static rule (backward taken, forward not taken), and
        only taken branches allocate an entry."""
        taken = bool(taken)
        self.branches += 1
        self.taken += taken
        site = site_addr >> 4
        ways = self._sets[site & self._set_mask]
        entry = next((way for way in ways if way.tag == site), None)
        if entry is not None:
            self.btb_hits += 1
            prediction = entry.counters[entry.history] >= 2
            if ways[0] is not entry:
                ways.remove(entry)
                ways.insert(0, entry)
            self._update(entry, taken)
        else:
            self.btb_misses += 1
            prediction = bool(backward) if self._static_backward else False
            if taken:
                entry = _Entry(site, self._history_bits)
                self._update(entry, taken)
                ways.insert(0, entry)
                if len(ways) > self._assoc:
                    ways.pop()
        mispredicted = prediction != taken
        self.mispredictions += mispredicted
        return mispredicted

    def resident_entries(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def flush(self) -> None:
        for ways in self._sets:
            ways.clear()

    def snapshot(self) -> List[List[Tuple[int, int, Tuple[int, ...]]]]:
        return [[(entry.tag, entry.history, tuple(entry.counters)) for entry in ways]
                for ways in self._sets]


# -------------------------------------------------------------------- machine


class Machine:
    """One processor's automata, user-mode counter bank, front-end scalars,
    OS-interference clock and charged operations.  The processor is only
    referenced weakly, as the native machine only borrows it."""

    def __init__(self, l1d: CacheState, l1i: CacheState, l2: CacheState,
                 dtlb: TLBState, itlb: TLBState, btb: BTBState,
                 l1i_stall_cost: float, l2i_stall_cost: float,
                 os_interval: int, processor) -> None:
        if l1d._next is not l2 or l1i._next is not l2 or os_interval < 0:
            raise ValueError("both L1 caches must fill from the given L2, and "
                             "the interrupt interval cannot be negative")
        self._l1d, self._l1i, self._l2 = l1d, l1i, l2
        self._dtlb, self._itlb, self._btb = dtlb, itlb, btb
        self._l1i_stall_cost = l1i_stall_cost
        self._l2i_stall_cost = l2i_stall_cost
        self._os_interval = os_interval
        self._processor = weakref.ref(processor)
        #: The present keys of the user-mode bank: counted non-zero, or
        #: assigned from Python.
        self._user: Dict[str, int] = {}
        self.l1i_stall_cycles = 0.0
        self.last_instruction_page = -1
        self.os_since_last = 0
        self.os_interrupts = 0

    # ------------------------------------------------------------- the bank
    def _bump(self, event: str, count: int) -> None:
        """What a charged operation counts: a zero adds no key."""
        if count:
            self._user[event] = self._user.get(event, 0) + count

    def add(self, event: str, delta: int) -> None:
        if event not in _EVENTS:
            raise KeyError(event)
        self._user[event] = self._user.get(event, 0) + index(delta)

    def counter(self, event: str, default=None):
        return self._user.get(event, default)

    def set_counter(self, event: str, value) -> None:
        if event not in _EVENTS:
            raise KeyError(event)
        if value is None:
            self._user.pop(event, None)
        else:
            self._user[event] = index(value)

    def counters(self) -> Dict[str, int]:
        return {event: self._user[event] for event in EVENT_NAMES
                if event in self._user}

    # ---------------------------------------------------- charged operations
    def _data(self, address: int, stride: int, count: int, size: int,
              write) -> int:
        """``count`` loads (stores) of ``size`` bytes ``stride`` apart (a
        stride <= 0 revisits one element): the DTLB once per page-run of
        elements, the caches once per call; returns the L1D misses."""
        if count <= 0:
            return 0
        stride = max(stride, 0)
        self._bump("DATA_MEM_REFS", count)
        dtlb = self._dtlb
        page_shift = dtlb._page_shift
        dtlb_misses = 0
        position = 0
        while position < count:
            element = address + position * stride
            run = count - position
            if stride:
                page_end = ((element >> page_shift) + 1) << page_shift
                run = min(run, (page_end - element + stride - 1) // stride)
            dtlb_misses += dtlb.access(element, run)
            position += run
        self._bump("DTLB_MISS", dtlb_misses)
        l2 = self._l2
        before = l2._misses[PORT_DATA_READ] + l2._misses[PORT_DATA_WRITE]
        misses = self._l1d.strided(address, stride, count, size,
                                   PORT_DATA_WRITE if write else PORT_DATA_READ,
                                   write)
        if misses:
            self._bump("DCU_LINES_IN", misses)
            self._bump("L2_DATA_RQSTS", misses)
            self._bump("L2_DATA_MISS", l2._misses[PORT_DATA_READ]
                       + l2._misses[PORT_DATA_WRITE] - before)
        return misses

    def charged_strided(self, address: int, stride: int, count: int, size: int,
                        write) -> int:
        return self._data(address, stride, count, size, write)

    def charged_fields(self, base: int, fields: Tuple[Tuple[int, int], ...]) -> int:
        if not isinstance(fields, tuple):
            raise TypeError("fields must be a tuple of pairs")
        return sum(self._data(base + offset, 0, 1, width, False)
                   for offset, width in fields)

    def charged_addresses(self, addresses: Sequence[int], size: int, write) -> int:
        size = index(size)
        addresses = [index(address) for address in addresses]
        return sum(self._data(address, 0, 1, size, write) for address in addresses)

    def _fetch(self, lines: Sequence[int]) -> int:
        """``SimulatedProcessor.fetch_code``: the ITLB whenever the fetch
        stream changes page, the L1I per line, the front-end stall
        accumulated once for the call; returns the L1I misses."""
        itlb = self._itlb
        page_shift = itlb._page_shift
        last_page = self.last_instruction_page
        itlb_misses = 0
        for line_addr in lines:
            page = line_addr >> page_shift
            if page != last_page:
                itlb_misses += itlb.access(line_addr, 1)
                last_page = page
        self.last_instruction_page = last_page
        l2 = self._l2
        l2i_before = l2._misses[PORT_INSTRUCTION]
        l1i_misses = sum(self._l1i.lines(line_addr, 0, 1, PORT_INSTRUCTION, False)
                         for line_addr in lines)
        l2i_misses = l2._misses[PORT_INSTRUCTION] - l2i_before
        self._bump("IFU_IFETCH", len(lines))
        if l1i_misses:
            self._bump("IFU_IFETCH_MISS", l1i_misses)
            self._bump("L2_IFETCH", l1i_misses)
            self.l1i_stall_cycles += (l1i_misses * self._l1i_stall_cost
                                      + l2i_misses * self._l2i_stall_cost)
        self._bump("L2_IFETCH_MISS", l2i_misses)
        self._bump("ITLB_MISS", itlb_misses)
        return l1i_misses

    def fetch_run(self, line_addr: int, count: int) -> int:
        if count <= 0:
            return 0
        line_bytes = 1 << self._l1i._line_shift
        return self._fetch(range(line_addr, line_addr + count * line_bytes, line_bytes))

    def conjunct(self, address: int, outcomes: Sequence) -> Tuple[int, int]:
        """One data-dependent branch per row at ``address`` and their
        retirement counts; returns ``(taken, mispredictions)``."""
        btb = self._btb
        before = btb.btb_misses
        taken = mispredictions = 0
        for outcome in outcomes:
            outcome = bool(outcome)
            mispredictions += btb.execute(address, outcome, False)
            taken += outcome
        self._bump("BR_INST_RETIRED", len(outcomes))
        self._bump("BR_TAKEN_RETIRED", taken)
        self._bump("BR_MISS_PRED_RETIRED", mispredictions)
        self._bump("BTB_MISSES", btb.btb_misses - before)
        return taken, mispredictions

    def context(self, ws_base: int, ws_stride: int, ws_size: int,
                cold_base: int, cold_pool: int, line_bytes: int) -> "Context":
        return Context(self, ws_base, ws_stride, ws_size, cold_base, cold_pool,
                       line_bytes)


# ------------------------------------------------------ the executor's visit


def _pseudo_random_bit(visit_counter: int, salt: int) -> bool:
    value = ((visit_counter + salt) * _HASH_CONSTANT) & 0xFFFFFFFF
    return bool((value >> 17) & 1)


class Context:
    """One execution context's workspace and cold-pool geometry and its
    visit bookkeeping over a :class:`Machine`."""

    def __init__(self, machine: Machine, ws_base: int, ws_stride: int,
                 ws_size: int, cold_base: int, cold_pool: int,
                 line_bytes: int) -> None:
        if not 0 < ws_stride < ws_size or cold_pool <= 0:
            raise ValueError("need 0 < workspace stride < size and a cold pool")
        self._machine = machine
        self._ws_base, self._ws_stride, self._ws_size = ws_base, ws_stride, ws_size
        self._cold_base, self._cold_pool = cold_base, cold_pool
        self._line_bytes = line_bytes
        self.visit_counter = 0
        self.cold_cursor = 0
        self.workspace_cursor = 0
        self.bulk_carry = 0.0
        #: Alternating / rare branch-site state, by site address.
        self._sites: Dict[int, int] = {}
        #: Charge each workspace touch as its own 4-byte read.
        self.per_address = False

    def segment(self, handle: tuple) -> "Segment":
        return Segment(self, handle)

    def site_state(self) -> Dict[int, int]:
        return dict(self._sites)

    def workspace(self, touches: int) -> None:
        """``touches`` cyclic 4-byte reads ``ws_stride`` apart: one strided
        run per wrap of the cursor, or one read each when ``per_address``."""
        machine = self._machine
        base, stride, size = self._ws_base, self._ws_stride, self._ws_size
        cursor = self.workspace_cursor % size
        if self.per_address:
            for _ in range(touches):
                machine._data(base + cursor, 0, 1, 4, False)
                cursor = (cursor + stride) % size
        else:
            while touches > 0:
                run = min(touches, (size - cursor + stride - 1) // stride)
                machine._data(base + cursor, stride, run, 4, False)
                cursor = (cursor + run * stride) % size
                touches -= run
        self.workspace_cursor = cursor

    def pipeline(self, program: tuple, records: Sequence[int], outcomes,
                 operands, start: int) -> int:
        """One page of a tuple pipeline: per record from ``start`` (after
        the page steps at 0, after finishing the paused record ``start - 1``
        past it) the record steps, the row steps when it qualifies, then
        ``RECORDS_PROCESSED`` when ``done``; with ``pause`` the index of the
        next qualifying record, right after its row steps, else the record
        count.  Every argument is checked before the first charge."""
        if not isinstance(program, tuple) or len(program) != 5:
            raise TypeError("a program is (page_steps, record_steps, "
                            "row_steps, done, pause)")
        page_steps, record_steps, row_steps, done, pause = program
        uses = set()
        page_steps = self._compile(page_steps, 0, uses)
        record_steps = self._compile(record_steps, 0, uses)
        row_steps = self._compile(row_steps, 1, uses)
        start = index(start)
        count = len(records)
        qualifies = ([True] * count if outcomes is None
                     else [bool(outcome) for outcome in outcomes])
        if len(qualifies) != count:
            raise ValueError("one outcome per record")
        if not 0 <= start <= count:
            raise ValueError("start must be a record index")
        keys = [0] * start + [index(key) for key in records[start:]]
        if operands is not None and not (isinstance(operands, tuple)
                                         and len(operands) == 2):
            raise TypeError("operands are (buckets, matches)")
        buckets, matches = (None, None) if operands is None else operands
        vectors = []
        for vector, kinds, what in ((buckets, (_READ_BUCKET, _WRITE_BUCKET),
                                     "bucket addresses"),
                                    (matches, (_VISIT_MATCHED, _EACH_MATCH),
                                     "match counts")):
            if vector is None:
                if uses.intersection(kinds):
                    raise ValueError(f"the program needs {what}")
            elif len(vector) != sum(qualifies):
                raise ValueError("one operand per qualifying record")
            vectors.append(None if vector is None else [index(v) for v in vector])
        buckets, matches = vectors

        machine = self._machine
        if start == 0:
            self._run(page_steps, 0, True, 0, 0)
        elif done:
            machine.add("RECORDS_PROCESSED", 1)
        row = sum(qualifies[:start])
        for position in range(start, count):
            key, passed = keys[position], qualifies[position]
            self._run(record_steps, key, passed, 0, 0)
            if passed:
                self._run(row_steps, key, True,
                          buckets[row] if buckets is not None else 0,
                          matches[row] if matches is not None else 0)
                row += 1
                if pause:
                    return position
            if done:
                machine.add("RECORDS_PROCESSED", 1)
        return count

    def _compile(self, steps, depth: int, uses: set) -> tuple:
        """Check a tuple of steps (the segments must be this context's, and
        only a row's steps may use its bucket or matches); nested match
        steps are checked too."""
        if not isinstance(steps, tuple):
            raise TypeError("program steps must be a tuple")
        for step in steps:
            kind = step[0] if isinstance(step, tuple) and step else None
            if len(step) - 1 != _ARITY.get(kind):
                raise TypeError(f"malformed pipeline step {step!r}")
            if kind in _PER_ROW and depth == 0:
                raise ValueError("only a row's steps may use its bucket or matches")
            uses.add(kind)
            if kind in _VISITS:
                if not (isinstance(step[1], Segment) and step[1]._context is self):
                    raise ValueError("a visit step needs a segment of this context")
            elif kind == _EACH_MATCH:
                self._compile(step[1], depth + 1, uses)
            elif kind == _LOADS:
                if not isinstance(step[1], tuple) or any(
                        not isinstance(load, tuple) or len(load) != 3
                        for load in step[1]):
                    raise TypeError("a load is (offset, scale, width)")
                for load in step[1]:
                    for value in load:
                        index(value)
            else:
                for value in step[1:]:
                    index(value)
        return steps

    def _run(self, steps: tuple, key: int, outcome: bool, bucket: int,
             matches: int) -> None:
        """The steps for one record: visits, loads at ``offset + scale *
        key``, fixed and bucket accesses, the match loop."""
        machine = self._machine
        for step in steps:
            kind = step[0]
            if kind in _VISITS:
                segment = step[1]
                segment.invocations += 1
                segment._visit(None if kind == _VISIT
                               else outcome if kind == _VISIT_OUTCOME
                               else matches > 0)
            elif kind == _LOADS:
                for offset, scale, width in step[1]:
                    machine._data(offset + scale * key, 0, 1, width, False)
            elif kind in (_READ, _WRITE):
                machine._data(step[1], 0, 1, step[2], kind == _WRITE)
            elif kind in (_READ_BUCKET, _WRITE_BUCKET):
                machine._data(bucket, 0, 1, step[1], kind == _WRITE_BUCKET)
            else:
                for _ in range(matches):
                    self._run(step[1], key, outcome, bucket, matches)


class Segment:
    """One code segment's visit constants, its invocation count and its
    routine visit over a :class:`Context`.

    The handle is ``(base, hot, cold, instructions, uops, data_refs, dep,
    fu, ild, total_stall, touches, bulk, bulk_taken, bulk_expected,
    bulk_btb, ((kind, address, weight), ...))``.
    """

    def __init__(self, context: Context, handle: tuple) -> None:
        if (not isinstance(handle, tuple) or len(handle) != 16
                or not isinstance(handle[15], tuple)):
            raise TypeError("segment handle must be a 16-tuple")
        (self._base, self._hot, self._cold, self._instructions, self._uops,
         self._data_refs, self._dep, self._fu, self._ild, self._total_stall,
         self._touches, self._bulk, self._bulk_taken, self._bulk_expected,
         self._bulk_btb, sites) = handle
        self._sites = tuple((kind, address, weight) for kind, address, weight in sites)
        self._context = context
        self.invocations = 0

    def visit(self, data_taken, repeat: int) -> None:
        """Count ``repeat`` invocations, then run that many visits
        (``data_taken`` None: pseudo-random data branches)."""
        if data_taken is not None:
            data_taken = bool(data_taken)
        self.invocations += repeat
        for _ in range(repeat):
            self._visit(data_taken)

    def _visit(self, data_taken: Optional[bool]) -> None:
        """One routine visit, every event counted where it happens; when
        the interrupt handler raises, the visit stops there."""
        context = self._context
        machine = context._machine
        bump = machine._bump
        context.visit_counter += 1
        visit_counter = context.visit_counter

        # Instruction side: hot lines, then the cold-code slice (a rotating
        # window of the cold pool; a slice as large as the pool re-fetches
        # lines within one fetch).
        machine.fetch_run(self._base, self._hot)
        cold = self._cold
        if cold:
            pool = context._cold_pool
            base = context._cold_base
            line_bytes = context._line_bytes
            cursor = context.cold_cursor % pool
            if cold < pool:
                run = min(pool - cursor, cold)
                machine.fetch_run(base + cursor * line_bytes, run)
                machine.fetch_run(base, cold - run)
            else:
                machine._fetch(tuple(base + (cursor + k) % pool * line_bytes
                                     for k in range(cold)))
            context.cold_cursor = (cursor + cold) % pool

        # Retirement, bulk references, resource stalls.
        instructions = self._instructions
        bump("INST_RETIRED", instructions)
        bump("INST_DECODED", instructions)
        bump("UOPS_RETIRED", self._uops)
        bump("DATA_MEM_REFS", self._data_refs)
        bump("PARTIAL_RAT_STALLS", self._dep)
        bump("FU_CONTENTION_STALLS", self._fu)
        bump("ILD_STALL", self._ild)
        bump("RESOURCE_STALLS", self._total_stall)

        # The OS-interference clock; the handler is entered only when an
        # interrupt falls due.
        interval = machine._os_interval
        if interval and instructions > 0:
            since_last = machine.os_since_last + instructions
            fired = since_last // interval
            machine.os_since_last = since_last - fired * interval
            if fired:
                machine.os_interrupts += fired
                machine._processor()._service_interrupts(fired)

        # Private working-set touches.
        context.workspace(self._touches)

        # Branch sites: the predictor runs per site, the retirement counters
        # carry the site weights.
        if self._sites:
            btb = machine._btb
            btb_before = btb.btb_misses
            retired = taken_weight = mispredicted_weight = 0
            states = context._sites
            for kind, address, weight in self._sites:
                if kind == _LOOP:
                    taken = True
                elif kind == _DATA:
                    taken = (_pseudo_random_bit(visit_counter, address)
                             if data_taken is None else data_taken)
                elif kind == _ALTERNATING:
                    states[address] = states.get(address, 0) ^ 1
                    taken = bool(states[address])
                elif kind == _RARE:
                    states[address] = states.get(address, 0) + 1
                    taken = states[address] % 64 == 0
                else:
                    # Cold: the site address varies from visit to visit
                    # (different call sites / indirect targets).
                    offset = (visit_counter * _HASH_CONSTANT) & 0x1FFF
                    address = address + 64 + (offset & ~0x3F)
                    taken = _pseudo_random_bit(visit_counter, address)
                mispredicted = btb.execute(address, taken, kind == _LOOP)
                retired += weight
                if taken:
                    taken_weight += weight
                if mispredicted:
                    mispredicted_weight += weight
            if retired > 0:
                bump("BR_INST_RETIRED", retired)
                bump("BR_TAKEN_RETIRED", taken_weight)
                bump("BR_MISS_PRED_RETIRED", mispredicted_weight)
                bump("BTB_MISSES", btb.btb_misses - btb_before)

        # Bulk branch population (counters only; the predictor is untouched).
        if self._bulk > 0:
            expected = self._bulk_expected + context.bulk_carry
            mispredicted = int(expected)
            context.bulk_carry = expected - mispredicted
            bump("BR_INST_RETIRED", self._bulk)
            bump("BR_TAKEN_RETIRED", self._bulk_taken)
            bump("BR_MISS_PRED_RETIRED", mispredicted)
            bump("BTB_MISSES", self._bulk_btb)
