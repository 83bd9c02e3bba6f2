"""Hardware event counters.

The Pentium II exposes two programmable performance counters; the paper used
Intel's ``emon`` tool to multiplex 74 event types across repeated runs of each
query, in both user and kernel (supervisor) mode, and then combined the raw
counts through a set of formulae into the stall-time components of Table 4.2.

The simulated processor keeps *all* events simultaneously in an
:class:`EventCounters` register file.  The :mod:`repro.emon` package then
re-creates the measurement methodology on top of it: programming two logical
counters at a time, executing the unit of ten queries, repeating runs and
reporting standard deviations.  Keeping the full register file underneath lets
tests cross-check that the pairwise-multiplexed methodology converges to the
directly observed values.

Event names follow Intel's mnemonics where one exists (``INST_RETIRED``,
``BR_MISS_PRED_RETIRED``, ``IFU_MEM_STALL`` ...), with a few explicit
simulator-only extensions (e.g. ``L2_DATA_MISS`` instead of deriving it from
``L2_LINES_IN`` minus instruction fills).

A bank is a mapping from event name to count.  The supervisor bank, and both
banks of every snapshot, are plain dicts.  The user bank of a *live*
processor is a :class:`NativeBank`: the counts are a ``long`` array in the
processor's ``_cachesim.Machine``, which the charged operations increment in
C, and the mapping reads and writes that array -- one store, so there is
nothing to synchronise and :meth:`EventCounters.snapshot` (a dict copy) is
the only way to hold counts still.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Tuple

#: Mode suffixes used by emon event specifications (``EVENT:USER`` etc.).
MODE_USER = "USER"
MODE_SUP = "SUP"
MODES = (MODE_USER, MODE_SUP)

#: The event vocabulary tracked by the simulated processor.  The docstring of
#: each event explains what the paper used it for.
EVENT_DESCRIPTIONS: Dict[str, str] = {
    "CPU_CLK_UNHALTED": "Cycles the processor is not halted (total execution cycles).",
    "INST_RETIRED": "Instructions retired; denominator of CPI and of the branch frequency.",
    "UOPS_RETIRED": "Micro-operations retired; TC is estimated from this count (Table 4.2).",
    "INST_DECODED": "Instructions decoded (drives the instruction-length decoder stall model).",
    "DATA_MEM_REFS": "All loads and stores (memory references).",
    "DCU_LINES_IN": "Lines allocated into the L1 D-cache, i.e. L1 D-cache misses.",
    "IFU_IFETCH": "Instruction fetch (line) accesses to the L1 I-cache.",
    "IFU_IFETCH_MISS": "L1 I-cache misses.",
    "IFU_MEM_STALL": "Cycles the instruction fetch unit is stalled (actual TL1I stall time).",
    "ILD_STALL": "Instruction-length decoder stall cycles (TILD / TMISC).",
    "L2_RQSTS": "All L2 cache requests (data + instruction).",
    "L2_DATA_RQSTS": "L2 requests caused by data-side L1 misses.",
    "L2_IFETCH": "L2 requests caused by instruction-side L1 misses.",
    "L2_LINES_IN": "Lines allocated into L2, i.e. L2 misses (data + instruction).",
    "L2_DATA_MISS": "L2 misses caused by data requests (drives TL2D).",
    "L2_IFETCH_MISS": "L2 misses caused by instruction fetches (drives TL2I).",
    "ITLB_MISS": "Instruction TLB misses (drives TITLB at 32 cycles each).",
    "DTLB_MISS": "Data TLB misses (tracked but, as in the paper, not part of TM).",
    "BR_INST_RETIRED": "Branch instructions retired.",
    "BR_TAKEN_RETIRED": "Taken branch instructions retired.",
    "BR_MISS_PRED_RETIRED": "Mispredicted branches retired (drives TB at 17 cycles each).",
    "BTB_MISSES": "Branches that missed in the Branch Target Buffer.",
    "RESOURCE_STALLS": "Cycles stalled on execution resources (TR = TFU + TDEP + TILD).",
    "PARTIAL_RAT_STALLS": "Register/dependency stall cycles (TDEP).",
    "FU_CONTENTION_STALLS": "Functional-unit contention stall cycles (TFU; simulator extension).",
    "BUS_TRAN_MEM": "Main-memory bus transactions (bandwidth-utilisation accounting).",
    "BUS_DRDY_CLOCKS": "Bus data-ready cycles (bandwidth-utilisation accounting).",
    "MEMORY_LATENCY_CYCLES": "Accumulated main-memory latency cycles (simulator extension).",
    "OS_INTERRUPTS": "Simulated periodic OS interrupts (context-switch interference).",
    "RECORDS_PROCESSED": "Records processed by the executor (simulator extension for per-record metrics).",
}

#: Tuple of all known event names, in a stable order.
EVENT_NAMES: Tuple[str, ...] = tuple(EVENT_DESCRIPTIONS)


class UnknownEventError(KeyError):
    """Raised when an event name outside the vocabulary is used."""


def _check_event(event: str) -> None:
    if event not in EVENT_DESCRIPTIONS:
        raise UnknownEventError(f"unknown hardware event: {event!r}")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


class NativeBank(MutableMapping):
    """The user-mode bank of a processor, as the dict it stands for.

    Every read presents the C counts of the moment and every write lands in
    them; a key is present once it was counted (non-zero) or assigned,
    exactly as in a dict, and an assignment to a name outside
    the vocabulary raises ``KeyError`` (it would have nowhere to land).
    """

    __slots__ = ("_machine",)

    def __init__(self, machine) -> None:
        self._machine = machine

    def __getitem__(self, event: str) -> int:
        count = self._machine.counter(event, None)
        if count is None:
            raise KeyError(event)
        return count

    def get(self, event: str, default=None):
        return self._machine.counter(event, default)

    def __setitem__(self, event: str, count: int) -> None:
        self._machine.set_counter(event, count)

    def __delitem__(self, event: str) -> None:
        self[event]  # KeyError when absent, as for a dict
        self._machine.set_counter(event, None)

    def __iter__(self) -> Iterator[str]:
        return iter(self._machine.counters())

    def __len__(self) -> int:
        return len(self._machine.counters())

    def copy(self) -> Dict[str, int]:
        """The present counts as a new dict (what ``dict.copy`` returns)."""
        return self._machine.counters()

    def clear(self) -> None:
        for event in self._machine.counters():
            self._machine.set_counter(event, None)


@dataclass
class EventCounters:
    """A register file of named event counters, split by execution mode.

    The paper runs every event in both user and kernel mode and reports user
    mode (queries spend more than 85% of their time at user level); the OS
    interference model is the only producer of kernel-mode counts here.
    """

    user: Dict[str, int] = field(default_factory=dict)
    sup: Dict[str, int] = field(default_factory=dict)

    # --------------------------------------------------------------- update
    def add(self, event: str, count: int = 1, mode: str = MODE_USER) -> None:
        """Increment ``event`` by ``count`` in the given mode."""
        # Validation is inlined: this is called once per simulated event
        # group and sits on the simulator's hottest path.
        if event not in EVENT_DESCRIPTIONS:
            raise UnknownEventError(f"unknown hardware event: {event!r}")
        if mode == MODE_USER:
            bank = self.user
        elif mode == MODE_SUP:
            bank = self.sup
        else:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        bank[event] = bank.get(event, 0) + count

    # ---------------------------------------------------------------- reads
    def get(self, event: str, mode: str = MODE_USER) -> int:
        _check_event(event)
        _check_mode(mode)
        bank = self.user if mode == MODE_USER else self.sup
        return bank.get(event, 0)

    def total(self, event: str) -> int:
        """User + kernel count for ``event``."""
        _check_event(event)
        return self.user.get(event, 0) + self.sup.get(event, 0)

    def __getitem__(self, event: str) -> int:
        return self.get(event, MODE_USER)

    def __contains__(self, event: str) -> bool:
        return event in EVENT_DESCRIPTIONS

    def events_with_counts(self) -> Iterator[Tuple[str, int, int]]:
        """Yield ``(event, user_count, kernel_count)`` for every known event."""
        for event in EVENT_NAMES:
            yield event, self.user.get(event, 0), self.sup.get(event, 0)

    # ------------------------------------------------------------ combining
    def snapshot(self) -> "EventCounters":
        """A deep copy usable as an immutable measurement result; it never
        aliases a live bank."""
        return EventCounters(user=self.user.copy(), sup=self.sup.copy())

    def diff(self, earlier: "EventCounters") -> "EventCounters":
        """Counts accumulated since ``earlier`` (both from the same run)."""
        out = EventCounters()
        for event in EVENT_NAMES:
            du = self.user.get(event, 0) - earlier.user.get(event, 0)
            ds = self.sup.get(event, 0) - earlier.sup.get(event, 0)
            if du:
                out.user[event] = du
            if ds:
                out.sup[event] = ds
        return out

    def merged_with(self, other: "EventCounters") -> "EventCounters":
        """Sum of two counter snapshots (e.g. across the queries of a unit)."""
        out = self.snapshot()
        for event, count in other.user.items():
            out.user[event] = out.user.get(event, 0) + count
        for event, count in other.sup.items():
            out.sup[event] = out.sup.get(event, 0) + count
        return out

    def merge(self, other: "EventCounters") -> "EventCounters":
        """Commutatively fold ``other``'s counts into this register file.

        In-place counterpart of :meth:`merged_with`: every event is a plain
        sum, so folding any permutation of per-query (or per-cell)
        snapshots produces identical totals -- the property the serving
        workload relies on when it totals a run's per-query counters.
        Returns ``self`` for chaining/``reduce``.
        """
        for event, count in other.user.items():
            self.user[event] = self.user.get(event, 0) + count
        for event, count in other.sup.items():
            self.sup[event] = self.sup.get(event, 0) + count
        return self

    def scaled(self, factor: float) -> "EventCounters":
        """Scale every count by ``factor`` (used for per-query averages)."""
        out = EventCounters()
        out.user = {event: int(round(count * factor)) for event, count in self.user.items()}
        out.sup = {event: int(round(count * factor)) for event, count in self.sup.items()}
        return out

    def reset(self) -> None:
        self.user.clear()
        self.sup.clear()

    # --------------------------------------------------------------- export
    def as_dict(self, mode: str = MODE_USER) -> Dict[str, int]:
        _check_mode(mode)
        bank = self.user if mode == MODE_USER else self.sup
        return {event: bank.get(event, 0) for event in EVENT_NAMES}

    @classmethod
    def from_dict(cls, user: Mapping[str, int],
                  sup: Mapping[str, int] | None = None) -> "EventCounters":
        counters = cls()
        for event, count in user.items():
            _check_event(event)
            counters.user[event] = int(count)
        for event, count in (sup or {}).items():
            _check_event(event)
            counters.sup[event] = int(count)
        return counters
