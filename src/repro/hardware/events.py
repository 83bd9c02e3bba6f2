"""Trace-event vocabulary.

The execution engine normally drives the :class:`~repro.hardware.processor.
SimulatedProcessor` directly through its method API (the hot path).  For
testing, debugging and for building small hand-written traces, this module
provides an equivalent declarative representation: a sequence of event
objects that can be recorded, inspected, persisted and replayed onto a
processor.  Replaying a recorded trace produces identical counter values to
the original run, which the integration tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple, Union


@dataclass(frozen=True)
class CodeFetch:
    """Fetch of one or more instruction cache lines.

    ``line_addresses`` are byte addresses aligned (or alignable) to the
    instruction-cache line size; ``instructions`` and ``uops`` are the retired
    counts attributed to this stretch of code.
    """

    line_addresses: Tuple[int, ...]
    instructions: int = 0
    uops: int = 0


@dataclass(frozen=True)
class DataRead:
    """A load of ``size`` bytes from ``address``."""

    address: int
    size: int = 4


@dataclass(frozen=True)
class DataWrite:
    """A store of ``size`` bytes to ``address``."""

    address: int
    size: int = 4


@dataclass(frozen=True)
class BulkDataRefs:
    """Memory references accounted in bulk (they hit the L1 D-cache).

    Most of a DBMS's loads and stores touch small, hot, private working
    structures that stay resident in the 16 KB L1 D-cache (Section 5.2's
    explanation of the ~2% L1D miss rate).  Simulating each of them
    individually would add nothing but time, so the executor counts them in
    bulk and simulates only the accesses that can plausibly miss.
    """

    count: int


@dataclass(frozen=True)
class Branch:
    """A conditional branch with its outcome."""

    site_address: int
    taken: bool
    backward: bool = False


@dataclass(frozen=True)
class BulkBranches:
    """Branch instructions accounted in bulk.

    ``count`` branches are added to ``BR_INST_RETIRED`` without exercising the
    predictor; the dynamically simulated branch *sites* (one event per visit)
    determine the misprediction rate, which the executor applies to the bulk
    population.  ``mispredictions`` carries the extrapolated misprediction
    count for the bulk population.
    """

    count: int
    taken: int = 0
    mispredictions: int = 0


@dataclass(frozen=True)
class RetireInstructions:
    """Retire ``instructions`` x86 instructions (``uops`` micro-operations)."""

    instructions: int
    uops: int = 0


@dataclass(frozen=True)
class ResourceStall:
    """Resource-related stall cycles charged by the execution cost model."""

    dependency_cycles: float = 0.0
    functional_unit_cycles: float = 0.0
    ild_cycles: float = 0.0


@dataclass(frozen=True)
class RecordBoundary:
    """Marks the completion of ``count`` records (per-record metrics, OS ticks)."""

    count: int = 1


TraceEvent = Union[CodeFetch, DataRead, DataWrite, BulkDataRefs, Branch,
                   BulkBranches, RetireInstructions, ResourceStall, RecordBoundary]


class Trace:
    """An ordered collection of trace events."""

    def __init__(self, events: Iterable[TraceEvent] = ()) -> None:
        self._events: List[TraceEvent] = list(events)

    def append(self, event: TraceEvent) -> None:
        self._events.append(event)

    def extend(self, events: Iterable[TraceEvent]) -> None:
        self._events.extend(events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index):
        return self._events[index]

    def counts_by_type(self) -> dict:
        out: dict = {}
        for event in self._events:
            name = type(event).__name__
            out[name] = out.get(name, 0) + 1
        return out


def replay(trace: Iterable[TraceEvent], processor) -> None:
    """Replay ``trace`` onto ``processor`` (a
    :class:`~repro.hardware.processor.SimulatedProcessor`)."""
    for event in trace:
        if isinstance(event, CodeFetch):
            processor.fetch_code(event.line_addresses)
            if event.instructions or event.uops:
                processor.retire(event.instructions, event.uops)
        elif isinstance(event, DataRead):
            processor.data_read(event.address, event.size)
        elif isinstance(event, DataWrite):
            processor.data_write(event.address, event.size)
        elif isinstance(event, BulkDataRefs):
            processor.count_data_refs(event.count)
        elif isinstance(event, Branch):
            processor.branch(event.site_address, event.taken, event.backward)
        elif isinstance(event, BulkBranches):
            processor.count_branches(event.count, taken=event.taken,
                                     mispredictions=event.mispredictions)
        elif isinstance(event, RetireInstructions):
            processor.retire(event.instructions, event.uops)
        elif isinstance(event, ResourceStall):
            processor.add_resource_stalls(event.dependency_cycles,
                                          event.functional_unit_cycles,
                                          event.ild_cycles)
        elif isinstance(event, RecordBoundary):
            processor.record_done(event.count)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown trace event: {event!r}")
