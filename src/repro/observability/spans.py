"""Counter spans: snapshot-delta capture of the simulated hardware state.

A *span* is the paper's EMON discipline shrunk to one region of a query:
read every counter before the region, read it again after, and attribute
the difference.  The simulated processor makes this exact -- a
:class:`CounterSnapshot` copies the live event banks, the float L1I stall
accumulator, the L2 statistics the derived counters are computed from, and
the context's I/O statistics, without issuing a single charge.  Capture is
pure observation: no cache line moves, no counter increments, no address is
allocated, which is the whole zero-perturbation argument (DESIGN.md).

Derived-counter synthesis mirrors
:meth:`~repro.hardware.processor.SimulatedProcessor.finalize` exactly,
restricted to a delta:

* ``IFU_MEM_STALL``     = round(Δ ``l1i_stall_cycles``) -- the accumulator
  only ever grows by integer-valued stall penalties, so deltas are exact;
* ``L2_RQSTS``          = Δ L2 accesses;
* ``L2_LINES_IN``       = Δ L2 misses;
* ``BUS_TRAN_MEM``      = Δ misses + Δ write-backs;
* ``MEMORY_LATENCY_CYCLES`` = Δ misses x the memory latency (the memory
  model's fill latency is linear in the fill count; write-backs add none);
* ``CPU_CLK_UNHALTED``  = the :class:`~repro.hardware.pipeline.CycleModel`
  assembled over the delta counters.

Every synthesized event except ``CPU_CLK_UNHALTED`` is an integer-linear
function of raw deltas, so per-node deltas sum to the whole-query counters
*exactly* (the observability tests assert key-by-key equality against
``finalize()``).  Cycles are the one nonlinear derivation -- the model
clamps ``gross - overlap`` to the computation floor -- so per-node cycle
totals are model-derived per delta and documented as non-additive.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

from ..hardware.counters import EventCounters

__all__ = ["CounterSnapshot", "DERIVED_EVENTS", "capture_snapshot",
           "synthesize_counters"]

#: Events :meth:`~repro.hardware.processor.SimulatedProcessor.finalize`
#: derives rather than accumulates.  Raw-bank deltas skip them defensively
#: (they only appear in the live bank if someone called ``finalize()``
#: mid-run) and synthesis recomputes them from the snapshot's hardware
#: statistics.
DERIVED_EVENTS: Tuple[str, ...] = (
    "IFU_MEM_STALL", "CPU_CLK_UNHALTED", "BUS_TRAN_MEM",
    "MEMORY_LATENCY_CYCLES", "L2_RQSTS", "L2_LINES_IN",
)

_DERIVED_SET = frozenset(DERIVED_EVENTS)


class CounterSnapshot:
    """One read of everything a span delta needs.  Pure observation."""

    __slots__ = ("user", "sup", "l1i_stall_cycles", "l2_accesses",
                 "l2_misses", "l2_writebacks", "io_stats", "rows_produced",
                 "host_seconds")

    def __init__(self, user: Dict[str, int], sup: Dict[str, int],
                 l1i_stall_cycles: float, l2_accesses: int, l2_misses: int,
                 l2_writebacks: int, io_stats: Dict[str, int],
                 rows_produced: int, host_seconds: float) -> None:
        self.user = user
        self.sup = sup
        self.l1i_stall_cycles = l1i_stall_cycles
        self.l2_accesses = l2_accesses
        self.l2_misses = l2_misses
        self.l2_writebacks = l2_writebacks
        self.io_stats = io_stats
        self.rows_produced = rows_produced
        self.host_seconds = host_seconds


def capture_snapshot(ctx) -> CounterSnapshot:
    """Snapshot the context's simulated hardware state without touching it.

    The processor keeps the user bank, the L2 statistics and the stall
    accumulator in its charging block; every read here goes through to the
    values of the moment (``copy()`` of
    the bank is a fresh dict, never an alias of it), and a snapshot only
    ever happens between Python-level operator calls, never inside one
    charged operation.
    """
    processor = ctx.processor
    counters = processor.counters
    l2 = processor.caches.l2.stats
    return CounterSnapshot(counters.user.copy(), counters.sup.copy(),
                           processor._native_state.l1i_stall_cycles,
                           l2.total_accesses, l2.total_misses, l2.writebacks,
                           dict(ctx.io_stats), ctx.rows_produced,
                           time.perf_counter())


def synthesize_counters(user: Dict[str, int], sup: Dict[str, int],
                        l1i_stall_cycles: float, l2_accesses: int,
                        l2_misses: int, l2_writebacks: int,
                        processor) -> EventCounters:
    """Assemble delta accumulators into finalized-shape counters.

    ``user``/``sup`` are raw-bank deltas (derived events absent); the L2 /
    L1I-stall arguments are the matching hardware-statistic deltas.  The
    result carries the same derived events ``finalize()`` would have
    produced for a run consisting of exactly this span.
    """
    out = EventCounters()
    out.user = {event: count for event, count in user.items()
                if count and event not in _DERIVED_SET}
    out.sup = {event: count for event, count in sup.items() if count}
    out.user["IFU_MEM_STALL"] = int(round(l1i_stall_cycles))
    out.user["L2_RQSTS"] = l2_accesses
    out.user["L2_LINES_IN"] = l2_misses
    out.user["BUS_TRAN_MEM"] = l2_misses + l2_writebacks
    out.user["MEMORY_LATENCY_CYCLES"] = (
        l2_misses * processor.memory.spec.latency_cycles)
    out.user["CPU_CLK_UNHALTED"] = int(round(
        processor.cycle_model.assemble(out).total))
    return out
