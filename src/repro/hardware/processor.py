"""The simulated processor.

:class:`SimulatedProcessor` is the meeting point of the hardware substrate:
it owns the cache hierarchy, the TLBs, the branch predictor, the main-memory
model, the OS-interference model and the hardware event counters, and it
exposes the narrow method API the execution engine drives while processing
records:

* :meth:`~SimulatedProcessor.fetch_code` -- instruction-cache line fetches
  for a code path,
* :meth:`~SimulatedProcessor.retire` -- retired instruction /
  micro-operation accounting,
* :meth:`~SimulatedProcessor.data_read` /
  :meth:`~SimulatedProcessor.data_write` -- simulated loads and stores
  (:meth:`~SimulatedProcessor.data_read_fields`: the field loads of one
  record in one call),
* :meth:`~SimulatedProcessor.data_read_strided` /
  :meth:`~SimulatedProcessor.data_read_span` -- bulk element loads (the
  span-charging fast path for columnar batches: count-identical to
  per-address ``data_read`` calls, several times cheaper to simulate),
* :meth:`~SimulatedProcessor.data_read_scattered` /
  :meth:`~SimulatedProcessor.data_write_scattered` -- one scalar access per
  address of a vector, in one call (a key vector's hash buckets),
* :meth:`~SimulatedProcessor.count_data_refs` -- bulk accounting for
  references that stay in L1D,
* :meth:`~SimulatedProcessor.branch` /
  :meth:`~SimulatedProcessor.count_branches` -- dynamic branch sites and the
  bulk branch population they represent,
* :meth:`~SimulatedProcessor.add_resource_stalls` -- dependency /
  functional-unit / decoder stall cycles charged by the execution cost
  model,
* :meth:`~SimulatedProcessor.record_done` -- record boundaries (per-record
  metrics, OS interrupt pacing).

Calling :meth:`~SimulatedProcessor.finalize` assembles the ground-truth
cycle count (``CPU_CLK_UNHALTED``) from the accumulated events using the
:class:`~repro.hardware.pipeline.CycleModel` and returns an immutable counter
snapshot that the analysis layer consumes.

Everything a charge counts has one owner: the processor's
``_cachesim.Machine``, which holds the user-mode counter bank, the
OS-interference clock and the front-end scalars beside the automata (which
keep their own statistics), and runs its charged operations to completion in
C.  Python reads through (``counters.user`` is a :class:`~.counters.
NativeBank`, each ``stats`` a view) and every method below writes through
``_count`` -- ``Machine.add`` -- or the machine's members: never two stores
to merge.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Tuple

from . import cache as _cache  # home of ``_NATIVE``, read at construction
from .branch import BranchPredictor
from .cache import CacheHierarchy
from .counters import EventCounters, MODE_SUP, MODE_USER, MODES, NativeBank
from .memory import MainMemory
from .os_interference import OSInterference, OSInterferenceConfig
from .pipeline import CycleModel, OverlapModel
from .specs import PENTIUM_II_XEON, ProcessorSpec
from .tlb import TLB


class SimulatedProcessor:
    """Trace-driven model of the paper's Pentium II Xeon platform."""

    def __init__(self,
                 spec: ProcessorSpec = PENTIUM_II_XEON,
                 os_interference: Optional[OSInterferenceConfig] = None,
                 overlap: Optional[OverlapModel] = None) -> None:
        self.spec = spec
        self.caches = CacheHierarchy(spec.l1d, spec.l1i, spec.l2)
        self.dtlb = TLB(spec.dtlb)
        self.itlb = TLB(spec.itlb)
        self.branch_unit = BranchPredictor(spec.branch)
        self.memory = MainMemory(spec.memory, line_bytes=spec.l2.line_bytes)
        self.cycle_model = CycleModel(spec, overlap)
        self.counters = EventCounters()
        self._finalized = False
        # A disabled model is no model: it must cost and count nothing.
        if os_interference is not None and not os_interference.enabled:
            os_interference = None

        #: The charging block (``_cachesim.Machine``), built from the state
        #: objects of the automata above.  Besides the counter bank and the
        #: OS clock it keeps the two front-end scalars every instruction
        #: fetch advances: ``l1i_stall_cycles`` (the accumulated L1I stall
        #: cycles) and ``last_instruction_page``.  The block only *borrows*
        #: the processor (an owned reference would be a cycle the collector
        #: cannot see); the processor owns the block, so the borrow holds.
        self._native_state = machine = _cache._NATIVE.Machine(
            self.caches.l1d._native, self.caches.l1i._native,
            self.caches.l2._native, self.dtlb._native, self.itlb._native,
            self.branch_unit._native,
            float(spec.pipeline.l1i_fetch_stall_cycles),
            float(spec.memory.latency_cycles),
            os_interference.interval_instructions if os_interference else 0,
            self)
        self.counters.user = NativeBank(machine)
        #: ``_count(event, n)`` adds to a user-mode counter, in its one store.
        self._count = machine.add
        self.os = (OSInterference(os_interference, machine)
                   if os_interference else None)

    # ------------------------------------------------------------ code side
    def fetch_code(self, line_addresses: Sequence[int]) -> int:
        """Fetch the given instruction-cache lines; returns L1I miss count.

        The ITLB is consulted whenever the fetch stream moves to a different
        page.  Per-miss front-end stall cycles accumulate into the
        ``IFU_MEM_STALL`` counter ("actual stall time" in Table 4.2): an L1I
        miss satisfied by the L2 costs :attr:`~repro.hardware.specs.
        PipelineSpec.l1i_fetch_stall_cycles`, and one that also misses the
        L2 additionally pays the full memory latency.
        """
        machine = self._native_state
        itlb = self.itlb
        page_shift = itlb._page_shift
        last_page = machine.last_instruction_page
        itlb_misses = 0
        # The ITLB is consulted only when the fetch stream changes page; the
        # line fetches themselves go to the L1I in one bulk call.
        for line_addr in line_addresses:
            page = line_addr >> page_shift
            if page != last_page:
                itlb_misses += itlb.access(line_addr)
                last_page = page
        machine.last_instruction_page = last_page
        l2 = self.caches.l2
        l2i_misses_before = l2.stats.misses[2]
        l1i_misses = self.caches.fetch_lines(line_addresses)
        l2i_misses = l2.stats.misses[2] - l2i_misses_before
        count = self._count
        count("IFU_IFETCH", len(line_addresses))
        if l1i_misses:
            count("IFU_IFETCH_MISS", l1i_misses)
            count("L2_IFETCH", l1i_misses)
            machine.l1i_stall_cycles += (
                l1i_misses * self.spec.pipeline.l1i_fetch_stall_cycles
                + l2i_misses * self.spec.memory.latency_cycles)
        if l2i_misses:
            count("L2_IFETCH_MISS", l2i_misses)
        if itlb_misses:
            count("ITLB_MISS", itlb_misses)
        return l1i_misses

    def fetch_code_run(self, line_addr: int, count: int) -> int:
        """Fetch ``count`` *consecutive* instruction lines starting at the
        line-aligned ``line_addr``; returns the L1I miss count.

        Code segments are contiguous by construction (hot code is one run,
        cold code rotates through a contiguous pool), so this is the shape
        of every executor code fetch, and one C call.  Count- and
        state-identical to :meth:`fetch_code` over the expanded line
        sequence.
        """
        return self._native_state.fetch_run(line_addr, count)

    def retire(self, instructions: int, uops: int = 0, mode: str = MODE_USER) -> None:
        """Retire ``instructions`` x86 instructions (``uops`` micro-operations).

        When ``uops`` is zero the spec's average expansion factor is applied.
        Retired user instructions also advance the OS-interference clock.
        """
        if instructions <= 0 and uops <= 0:
            return
        if uops <= 0:
            uops = int(round(instructions * self.spec.pipeline.uops_per_instruction))
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        count = (self._count if mode == MODE_USER
                 else functools.partial(self.counters.add, mode=mode))
        count("INST_RETIRED", instructions)
        count("INST_DECODED", instructions)
        count("UOPS_RETIRED", uops)
        if self.os is not None and mode == MODE_USER:
            self._advance_os_clock(instructions)

    def charge_routine(self, instructions: int, uops: int, data_refs: int,
                       dep_stall: int, fu_stall: int, ild_stall: int,
                       total_stall: int) -> None:
        """Fused per-visit charge: retirement, L1D-hit references and
        (pre-rounded) resource stalls in one counter pass.

        Equivalent to ``retire(instructions, uops)`` +
        ``count_data_refs(data_refs)`` + ``add_resource_stalls(...)`` with
        the ``int(round(...))`` of the stall components hoisted to segment
        construction -- the counter adds commute, so fusing them changes no
        totals.  This is what one routine visit charges between its fetches
        and its workspace touches (the context's ``Segment.visit`` does the
        same in C).
        """
        count = self._count
        count("INST_RETIRED", instructions)
        count("INST_DECODED", instructions)
        count("UOPS_RETIRED", uops)
        if data_refs:
            count("DATA_MEM_REFS", data_refs)
        if total_stall:
            if dep_stall:
                count("PARTIAL_RAT_STALLS", dep_stall)
            if fu_stall:
                count("FU_CONTENTION_STALLS", fu_stall)
            if ild_stall:
                count("ILD_STALL", ild_stall)
            count("RESOURCE_STALLS", total_stall)
        if self.os is not None:
            self._advance_os_clock(instructions)

    # ------------------------------------------------------------ data side
    def data_read(self, address: int, size: int = 4) -> int:
        """Simulated load; returns the number of L1D misses incurred."""
        return self._native_state.charged_strided(address, 0, 1, size, 0)

    def data_read_fields(self, base: int, fields: Tuple[Tuple[int, int], ...]) -> int:
        """Load the ``(offset, width)`` fields of the record at ``base``:
        one :meth:`data_read` per field, in order; returns the L1D misses."""
        return self._native_state.charged_fields(base, fields)

    def data_write(self, address: int, size: int = 4) -> int:
        """Simulated store; returns the number of L1D misses incurred."""
        return self._native_state.charged_strided(address, 0, 1, size, 1)

    def data_read_span(self, address: int, size: int, refs: Optional[int] = None) -> int:
        """Streaming load of a contiguous span; returns the L1D misses incurred.

        This is the data side of the vectorized batch path: a tight loop
        issuing ``refs`` element loads over ``size`` contiguous bytes (one
        load per cache line when ``refs`` is omitted).  When ``refs`` evenly
        divides ``size`` the span is charged as ``refs`` contiguous
        element loads through :meth:`data_read_strided`, which is
        count-identical -- in every cache, TLB and counter -- to issuing the
        element loads one :meth:`data_read` at a time; the per-line
        fallback keeps the legacy "one load per cache line" accounting.
        """
        if size <= 0:
            return 0
        if refs is not None and refs > 0 and size % refs == 0:
            width = size // refs
            return self.data_read_strided(address, width, refs, width)
        line_bytes = self.caches.l1d.spec.line_bytes
        line_count = len(self.caches.l1d.lines_spanned(address, size))
        misses = self.data_read_strided(address, line_bytes, line_count, 1)
        if refs is not None and refs > line_count:
            # Extra element loads are line hits by construction; account the
            # references (and the L1D accesses) without re-probing.
            self._count("DATA_MEM_REFS", refs - line_count)
            self.caches.l1d.stats.add_bulk(0, refs - line_count)
        return misses

    def data_read_strided(self, address: int, stride: int, count: int,
                          size: int = 4) -> int:
        """Bulk load of ``count`` ``size``-byte elements ``stride`` bytes
        apart; returns the L1D misses incurred.

        The span-charging fast path for columnar dataflow: one call charges
        a whole column-vector touch (contiguous when ``stride == size``, a
        field stride through NSM records, or the executor's cyclic workspace
        churn) with *identical* hit/miss counts, LRU evolution and counter
        values to ``count`` individual :meth:`data_read` calls in ascending
        address order.  The DTLB is updated once per page-run of elements
        (charging every element access), the caches once per call; a stride
        <= 0 revisits one element.
        """
        return self._native_state.charged_strided(address, stride, count, size, 0)

    def data_write_strided(self, address: int, stride: int, count: int,
                           size: int = 4) -> int:
        """Bulk store of ``count`` ``size``-byte elements ``stride`` bytes
        apart; returns the L1D misses incurred.

        The store-side twin of :meth:`data_read_strided`: one call charges a
        whole line-run flush (page write-out) with identical hit/miss
        counts, LRU/dirty evolution and counter values to ``count``
        individual :meth:`data_write` calls in ascending address order.
        """
        return self._native_state.charged_strided(address, stride, count, size, 1)

    def data_read_scattered(self, addresses: Sequence[int], size: int = 4,
                            write: bool = False) -> int:
        """One :meth:`data_read` (:meth:`data_write` when ``write``) of
        ``size`` bytes per address, in order, as one charged call -- a key
        vector's hash buckets; returns the L1D misses.  A non-integer
        address or size raises before anything is charged."""
        return self._native_state.charged_addresses(addresses, size, write)

    def data_write_scattered(self, addresses: Sequence[int], size: int = 4) -> int:
        """The store-side twin of :meth:`data_read_scattered`."""
        return self.data_read_scattered(addresses, size, True)

    def count_data_refs(self, count: int) -> None:
        """Account ``count`` loads/stores that hit the L1 D-cache.

        The paper observes that memory references are at least half of the
        retired instructions and that the overwhelming majority hit the L1
        D-cache because they touch hot private structures (Section 5.2).
        Simulating each of those hits individually would not change any miss
        counter, so they are accounted in bulk.
        """
        if count > 0:
            self._count("DATA_MEM_REFS", count)

    # ---------------------------------------------------------- branch side
    def branch(self, site_address: int, taken: bool, backward: bool = False) -> bool:
        """Execute one dynamically simulated branch site visit."""
        btb_misses_before = self.branch_unit.stats.btb_misses
        mispredicted = self.branch_unit.execute(site_address, taken, backward)
        self.count_branches(
            1, taken=int(bool(taken)), mispredictions=int(mispredicted),
            btb_misses=self.branch_unit.stats.btb_misses - btb_misses_before)
        return mispredicted

    def count_branches(self, count: int, taken: int = 0, mispredictions: int = 0,
                       btb_misses: int = 0) -> None:
        """Account branches represented statistically rather than per-site.

        The simulated branch *sites* capture the data-dependent behaviour
        (predicate outcomes, loop exits, index descent); the remaining branch
        population of the code path (error checks, call/returns, highly
        predictable internal loops) is accounted in bulk with the
        misprediction count the executor extrapolates for it.
        """
        if count <= 0:
            return
        self._count("BR_INST_RETIRED", count)
        if taken:
            self._count("BR_TAKEN_RETIRED", taken)
        if mispredictions:
            self._count("BR_MISS_PRED_RETIRED", mispredictions)
        if btb_misses:
            self._count("BTB_MISSES", btb_misses)

    # -------------------------------------------------------- resource side
    def add_resource_stalls(self, dependency_cycles: float = 0.0,
                            functional_unit_cycles: float = 0.0,
                            ild_cycles: float = 0.0) -> None:
        """Charge resource-related stall cycles (TDEP, TFU, TILD)."""
        total = 0
        for event, cycles in (("PARTIAL_RAT_STALLS", dependency_cycles),
                              ("FU_CONTENTION_STALLS", functional_unit_cycles),
                              ("ILD_STALL", ild_cycles)):
            if cycles > 0:
                cycles = int(round(cycles))
                self._count(event, cycles)
                total += cycles
        if total:
            self._count("RESOURCE_STALLS", total)

    # ------------------------------------------------------------- progress
    def record_done(self, count: int = 1) -> None:
        """Mark ``count`` records as processed."""
        if count > 0:
            self._count("RECORDS_PROCESSED", count)

    # ------------------------------------------------------------ OS model
    def _advance_os_clock(self, instructions: int) -> None:
        """Advance the OS-interference clock by ``instructions`` retired user
        instructions and service every interrupt that falls due (for
        :meth:`retire` and :meth:`charge_routine`; a routine visit moves the
        same clock in C, where ``charge_routine`` sits, and enters
        :meth:`_service_interrupts` only when one fires).  Requires a model.
        """
        fired = self.os.note_instructions(instructions)
        if fired:
            self._service_interrupts(fired)

    def _service_interrupts(self, count: int) -> None:
        """Apply the effects of ``count`` simulated OS interrupts."""
        assert self.os is not None
        config = self.os.config
        counters = self.counters
        for _ in range(count):
            self.caches.l1i.invalidate_fraction(config.l1i_flush_fraction)
            if config.flush_itlb:
                self.itlb.flush()
                self._native_state.last_instruction_page = -1
        counters.add("OS_INTERRUPTS", count, MODE_SUP)
        counters.add("INST_RETIRED", config.kernel_instructions * count, MODE_SUP)
        counters.add("UOPS_RETIRED",
                     int(config.kernel_instructions * count
                         * self.spec.pipeline.uops_per_instruction), MODE_SUP)
        counters.add("CPU_CLK_UNHALTED", config.kernel_cycles * count, MODE_SUP)

    # ----------------------------------------------------------- finalising
    def finalize(self) -> EventCounters:
        """Assemble derived counters and return an immutable snapshot.

        This fills in ``IFU_MEM_STALL`` (accumulated front-end stall cycles),
        the memory-bus traffic counters, and the ground-truth
        ``CPU_CLK_UNHALTED`` cycle total computed by the
        :class:`~repro.hardware.pipeline.CycleModel`.  The processor can keep
        being driven afterwards; each call to :meth:`finalize` re-derives the
        totals from scratch for the counts accumulated so far.
        """
        counters = self.counters
        # Derived counters are recomputed from scratch on every call.
        for event in ("IFU_MEM_STALL", "CPU_CLK_UNHALTED", "BUS_TRAN_MEM",
                      "MEMORY_LATENCY_CYCLES", "L2_RQSTS", "L2_LINES_IN"):
            counters.user.pop(event, None)

        counters.add("IFU_MEM_STALL",
                     int(round(self._native_state.l1i_stall_cycles)))

        l2_stats = self.caches.l2.stats
        l2_misses = l2_stats.total_misses
        counters.add("L2_RQSTS", l2_stats.total_accesses)
        counters.add("L2_LINES_IN", l2_misses)

        # Main-memory traffic: every L2 miss is a line fill, every L2
        # write-back is a line store.
        self.memory.reset_stats()
        self.memory.fill(l2_misses)
        self.memory.writeback(l2_stats.writebacks)
        counters.add("BUS_TRAN_MEM", l2_misses + l2_stats.writebacks)
        counters.add("MEMORY_LATENCY_CYCLES", self.memory.stats.latency_cycles_accumulated)

        breakdown = self.cycle_model.assemble(counters)
        counters.add("CPU_CLK_UNHALTED", int(round(breakdown.total)))
        self._finalized = True
        return counters.snapshot()

    # -------------------------------------------------------------- queries
    def bandwidth_utilisation(self) -> float:
        """Fraction of peak memory bandwidth used by the run so far."""
        cycles = self.counters.get("CPU_CLK_UNHALTED")
        if not cycles:
            cycles = self.cycle_model.total_cycles(self.counters)
        return self.memory.bandwidth_utilisation(cycles)

    def reset(self) -> None:
        """Reset all statistics and microarchitectural state."""
        self.reset_counters()
        for cache in (self.caches.l1d, self.caches.l1i, self.caches.l2):
            cache.invalidate_all()
        self.dtlb.flush()
        self.itlb.flush()
        self.branch_unit.flush()
        self._native_state.last_instruction_page = -1

    def reset_counters(self) -> None:
        """Reset statistics but keep cache/TLB/BTB contents (warm measurement).

        This mirrors the paper's methodology of warming up the caches with
        multiple runs of a query before measuring it.
        """
        self.caches.reset_stats()
        self.dtlb.reset_stats()
        self.itlb.reset_stats()
        self.branch_unit.reset_stats()
        self.memory.reset_stats()
        if self.os is not None:
            self.os.reset()
        self.counters.reset()
        self._native_state.l1i_stall_cycles = 0.0
        self._finalized = False

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SimulatedProcessor({self.spec.name})"
