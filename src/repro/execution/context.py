"""Execution context: the bridge between operators and the simulated hardware.

Every physical operator runs against an :class:`ExecutionContext`, which owns

* the :class:`~repro.hardware.processor.SimulatedProcessor` being driven,
* the system profile and its :class:`~repro.execution.code_layout.CodeLayout`,
* the system's private *workspace* (hash areas, aggregation state, scratch
  structures) in the simulated address space, and
* the bookkeeping for cold-code rotation, bulk-branch extrapolation and
  deterministic pseudo-random branch outcomes.

Operators interact with it through a handful of calls:

``visit(operation, data_taken=...)``
    Charge one invocation of an executor routine: fetch its hot and cold
    instruction lines, retire its instructions, account its bulk memory
    references, touch the private working set, execute its branch sites and
    charge its resource-stall cycles.

``read_fields(entry, layout, columns)`` / ``read_record(entry, layout)``
    Issue the data-side accesses for a record according to the profile's
    record-access style, and decode the requested column values.

``read_address(addr, size)`` / ``write_address(addr, size)``
    Raw data accesses for index nodes, hash buckets and similar structures
    (``read_addresses`` / ``write_addresses``: a vector of them, one call).

``record_done()``
    Mark a record boundary (per-record metrics, OS-interrupt pacing).

``charge_pipeline(program, records, outcomes, operands, start)``
    Charge one page of a tuple pipeline -- the scan's per-record Volcano
    sequence and its consumer's per-row charges, declared once as steps
    (``visit_step``, ``load_step``, ``STEP_*``) -- in one call.

The context also owns two cross-cutting concerns of the columnar engine:

* **Span charging**: column-vector reads, full-record sweeps, page
  transfers and workspace churn reach the simulated hardware as bulk
  strided operations.  Each is count-identical to the per-element loads it
  stands for -- same cache/TLB hits and misses, same LRU evolution -- and
  only makes the *simulator* faster; ``tests/oracle.py`` keeps the
  per-element loops as ``PerAddressContext`` (on the reference machine of
  ``tests/reference_machine.py``) and the differential harness asserts the
  equivalence on every plan shape.
* **One charging path**: a routine visit is one call into the processor's
  charging block (``_cachesim``: a ``Context`` per execution context, a
  ``Segment`` per operation), which owns the per-visit bookkeeping -- the
  visit counter behind the pseudo-random branch outcomes, the cold-code and
  workspace cursors, the bulk-misprediction carry and the alternating /
  rare branch-site state.
"""

from __future__ import annotations

import struct
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..hardware.processor import SimulatedProcessor
from ..query.plans import ExecutionConfig
from ..storage.address_space import AddressSpace
from ..storage.heapfile import ScanEntry
from ..storage.page import decode_values
from ..storage.schema import RecordLayout
from ..systems.profile import (ACCESS_FIELDS_ONLY, BRANCH_KIND_ALTERNATING,
                               BRANCH_KIND_COLD, BRANCH_KIND_DATA, BRANCH_KIND_LOOP,
                               BRANCH_KIND_RARE, SystemProfile)
from .code_layout import CodeLayout, LINE_BYTES
from .kernels import resolve_kernels

#: Branch-site kind codes of a segment handle (``_cachesim.c`` resolves site
#: outcomes itself; the codes mirror ``BRANCH_KIND_*``).
_NATIVE_KIND_CODES = {BRANCH_KIND_LOOP: 0, BRANCH_KIND_DATA: 1,
                      BRANCH_KIND_ALTERNATING: 2, BRANCH_KIND_RARE: 3,
                      BRANCH_KIND_COLD: 4}

#: Step kinds of a pipeline program (:meth:`ExecutionContext.charge_pipeline`;
#: ``_cachesim.c`` numbers them the same): a visit whose data branches are
#: pseudo-random, take the record's outcome, or take "the row's key
#: matched"; the loads of a record (``(offset, scale, width)`` each, at
#: ``offset + scale * key``); a fixed read or write ``(address, size)``; a
#: read or write ``(size,)`` at the row's bucket address; and steps run once
#: per match of the row.
(STEP_VISIT, STEP_VISIT_OUTCOME, STEP_VISIT_MATCHED, STEP_LOADS, STEP_READ,
 STEP_WRITE, STEP_READ_BUCKET, STEP_WRITE_BUCKET, STEP_EACH_MATCH) = range(9)


def _consecutive_runs(slots: Sequence[int]) -> Iterable[Sequence[int]]:
    """Split an ascending slot list into maximal consecutive runs."""
    count = len(slots)
    if count and slots[count - 1] - slots[0] == count - 1:
        yield slots  # a single consecutive run -- the common full-scan case
        return
    start = 0
    for position in range(1, len(slots)):
        if slots[position] != slots[position - 1] + 1:
            yield slots[start:position]
            start = position
    yield slots[start:]


class ExecutionContext:
    """Per-(system, processor) execution state shared by all operators."""

    def __init__(self,
                 processor: SimulatedProcessor,
                 profile: SystemProfile,
                 address_space: AddressSpace,
                 code_layout: Optional[CodeLayout] = None,
                 execution: Optional[ExecutionConfig] = None) -> None:
        self.processor = processor
        self.profile = profile
        #: The context's own fork of the database's address space: what it
        #: allocates (workspace, spill frames and pages) is placed as in any
        #: other context on the same database, and never leaks into it.
        self.address_space = address_space.fork()
        self.layout = code_layout or CodeLayout(profile, address_space)
        #: The execution knobs the executor runs plans under -- the same
        #: frozen object the session holds (engine, batch geometry, join
        #: memory budget, ...).
        self.execution = execution or ExecutionConfig()
        #: Data-plane kernel backend (:mod:`repro.execution.kernels`) the
        #: vectorized operators compute with.  Kernels never charge the
        #: simulated hardware -- they only transform plain data -- so the
        #: choice is invisible to every simulated counter.
        self.kernels = resolve_kernels(self.execution.kernel_backend)

        # Private working set (cycled through on every routine invocation).
        self.workspace_base = self.address_space.allocate(
            "workspace", profile.workspace_bytes, alignment=64)

        self.rows_produced = 0

        #: Optional shared-scan coordinator
        #: (:class:`~repro.execution.parallel.SharedScanCoordinator`),
        #: attached by the serving layer for one admission round.  When set,
        #: vectorized sequential scans attach to (or record) one scan per
        #: scan signature: the recording's charge tapes are replayed into
        #: this context, so the data work runs once per round while
        #: simulated counts stay identical to a solo execution.
        #: ``None`` (the default) leaves every code path untouched.
        self.shared_scans = None

        #: Backing-store region name for spill buffer pools (``None`` = the
        #: shared ``disk`` region).  The serving layer points each logical
        #: session at a private, region-size-aligned namespace so concurrent
        #: memory-budgeted joins cannot collide on backing-store pages.
        self.disk_namespace: Optional[str] = None

        #: Optional query tracer (:class:`~repro.observability.trace.Tracer`),
        #: attached by the session around one measured unit when
        #: ``tracing != "off"``.  Tracing hooks are single attribute checks
        #: against this field; ``None`` (the default) leaves every code path
        #: bit-identical to previous releases.  The tracer only *reads*
        #: hardware state (snapshot-delta spans), so even when attached it
        #: changes zero simulated counts.
        self.tracer = None

        #: Optional micro-adaptive execution manager
        #: (:class:`~repro.adaptive.AdaptiveExecution`), attached by the
        #: session when ``adaptivity != "off"``.  When set, vectorized
        #: filters decompose multi-conjunct ``And`` predicates and evaluate
        #: them in policy order with short-circuit selection vectors;
        #: ``None`` (the default) leaves every code path bit-identical to
        #: previous releases.
        self.adaptive = None

        #: Cumulative simulated page-transfer counters (all spill pools),
        #: plus the spill partitions the hash join built in memory *over*
        #: its budget because the recursion cap left it no other choice.
        self.io_stats: Dict[str, int] = {"page_reads": 0, "page_writes": 0,
                                         "bytes_read": 0, "bytes_written": 0,
                                         "budget_overruns": 0}

        # ``read_fields`` plans, one per (layout, columns), not per record.
        self._field_plans: Dict[Tuple[int, Tuple[str, ...]], tuple] = {}

        #: This context's visit state in the processor's charging block
        #: (``_cachesim.Context``): the workspace and cold-pool geometry and
        #: the per-visit bookkeeping (``visit_counter``, ``cold_cursor``,
        #: ``workspace_cursor``, ``bulk_carry`` and the branch-site state).
        self._native_ctx = processor._native_state.context(
            self.workspace_base, profile.workspace_touch_stride,
            profile.workspace_bytes, self.layout.cold_pool_base,
            self.layout.cold_pool_lines, LINE_BYTES)
        #: The segment (``_cachesim.Segment``) of every operation visited so
        #: far: its visit constants, invocation count and ``visit``.
        self._segments: Dict[str, object] = {}

    @property
    def op_invocations(self) -> Mapping[str, int]:
        """Routine invocations, one per interpreted call: a batched call
        (:meth:`visit_batch`) counts once however many records it covers.
        Read-only: the segments keep the counts.  An operation is present
        once it was visited (a program binds its segments before its first
        charge)."""
        return MappingProxyType({operation: segment.invocations
                                 for operation, segment in self._segments.items()
                                 if segment.invocations})

    @property
    def _site_state(self) -> Mapping[int, int]:
        """Alternating / rare branch-site state, by site address (read-only)."""
        return MappingProxyType(self._native_ctx.site_state())

    # ------------------------------------------------------------------ core
    def visit(self, operation: str, data_taken: Optional[bool] = None,
              repeat: int = 1) -> None:
        """Charge ``repeat`` invocations of ``operation`` to the processor:
        per visit, fetch its hot lines and its slice of the cold-code pool,
        retire its instructions and bulk references, charge its resource
        stalls (ticking the OS clock), touch the workspace, execute its
        branch sites and account its bulk branch population."""
        segment = self._segments.get(operation) or self._segment(operation)
        segment.visit(data_taken, repeat)

    def visit_step(self, operation: str, kind: int = STEP_VISIT) -> tuple:
        """A visit of ``operation`` as a pipeline step: ``kind`` is
        ``STEP_VISIT``, ``STEP_VISIT_OUTCOME`` or ``STEP_VISIT_MATCHED``."""
        return (kind, self._segments.get(operation) or self._segment(operation))

    def charge_pipeline(self, program: tuple, records: Sequence[int],
                        outcomes: Optional[Sequence[bool]] = None,
                        operands: Optional[tuple] = None, start: int = 0) -> int:
        """Charge one page of a tuple pipeline in one call.

        ``program`` is ``(page_steps, record_steps, row_steps, done,
        pause)``.  From record ``start`` on -- after ``page_steps`` at 0,
        after finishing the paused record ``start - 1`` past it -- each
        record runs ``record_steps`` (its key in ``records``, its outcome in
        ``outcomes``, ``None``: every record qualifies), then, when it
        qualifies, ``row_steps`` (``operands``: ``(buckets, matches)``, one
        entry per qualifying record, for the bucket and match steps), then
        with ``done`` a :meth:`record_done`.  With ``pause`` it returns the
        index of a qualifying record right after its ``row_steps``, so the
        caller can hand the row on; else, and at the end of the page, the
        record count.  A visit fires the OS interrupt handler where a
        :meth:`visit` would; every argument is checked before the first
        charge.
        """
        return self._native_ctx.pipeline(program, records, outcomes, operands,
                                         start)

    def visit_batch(self, operation: str, count: int) -> None:
        """Charge ``count`` record-iterations of ``operation`` run as one batch.

        The vectorized engine invokes a routine once per *batch* and loops a
        tight body over the records, so the interpretation overhead -- call
        dispatch, per-call setup, the cold-code excursion, the poorly
        predicted call-site branches -- is paid once and amortised.  The
        charge is therefore one full interpreted visit plus ``count - 1``
        loop-body iterations that:

        * retire only ``vector_body_fraction`` of the routine's instruction
          path (and of its workspace churn and resource stalls),
        * fetch no instruction lines (the body stays resident in L1I across
          iterations -- exactly the locality the tuple engine lacks), and
        * execute one well-predicted loop-closing branch per iteration
          instead of the routine's data/cold branch sites.
        """
        if count <= 0:
            return
        (self._segments.get(operation) or self._segment(operation)).visit(None, 1)
        segment = self.layout.segment(operation)
        iterations = count - 1
        if iterations <= 0:
            return
        processor = self.processor
        fraction = self.profile.vector_body_fraction
        body_instructions = max(int(round(segment.instructions * fraction)), 1)
        body_uops = max(int(round(segment.uops * fraction)), 1)
        processor.retire(body_instructions * iterations, body_uops * iterations)
        if segment.data_refs:
            processor.count_data_refs(segment.data_refs * iterations)
        body_touches = int(round(segment.workspace_touches * fraction))
        if body_touches:
            self._native_ctx.workspace(body_touches * iterations)
        # The loop-closing branch: backward, taken every iteration, predicted
        # after the first trip -- charged in bulk with no mispredictions.
        processor.count_branches(iterations, taken=iterations)
        processor.add_resource_stalls(
            segment.dependency_stall_cycles * fraction * iterations,
            segment.fu_stall_cycles * fraction * iterations,
            segment.ild_stall_cycles * fraction * iterations)

    def visit_conjunct_batch(self, operation: str, outcomes: Sequence,
                             site: int = 0, key: Optional[str] = None) -> None:
        """Charge one adaptive conjunct evaluation over ``len(outcomes)`` rows.

        The instruction/retirement side is exactly one batched routine visit
        (:meth:`visit_batch`); the branch side executes one *data-dependent*
        conditional per row whose outcome is that row's pass/fail -- the
        selection branch the tuple engine models per record and the
        vectorized engine amortised away.  ``site`` identifies the conjunct
        (not its current evaluation position), so the predictor's per-site
        state follows a conjunct across policy reorderings: a well-skewed
        conjunct trains its 2-bit counters and mispredicts rarely, a
        50%-selective one stays a coin flip.  This is what makes conjunct
        ordering measurable on the simulated branch unit.

        ``key`` (the conjunct's stable identity) routes the simulated branch
        outcomes into the adaptive statistics collector when one is attached.
        """
        count = len(outcomes)
        if count <= 0:
            return
        self.visit_batch(operation, count)
        # One synthetic site per conjunct in the layout's conjunct block,
        # 16 bytes apart: the predictor drops the low 4 address bits, so
        # sites in this block can never share a predictor entry with each
        # other or with any code segment's real branch sites (the block
        # follows the last segment).  256 sites before the block wraps --
        # far beyond any real conjunct count.
        address = self.layout.conjunct_sites_base + ((site & 0xFF) << 4)
        # The per-row branch loop and its ``count_branches``, in one C call.
        taken, mispredictions = self.processor._native_state.conjunct(address,
                                                                      outcomes)
        if key is not None and self.adaptive is not None:
            self.adaptive.collector.observe_branches(key, count, taken,
                                                     mispredictions)

    def l1d_misses(self) -> int:
        """Current simulated L1 data-cache miss total (all ports).

        The adaptive batch-size decision samples this around a scan batch's
        charges; the delta is the batch's L1D pressure.
        """
        return self.processor.caches.l1d.stats.total_misses

    def total_invocations(self) -> int:
        """Total interpreted routine invocations charged so far."""
        return sum(self.op_invocations.values())

    def snapshot_invocations(self) -> Dict[str, int]:
        return dict(self.op_invocations)

    def _segment(self, operation: str):
        """Bind ``operation``'s segment -- its visit constants, its
        invocation count and its ``visit`` entry point -- on first visit.

        The bulk-branch misprediction expectation is pre-multiplied, so the
        fractional carry evolves by one float addition per visit.
        """
        segment = self.layout.segment(operation)
        stall_ints = segment.stall_ints
        bulk = segment.bulk_branches
        sites = tuple((_NATIVE_KIND_CODES[site.kind], site.address, site.weight)
                      for site in segment.branch_sites)
        return self._segments.setdefault(operation, self._native_ctx.segment(
            (segment.base_address, len(segment.hot_lines),
             segment.cold_lines_per_visit,
             segment.instructions, segment.uops, segment.data_refs,
             stall_ints[0], stall_ints[1], stall_ints[2], stall_ints[3],
             segment.workspace_touches, bulk, segment.bulk_taken,
             bulk * self.profile.bulk_branch_misprediction_rate,
             int(round(bulk * self.profile.bulk_branch_btb_miss_rate)),
             sites)))

    # ----------------------------------------------------------- data access
    def read_address(self, address: int, size: int = 4) -> None:
        """Simulated load from an arbitrary structure (index node, bucket...)."""
        self.processor.data_read(address, size)

    def write_address(self, address: int, size: int = 4) -> None:
        """Simulated store to an arbitrary structure."""
        self.processor.data_write(address, size)

    def read_addresses(self, addresses: Sequence[int], size: int = 4) -> None:
        """:meth:`read_address` of every address, in order, as one charge."""
        self.processor.data_read_scattered(addresses, size)

    def write_addresses(self, addresses: Sequence[int], size: int = 4) -> None:
        """:meth:`write_address` of every address, in order, as one charge."""
        self.processor.data_write_scattered(addresses, size)

    # ------------------------------------------------------------- page I/O
    # The buffer pool's simulated backing store charges page transfers here
    # (the ``io`` collaborator of :class:`~repro.storage.buffer_pool.
    # BufferPool`).  A transfer runs the buffer-manager code path once (the
    # same ``page_boundary`` segment a scan charges when it crosses into a
    # new page) and then moves the page's cache lines to/from the ``disk``
    # region address, as one strided bulk operation -- count-identical to
    # a per-line loop.

    def page_io_out(self, address: int, nbytes: int) -> None:
        """Charge one page write-back to the backing store at ``address``."""
        self._traced_io("spill_write", self._page_io_out, address, nbytes)

    def _traced_io(self, name: str, transfer, address: int, nbytes: int) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.full:
            with tracer.span(name, kind="io"):
                transfer(address, nbytes)
            tracer.io_event(name, nbytes)
        else:
            transfer(address, nbytes)

    def _page_io_out(self, address: int, nbytes: int) -> None:
        self.visit("page_boundary")
        lines = (nbytes + LINE_BYTES - 1) // LINE_BYTES
        self.processor.data_write_strided(address, LINE_BYTES, lines, LINE_BYTES)
        self.io_stats["page_writes"] += 1
        self.io_stats["bytes_written"] += nbytes

    def page_io_in(self, address: int, nbytes: int) -> None:
        """Charge one page reload from the backing store at ``address``."""
        self._traced_io("spill_read", self._page_io_in, address, nbytes)

    def _page_io_in(self, address: int, nbytes: int) -> None:
        self.visit("page_boundary")
        lines = (nbytes + LINE_BYTES - 1) // LINE_BYTES
        self.processor.data_read_strided(address, LINE_BYTES, lines, LINE_BYTES)
        self.io_stats["page_reads"] += 1
        self.io_stats["bytes_read"] += nbytes

    def read_fields(self, entry: ScanEntry, layout: RecordLayout,
                    columns: Sequence[str]) -> Dict[str, object]:
        """Access and decode the given columns of a heap record.

        Systems with the ``fields_only`` access style touch only the cache
        lines containing the requested fields; ``full_record`` systems sweep
        the whole record (slot parsing / record copy), which is what drives
        their higher L2 data-miss counts per record.
        """
        decoders = self.charge_fields(entry, layout, columns)
        # The record's NSM image (on PAX gathered from its minipages).
        view = entry.page.record_view(entry.slot)
        out = {}
        for column, offset, code, width in decoders:
            if code is None:
                raw = bytes(view[offset:offset + width])
                out[column] = raw.rstrip(b"\x00").decode(errors="replace")
            else:
                out[column] = struct.unpack_from(code, view, offset)[0]
        return out

    def charge_fields(self, entry: ScanEntry, layout: RecordLayout,
                      columns: Sequence[str]) -> tuple:
        """The charge half of :meth:`read_fields`: the same loads, in the
        same order, on NSM and PAX; nothing is decoded.  Returns the
        columns' ``(column, offset, struct code, width)`` decoders."""
        _, _, nsm_loads, pax_loads, decoders, _ = self._plan(layout, columns)
        page = entry.page
        if getattr(page, "columnar", False):
            processor = self.processor
            slot = entry.slot
            for offset, width in pax_loads:
                processor.data_read(page.field_address(slot, offset), width)
        else:
            # One charged call: the same addresses, in the same order, as a
            # ``data_read`` per load.
            self.processor.data_read_fields(entry.address, nsm_loads)
        return decoders

    def load_step(self, page, layout: RecordLayout,
                  columns: Sequence[str]) -> tuple:
        """The charge half of :meth:`read_fields` on ``page``, as a pipeline
        step: the loads it issues for a record -- the same addresses and
        widths, in the same order -- with the record keyed by
        :meth:`record_keys`.  Nothing is decoded."""
        plan = self._plan(layout, columns)
        if getattr(page, "columnar", False):
            # Each load is a whole column (or filler) slice, so it sits at
            # ``width`` bytes per slot in its minipage: keyed by the slot.
            return (STEP_LOADS, tuple((page.field_address(0, offset), width, width)
                                      for offset, width in plan[3]))
        return plan[5]

    @staticmethod
    def record_keys(page, slots: Sequence[int]) -> Sequence[int]:
        """The keys :meth:`load_step` places the loads of ``slots`` by: the
        records' addresses on an NSM page, the slots on a PAX page."""
        if getattr(page, "columnar", False):
            return slots
        addresses = page.slot_addresses()
        return [addresses[slot] for slot in slots]

    def _plan(self, layout: RecordLayout, columns: Sequence[str]) -> tuple:
        """The memoized :meth:`_field_plan` of ``(layout, columns)``."""
        key = (id(layout), columns if type(columns) is tuple else tuple(columns))
        plan = self._field_plans.get(key)
        if plan is None or plan[0] is not layout:
            plan = self._field_plans[key] = self._field_plan(layout, key[1])
        return plan

    def _field_plan(self, layout: RecordLayout, columns: Tuple[str, ...]) -> tuple:
        """``(layout, columns, nsm_loads, pax_loads, decoders, nsm_step)``:
        the ``(offset, width)`` loads of one record on an NSM and on a PAX
        page -- the requested fields on a ``fields_only`` system; on a
        ``full_record`` one the whole record, as one sweep on NSM and one
        load per minipage slice on PAX --, one ``(column, offset, struct
        code or None for CHAR, width)`` decoder per column, and the NSM
        loads as a :meth:`load_step` keyed by the record's address."""
        if self.profile.record_access_style == ACCESS_FIELDS_ONLY:
            nsm_loads = pax_loads = tuple(map(layout.field_slice, columns))
        else:
            nsm_loads, pax_loads = ((0, layout.record_size),), layout.slices
        codecs = layout.column_codecs
        return (layout, columns, nsm_loads, pax_loads,
                tuple((column,) + codecs[column] for column in columns),
                (STEP_LOADS, tuple((offset, 1, width) for offset, width in nsm_loads)))

    def read_record(self, entry: ScanEntry, layout: RecordLayout) -> Tuple:
        """Access the full record and decode every column (OLTP paths)."""
        self._touch_record(entry, layout, self.processor.data_read)
        return layout.decode(bytes(entry.page.record_view(entry.slot)))

    def write_record(self, entry: ScanEntry, layout: RecordLayout) -> None:
        """Simulate the store traffic of an in-place record update."""
        self._touch_record(entry, layout, self.processor.data_write)

    def _touch_record(self, entry: ScanEntry, layout: RecordLayout, access) -> None:
        """Touch a whole record: one sweep on an NSM page; on a PAX page the
        values are scattered, so one access per minipage slice."""
        page = entry.page
        if not getattr(page, "columnar", False):
            access(entry.address, layout.record_size)
            return
        for offset, width in layout.slices:
            access(page.field_address(entry.slot, offset), width)

    def read_column_batch(self, page, layout: RecordLayout, slots: Sequence[int],
                          column: str) -> np.ndarray:
        """Read and decode one column for a batch of slots on one page.

        On a PAX page the values are contiguous in the column's minipage, so
        the batch becomes streaming span reads -- one per consecutive run of
        selected slots, so a sparse selection does not touch the cache lines
        of filtered-out rows.  On an NSM page the engine must still stride
        record by record, issuing one field-sized load per slot -- the
        layout, not the operator, determines the access pattern.  Either
        way each consecutive-slot run reaches the hardware as one bulk
        strided read, count-identical to its element loads one at a time.
        """
        offset, width = layout.field_slice(column)
        if slots and getattr(page, "columnar", False):
            for run in _consecutive_runs(slots):
                address, _span_bytes = page.column_span(column, run)
                self.processor.data_read_strided(address, width, len(run), width)
        elif slots:
            self._charge_nsm_stride(page, slots, offset, width, layout.record_size)
        return decode_values(page, layout, column, slots)

    def read_column_group_batch(self, page, layout: RecordLayout,
                                slots: Sequence[int],
                                columns: Sequence[str]) -> Dict[str, np.ndarray]:
        """Read and decode a group of columns for a batch of slots on one page.

        This is the batch counterpart of :meth:`read_fields` and honours the
        same access-style contract: ``fields_only`` systems (and PAX pages)
        load each referenced column individually, while ``full_record``
        systems on NSM pages sweep every record once per group (slot
        parsing / record copy) -- exactly the per-record traffic the tuple
        engine charges per ``read_fields`` call, so the engine switch does
        not silently change a system's data-stall profile.  The
        full-record sweep of a consecutive-slot run is one contiguous bulk
        read.
        """
        if not columns:
            return {}
        if (not slots or getattr(page, "columnar", False)
                or self.profile.record_access_style == ACCESS_FIELDS_ONLY):
            return {column: self.read_column_batch(page, layout, slots, column)
                    for column in columns}
        record_size = layout.record_size
        self._charge_nsm_stride(page, slots, 0, record_size, record_size)
        return {column: decode_values(page, layout, column, slots)
                for column in columns}

    def _charge_nsm_stride(self, page, slots: Sequence[int], offset: int,
                           width: int, record_size: int) -> None:
        """Charge one ``width``-byte load at ``offset`` into each slot's record.

        Each consecutive-slot run is one bulk read strided by the (fixed)
        record size; a run whose records turn out not to be evenly spaced
        issues the loads individually.
        """
        processor = self.processor
        for run in _consecutive_runs(slots):
            base = page.slot_address(run[0])
            count = len(run)
            if count > 1 and (page.slot_address(run[-1]) - base
                              != (count - 1) * record_size):
                for slot in run:
                    processor.data_read(page.slot_address(slot) + offset, width)
            else:
                processor.data_read_strided(base + offset, record_size,
                                            count, width)

    # ------------------------------------------------------------- workspace
    def allocate_workspace(self, size: int, alignment: int = 64) -> int:
        """Allocate a dedicated workspace area (hash table, sort run, ...)."""
        return self.address_space.allocate("workspace", size, alignment=alignment)

    # -------------------------------------------------------------- progress
    def record_done(self, count: int = 1) -> None:
        self.processor.record_done(count)

    def row_produced(self, count: int = 1) -> None:
        self.rows_produced += count
