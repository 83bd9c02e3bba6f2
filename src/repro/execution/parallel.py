"""Morsel-driven parallel execution over the columnar dataflow.

A :class:`ColumnBatch` is a self-contained work item, which makes the
vectorized engine's leaf scans embarrassingly partitionable: split the heap
into contiguous *morsels* of pages, produce each morsel's batches
independently, and concatenate the outputs in page order.  The subtlety is
the simulated hardware: the paper's entire methodology rests on exact event
counts, and cache/TLB/branch state evolves with every touch, so letting N
workers charge N private simulated processors would make the counts depend
on the partitioning.

The design here keeps the *data work* parallel and the *hardware charging*
serial-equivalent by splitting the two:

* A worker executes its morsel's scan against a :class:`TapeRecorder` -- an
  execution-context stand-in that performs all the real data work (page
  decoding, predicate vectors, selection gathers) but, instead of driving a
  simulated processor, appends every charge the operator issues to a
  *charge tape*.  Charge arguments (routine names, record counts, page
  addresses, strides) are pure functions of the data, never of hardware
  state, so the tape is exactly the charge sequence the serial engine would
  have issued for that morsel.
* The parent consumes morsel results **in canonical (page) order** and
  replays each batch's tape segment into the real
  :class:`~repro.execution.context.ExecutionContext` immediately before
  yielding the batch downstream.  The real processor therefore observes the
  exact same interleaving of scan charges and downstream-operator charges
  as a serial run: rows, cache/TLB hit and miss counts, branch outcomes and
  the final cycle breakdown are *bit-identical* to ``parallelism=1`` -- by
  construction, independent of how many workers raced to produce the tapes
  (``tests/test_parallel_execution.py`` asserts this for every
  planner-producible plan shape and both layouts).

Where the platform can fork (:func:`fork_available`), morsels fan out to a
fork-based :class:`~concurrent.futures.ProcessPoolExecutor` (workers inherit
the database snapshot through fork, so nothing but the small task
descriptors and tapes crosses the process boundary); where it cannot, the
same morsel/tape machinery runs in-process.  Worker-local statistics objects
(:class:`~repro.hardware.counters.EventCounters`,
:class:`~repro.hardware.cache.CacheStats`,
:class:`~repro.hardware.tlb.TLBStats`,
:class:`~repro.hardware.branch.BranchStats`) all support commutative
``merge()``, so any telemetry the workers do accumulate can be folded
together in any completion order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..systems.profile import SystemProfile
from .kernels import ARRAY_KERNELS
from .vectorized import ColumnBatch, VecSeqScanOperator, VectorOperator

__all__ = [
    "ChargeOp", "TapeRecorder", "MorselSpec", "MorselResult",
    "ParallelExecution", "VecExchangeOperator", "replay_tape",
    "fork_available", "partition_pages",
    "RecordedScan", "SharedScanCoordinator", "SharedScanReplayOperator",
]

#: One recorded charge: an opcode tuple.  Kept as plain tuples of scalars so
#: tapes pickle compactly across the process boundary.
ChargeOp = tuple

_OP_VISIT = "v"
_OP_VISIT_BATCH = "vb"
_OP_READ = "dr"
_OP_WRITE = "dw"
_OP_READ_STRIDED = "drs"
_OP_RECORD_DONE = "rd"
_OP_ROWS = "rp"
#: Adaptive-filter ops: one conjunct evaluation (row outcomes packed as a
#: bytes object, one 0/1 byte per row) and one data-side stat observation.
_OP_VISIT_CONJUNCT = "vcb"
_OP_OBSERVE_CONJUNCTS = "oc"


def fork_available() -> bool:
    """True when fork-based process pools are usable on this platform."""
    try:
        import multiprocessing
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


class _TapeProcessor:
    """Processor stand-in that records data-side charges instead of
    simulating them.  Only the methods the scan data path issues exist; the
    recorded arguments are data-deterministic, so replaying them against the
    real processor reproduces the serial trace exactly."""

    __slots__ = ("ops",)

    def __init__(self, ops: List[ChargeOp]) -> None:
        self.ops = ops

    def data_read(self, address: int, size: int = 4) -> int:
        self.ops.append((_OP_READ, address, size))
        return 0

    def data_write(self, address: int, size: int = 4) -> int:
        self.ops.append((_OP_WRITE, address, size))
        return 0

    def data_read_strided(self, address: int, stride: int, count: int,
                          size: int = 4) -> int:
        self.ops.append((_OP_READ_STRIDED, address, stride, count, size))
        return 0

    def record_done(self, count: int = 1) -> None:
        self.ops.append((_OP_RECORD_DONE, count))


class TapeRecorder:
    """Execution-context stand-in used by morsel workers.

    Exposes exactly the surface a vectorized *scan* touches: routine visits,
    batched visits, column/record reads (inherited data-decoding logic from
    :class:`~repro.execution.context.ExecutionContext` via delegation to the
    real methods), record/row bookkeeping.  Every charge is appended to
    :attr:`ops`; the data values flow back to the operator unchanged.

    It deliberately does **not** allocate anything from an address space and
    owns no simulated hardware -- constructing one has no side effects on
    shared state, which is what makes the in-process pipeline byte-identical
    too.
    """

    def __init__(self, profile: SystemProfile) -> None:
        self.profile = profile
        self.ops: List[ChargeOp] = []
        self.processor = _TapeProcessor(self.ops)
        self.rows_produced = 0
        self.op_invocations: Dict[str, int] = {}
        #: Worker-local :class:`~repro.adaptive.AdaptiveExecution` (built
        #: from the morsel spec's snapshot).  Its collector adapts *within*
        #: the morsel; the recorded observation ops carry the same stats
        #: back to the parent's manager at replay time.
        self.adaptive = None
        #: Data-plane kernels for the worker's operators.  Kernel choice is
        #: invisible to results and charges, so workers always use the
        #: numpy backend.
        self.kernels = ARRAY_KERNELS

    # -- charge recording ---------------------------------------------------
    def visit(self, operation: str, data_taken: Optional[bool] = None,
              repeat: int = 1) -> None:
        self.op_invocations[operation] = self.op_invocations.get(operation, 0) + repeat
        self.ops.append((_OP_VISIT, operation, data_taken, repeat))

    def visit_batch(self, operation: str, count: int) -> None:
        if count <= 0:
            return
        self.op_invocations[operation] = self.op_invocations.get(operation, 0) + 1
        self.ops.append((_OP_VISIT_BATCH, operation, count))

    def visit_conjunct_batch(self, operation: str, outcomes, site: int = 0,
                             key: Optional[str] = None) -> None:
        if not len(outcomes):
            return
        self.op_invocations[operation] = self.op_invocations.get(operation, 0) + 1
        packed = bytes(bytearray(1 if outcome else 0 for outcome in outcomes))
        self.ops.append((_OP_VISIT_CONJUNCT, operation, packed, site, key))

    def observe_conjuncts(self, key: str, rows_in: int, rows_passed: int) -> None:
        if self.adaptive is not None:
            self.adaptive.collector.observe_batch(key, rows_in, rows_passed)
        self.ops.append((_OP_OBSERVE_CONJUNCTS, key, rows_in, rows_passed))

    def read_address(self, address: int, size: int = 4) -> None:
        self.ops.append((_OP_READ, address, size))

    def write_address(self, address: int, size: int = 4) -> None:
        self.ops.append((_OP_WRITE, address, size))

    def record_done(self, count: int = 1) -> None:
        self.ops.append((_OP_RECORD_DONE, count))

    def row_produced(self, count: int = 1) -> None:
        self.rows_produced += count
        self.ops.append((_OP_ROWS, count))

    def l1d_misses(self) -> None:
        """Workers drive no simulated hardware, so there is no L1D to
        observe; the batch-size-adaptive scan keeps the spec's fixed size
        and the parent observes the pressure at tape-replay time."""
        return None

    def take(self) -> List[ChargeOp]:
        """Return and clear the ops recorded since the last call."""
        ops = self.ops
        if not ops:
            return []
        taken = list(ops)
        ops.clear()
        return taken

    # -- data access (delegated to the real implementations) ---------------
    # These ExecutionContext methods only use self.processor and
    # self.profile, so they run unmodified against the recording processor
    # and return the decoded data values.  (``read_fields`` keeps per-context
    # plans and is not part of a scan's surface.)
    from .context import ExecutionContext as _Ctx
    read_column_batch = _Ctx.read_column_batch
    read_column_group_batch = _Ctx.read_column_group_batch
    read_record = _Ctx.read_record
    _charge_nsm_stride = _Ctx._charge_nsm_stride
    _touch_record = _Ctx._touch_record
    del _Ctx


def replay_tape(ops: Sequence[ChargeOp], ctx) -> None:
    """Replay recorded charges against a real execution context, in order.

    The replayed calls are exactly the calls a serial scan would have made,
    so the simulated hardware (and the context's invocation counters) end up
    in the identical state.
    """
    processor = ctx.processor
    visit = ctx.visit
    visit_batch = ctx.visit_batch
    data_read = processor.data_read
    data_read_strided = processor.data_read_strided
    for op in ops:
        tag = op[0]
        if tag == _OP_READ_STRIDED:
            data_read_strided(op[1], op[2], op[3], op[4])
        elif tag == _OP_READ:
            data_read(op[1], op[2])
        elif tag == _OP_VISIT_BATCH:
            visit_batch(op[1], op[2])
        elif tag == _OP_VISIT_CONJUNCT:
            # The packed bytes iterate as 0/1 ints -- exactly the outcome
            # sequence the worker's conjunct evaluation produced.
            ctx.visit_conjunct_batch(op[1], op[2], op[3], op[4])
        elif tag == _OP_OBSERVE_CONJUNCTS:
            ctx.observe_conjuncts(op[1], op[2], op[3])
        elif tag == _OP_VISIT:
            visit(op[1], op[2], op[3])
        elif tag == _OP_RECORD_DONE:
            ctx.record_done(op[1])
        elif tag == _OP_ROWS:
            ctx.row_produced(op[1])
        elif tag == _OP_WRITE:
            processor.data_write(op[1], op[2])
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown tape op {op!r}")


def _tape_replayer(ctx, span_name: str):
    """``replay(ops)`` for one operator's tape segments.  Under
    ``tracing="full"`` every replay is a subspan: the tape *is* the span's
    charge record, replayed in canonical order inside the operator's open
    pull span, so attribution is exact."""
    tracer = getattr(ctx, "tracer", None)
    if tracer is None or not tracer.full:
        return lambda ops: replay_tape(ops, ctx)

    def replay(ops):
        with tracer.span(span_name, kind="replay"):
            replay_tape(ops, ctx)
    return replay


# ---------------------------------------------------------------------------
# Morsels
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MorselSpec:
    """A self-contained description of one scan morsel (picklable)."""

    table: str
    page_start: int
    page_stop: int
    predicate: object
    output_columns: Tuple[str, ...]
    next_operation: str
    batch_size: int
    count_records: bool
    profile: SystemProfile
    #: Adaptivity mode and manager snapshot (policy state + stats observed
    #: so far) this morsel starts from; ``"off"``/``None`` for the static
    #: engine.  The worker adapts privately from here; its observations ride
    #: the charge tape back into the parent's manager.
    adaptivity: str = "off"
    adaptive_state: Optional[dict] = None


@dataclass
class MorselResult:
    """Batches (columns + length) and tape segments of one morsel.

    ``batches`` holds ``(columns, length, ops)`` triples in production
    order; ``trailing_ops`` are charges issued after the last batch (e.g.
    page-boundary visits of trailing empty pages).
    """

    batches: List[Tuple[Dict[str, list], int, List[ChargeOp]]] = field(default_factory=list)
    trailing_ops: List[ChargeOp] = field(default_factory=list)


def partition_pages(page_count: int, morsel_pages: int) -> List[Tuple[int, int]]:
    """Split ``page_count`` pages into contiguous ``[start, stop)`` morsels."""
    if page_count <= 0:
        return []
    morsel_pages = max(morsel_pages, 1)
    return [(start, min(start + morsel_pages, page_count))
            for start in range(0, page_count, morsel_pages)]


#: Database snapshot inherited by forked pool workers.  Set by the parent
#: immediately before the pool forks; never mutated afterwards.
_FORK_DATABASE = None


def _run_scan_morsel(spec: MorselSpec) -> MorselResult:
    """Worker entry point: execute one scan morsel against a tape recorder."""
    database = _FORK_DATABASE
    return _run_scan_morsel_on(database, spec)


def _run_scan_morsel_on(database, spec: MorselSpec) -> MorselResult:
    table = database.catalog.table(spec.table)
    recorder = TapeRecorder(spec.profile)
    if spec.adaptivity != "off":
        from ..adaptive import AdaptiveExecution
        recorder.adaptive = AdaptiveExecution.from_snapshot(spec.adaptive_state)
    operator = VecSeqScanOperator(
        table, recorder, predicate=spec.predicate,
        output_columns=spec.output_columns,
        next_operation=spec.next_operation,
        batch_size=spec.batch_size,
        count_records=spec.count_records,
        page_range=(spec.page_start, spec.page_stop))
    result = MorselResult()
    for batch in operator.batches():
        result.batches.append((batch.columns, batch.length, recorder.take()))
    result.trailing_ops = recorder.take()
    return result


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------
class ParallelExecution:
    """Morsel scheduler bound to one database.

    ``workers`` is the degree of parallelism.  Morsels run on a fork-based
    pool where the platform can fork and through the same pipeline
    in-process where it cannot.  Results are always consumed in canonical
    morsel order, so neither that nor any racing between pool workers can
    influence a single simulated count.
    """

    def __init__(self, database, workers: int) -> None:
        self.database = database
        self.workers = workers
        self.forks = fork_available()
        self._pool = None
        self._pool_stale = False

    # -- lifecycle ----------------------------------------------------------
    def _ensure_pool(self):
        if self._pool_stale and self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._pool_stale = False
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            global _FORK_DATABASE
            _FORK_DATABASE = self.database
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"))
            # Worker processes are forked lazily; force them to spawn now,
            # while the module-global snapshot points at *our* database
            # (another executor could repoint it before a lazy fork).
            for future in [self._pool.submit(os.getpid)
                           for _ in range(self.workers)]:
                future.result()
        return self._pool

    def invalidate_snapshot(self) -> None:
        """Mark the forked database snapshot stale (after any update).

        The next morsel dispatch re-forks the pool so workers see current
        data.  The in-process pipeline always reads live data and ignores
        this.
        """
        self._pool_stale = True

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        global _FORK_DATABASE
        if _FORK_DATABASE is self.database:
            _FORK_DATABASE = None

    def __enter__(self) -> "ParallelExecution":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- scheduling ---------------------------------------------------------
    def default_morsel_pages(self, page_count: int) -> int:
        # Aim for a few morsels per worker so stragglers even out, without
        # drowning in per-morsel dispatch overhead.
        return max(1, -(-page_count // (self.workers * 4)))

    def run_morsels(self, specs: Sequence[MorselSpec]) -> Iterator[MorselResult]:
        """Execute morsels, yielding results in submission (canonical) order."""
        if not specs:
            return
        if not self.forks or len(specs) == 1:
            database = self.database
            for spec in specs:
                yield _run_scan_morsel_on(database, spec)
            return
        pool = self._ensure_pool()
        futures = [pool.submit(_run_scan_morsel, spec) for spec in specs]
        for future in futures:
            yield future.result()


# ---------------------------------------------------------------------------
# Shared scans
# ---------------------------------------------------------------------------
@dataclass
class RecordedScan:
    """One table scan's full output, recorded once and replayed per query.

    ``batches``/``trailing_ops`` have exactly the :class:`MorselResult`
    shape (the recording *is* one whole-table morsel).  The batch column
    vectors are handed to every attached query's operator tree by
    reference: no operator mutates batch columns in place (filters gather
    into fresh vectors, joins merge into new dictionaries), so sharing is
    safe and costs nothing per attachment.
    """

    batches: List[Tuple[Dict[str, list], int, List[ChargeOp]]]
    trailing_ops: List[ChargeOp]
    attachments: int = 0


class SharedScanCoordinator:
    """One admission round's shared-scan registry.

    Concurrent queries whose plans contain the *same* sequential-scan leaf
    (same table, predicate, output columns, batch size and profile) attach
    to one in-flight morsel stream: the first attachment
    runs the scan's data work once against a :class:`TapeRecorder` (one
    whole-table morsel), and every attachment — including the first —
    consumes the recording through a :class:`SharedScanReplayOperator` that
    replays the charge tapes into that query's own
    :class:`~repro.execution.context.ExecutionContext`.  Replay is the
    exact serial charge sequence (the PR 3 contract), so every attached
    query's rows *and* simulated counts are identical to executing it
    alone; only the host-side data work is deduplicated.

    The coordinator holds live table data, so a recording must never
    outlive the data it copied: the serving layer creates a fresh
    coordinator per admission round *and* calls :meth:`drop_table` when an
    update executes mid-round, so a later query of the same round
    re-records instead of replaying pre-update rows.
    """

    def __init__(self, database) -> None:
        self.database = database
        self._recordings: Dict[tuple, RecordedScan] = {}
        #: Scans actually executed (cache misses).
        self.recordings = 0
        #: Attachments that rode an existing recording (pure savings).
        self.reuses = 0
        #: Total attachments (``recordings + reuses``).
        self.attachments = 0

    def attach(self, table, ctx, predicate, output_columns: Sequence[str],
               next_operation: str, batch_size: int,
               count_records: bool = True) -> "SharedScanReplayOperator":
        """Return a replay operator for this scan, recording it on first use."""
        key = (table.name, repr(predicate), tuple(output_columns),
               next_operation, int(batch_size), bool(count_records),
               ctx.profile.key)
        recording = self._recordings.get(key)
        if recording is None:
            spec = MorselSpec(table=table.name, page_start=0,
                              page_stop=table.heap.page_count,
                              predicate=predicate,
                              output_columns=tuple(output_columns),
                              next_operation=next_operation,
                              batch_size=int(batch_size),
                              count_records=count_records,
                              profile=ctx.profile)
            result = _run_scan_morsel_on(self.database, spec)
            recording = RecordedScan(result.batches, result.trailing_ops)
            self._recordings[key] = recording
            self.recordings += 1
        else:
            self.reuses += 1
        self.attachments += 1
        recording.attachments += 1
        return SharedScanReplayOperator(recording, ctx)

    def drop_table(self, table_name: str) -> int:
        """Forget every recording over ``table_name``; returns the count.

        The serving layer calls this after an update executes mid-round:
        the table's recordings hold pre-update batches, and a later query
        of the round must re-record from live data rather than replay
        stale rows (which would also poison the result cache under the
        table's new epoch).
        """
        stale = [key for key in self._recordings if key[0] == table_name]
        for key in stale:
            del self._recordings[key]
        return len(stale)


class SharedScanReplayOperator(VectorOperator):
    """Feeds one query's operator tree from a :class:`RecordedScan`.

    Indistinguishable from the serial
    :class:`~repro.execution.vectorized.VecSeqScanOperator` downstream:
    batches arrive in the same order with the same contents, and each
    batch's tape is replayed into the query's own context immediately
    before the batch is yielded — the same interleaving of scan charges and
    downstream-operator charges as a solo run, hence identical counts.
    """

    def __init__(self, recording: RecordedScan, ctx) -> None:
        self.recording = recording
        self.ctx = ctx

    def batches(self):
        replay = _tape_replayer(self.ctx, "shared_scan_replay")
        for columns, length, ops in self.recording.batches:
            replay(ops)
            yield ColumnBatch(columns, length)
        if self.recording.trailing_ops:
            replay(self.recording.trailing_ops)


# ---------------------------------------------------------------------------
# The exchange operator
# ---------------------------------------------------------------------------
class VecExchangeOperator(VectorOperator):
    """Partitions a sequential scan into page morsels and merges the
    workers' batches (and their charge tapes) back in canonical order.

    Downstream operators cannot tell it apart from the
    :class:`~repro.execution.vectorized.VecSeqScanOperator` it shadows: the
    batches arrive in the same order with the same contents, and the charge
    tape replay drives the real context through the exact serial sequence.
    """

    def __init__(self, table, ctx, parallel: ParallelExecution,
                 predicate=None, output_columns: Sequence[str] = (),
                 next_operation: str = "scan_next", batch_size: int = 256,
                 count_records: bool = True) -> None:
        self.table = table
        self.ctx = ctx
        self.parallel = parallel
        self.predicate = predicate
        self.output_columns = tuple(output_columns)
        self.next_operation = next_operation
        self.batch_size = batch_size
        self.count_records = count_records

    # VectorOperator protocol ------------------------------------------------
    def _spec_for(self, span: Tuple[int, int], adaptivity: str,
                  adaptive_state: Optional[dict],
                  batch_size: Optional[int] = None) -> MorselSpec:
        return MorselSpec(table=self.table.name, page_start=span[0],
                          page_stop=span[1], predicate=self.predicate,
                          output_columns=self.output_columns,
                          next_operation=self.next_operation,
                          batch_size=batch_size or self.batch_size,
                          count_records=self.count_records,
                          profile=self.ctx.profile,
                          adaptivity=adaptivity,
                          adaptive_state=adaptive_state)

    def batches(self):
        parallel = self.parallel
        ctx = self.ctx
        # Workers record their charges on tapes; the parent replays each
        # tape here, in canonical morsel order.
        _replay = _tape_replayer(ctx, "morsel_replay")
        page_count = self.table.heap.page_count
        morsel_pages = parallel.default_morsel_pages(page_count)
        spans = partition_pages(page_count, morsel_pages)
        manager = getattr(ctx, "adaptive", None)
        conjuncts_active = (manager is not None
                            and manager.applies(self.predicate))
        batch_sizing = manager is not None and manager.batch_sizing
        if not (conjuncts_active or batch_sizing):
            manager = None
        if manager is None:
            waves = [[self._spec_for(span, "off", None) for span in spans]]
        else:
            # Adaptive decisions re-plan *between morsel waves*: each wave of
            # ``workers`` morsels is dispatched with the manager state merged
            # from every earlier wave's tapes (the replay below folds worker
            # observations into the parent's collector before the next wave's
            # specs are built).  Within a wave, workers adapt privately from
            # the dispatched snapshot, so a fixed partitioning is
            # deterministic regardless of pool racing.
            wave_size = max(parallel.workers, 1)
            waves = [spans[start:start + wave_size]
                     for start in range(0, len(spans), wave_size)]
        pressure_key = f"scan:{self.table.name}"
        current_size = max(int(self.batch_size), 1)
        for wave in waves:
            if manager is None:
                specs = wave
            else:
                snapshot = manager.snapshot()
                specs = [self._spec_for(span, manager.mode, snapshot,
                                        batch_size=current_size)
                         for span in wave]
            wave_batches = 0
            for result in parallel.run_morsels(specs):
                wave_batches += len(result.batches)
                for columns, length, ops in result.batches:
                    if batch_sizing:
                        # The worker could not observe L1D pressure (it has
                        # no hardware); the replay below is where the
                        # batch's charges reach the real caches, so this is
                        # where the pressure observation happens -- exactly
                        # once per batch, mirroring the serial scan.
                        before = ctx.l1d_misses()
                        _replay(ops)
                        rows_in = next(
                            (op[2] for op in ops
                             if op[0] == _OP_VISIT_BATCH
                             and op[1] == self.next_operation), length)
                        manager.collector.observe_pressure(
                            pressure_key, current_size, rows_in,
                            ctx.l1d_misses() - before)
                    else:
                        _replay(ops)
                    yield ColumnBatch(columns, length)
                if result.trailing_ops:
                    _replay(result.trailing_ops)
            if conjuncts_active:
                # Each scan batch was one ordering decision in a worker;
                # advance the parent policy so the next wave's snapshot
                # continues (not restarts) any internal decision sequence.
                manager.policy.advance(wave_batches)
            if batch_sizing:
                current_size = max(int(manager.policy.batch_size(
                    pressure_key, current_size, manager.collector)), 1)
