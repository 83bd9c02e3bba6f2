"""Shared-scan recording: one scan's data work, replayed per query.

Concurrent queries of one serving admission round often scan the same
table with the same predicate.  The data work of such a scan (page
decoding, predicate vectors, selection gathers) is identical for every
query, but the simulated hardware is not shared: each query's counts must
be exactly those of executing it alone, because the paper's methodology
rests on exact, per-query event counts.

The design splits the two:

* The scan runs once against a :class:`TapeRecorder` -- an
  execution-context stand-in that performs all the real data work but,
  instead of driving a simulated processor, appends every charge the
  operator issues to a *charge tape*.  Charge arguments (routine names,
  record counts, page addresses, strides) are pure functions of the data,
  never of hardware state, so the tape is exactly the charge sequence a
  solo scan would have issued.
* Each attached query consumes the recorded batches through a
  :class:`SharedScanReplayOperator`, which replays each batch's tape
  segment into that query's own
  :class:`~repro.execution.context.ExecutionContext` immediately before
  yielding the batch downstream.  The query's processor therefore observes
  the same interleaving of scan charges and downstream-operator charges as
  a solo run: rows and every simulated count are identical.

Everything here runs in the calling process; nothing is forked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..systems.profile import SystemProfile
from .kernels import ARRAY_KERNELS
from .vectorized import ColumnBatch, VecSeqScanOperator, VectorOperator

__all__ = [
    "ChargeOp", "TapeRecorder", "replay_tape",
    "RecordedScan", "SharedScanCoordinator", "SharedScanReplayOperator",
]

#: One recorded charge: an opcode tuple of plain scalars.
ChargeOp = tuple

_OP_VISIT = "v"
_OP_VISIT_BATCH = "vb"
_OP_READ = "dr"
_OP_WRITE = "dw"
_OP_READ_STRIDED = "drs"
_OP_RECORD_DONE = "rd"
_OP_ROWS = "rp"


class _TapeProcessor:
    """Processor stand-in that records data-side charges instead of
    simulating them.  Only the methods the scan data path issues exist; the
    recorded arguments are data-deterministic, so replaying them against the
    real processor reproduces the solo trace exactly."""

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
    """Execution-context stand-in a shared scan records against.

    Exposes exactly the surface a vectorized *scan* touches: routine visits,
    batched visits, column/record reads (inherited data-decoding logic from
    :class:`~repro.execution.context.ExecutionContext` via delegation to the
    real methods), record/row bookkeeping.  Every charge is appended to
    :attr:`ops`; the data values flow back to the operator unchanged.

    It deliberately does **not** allocate anything from an address space and
    owns no simulated hardware -- constructing one has no side effects on
    shared state.  It carries no adaptive manager: shared scans attach only
    to non-adaptive contexts.
    """

    def __init__(self, profile: SystemProfile) -> None:
        self.profile = profile
        self.ops: List[ChargeOp] = []
        self.processor = _TapeProcessor(self.ops)
        self.rows_produced = 0
        self.op_invocations: Dict[str, int] = {}
        #: Data-plane kernels for the recorded scan.  Kernel choice is
        #: invisible to results and charges, so recordings always use the
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

    def read_address(self, address: int, size: int = 4) -> None:
        self.ops.append((_OP_READ, address, size))

    def write_address(self, address: int, size: int = 4) -> None:
        self.ops.append((_OP_WRITE, address, size))

    def record_done(self, count: int = 1) -> None:
        self.ops.append((_OP_RECORD_DONE, count))

    def row_produced(self, count: int = 1) -> None:
        self.rows_produced += count
        self.ops.append((_OP_ROWS, count))

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

    The replayed calls are exactly the calls a solo scan would have made,
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


@dataclass
class RecordedScan:
    """One table scan's full output, recorded once and replayed per query.

    ``batches`` holds ``(columns, length, ops)`` triples in production
    order; ``trailing_ops`` are charges issued after the last batch (e.g.
    page-boundary visits of trailing empty pages).  The batch column
    vectors are handed to every attached query's operator tree by
    reference: no operator mutates batch columns in place (filters gather
    into fresh vectors, joins merge into new dictionaries), so sharing is
    safe and costs nothing per attachment.
    """

    batches: List[Tuple[Dict[str, list], int, List[ChargeOp]]]
    trailing_ops: List[ChargeOp]


class SharedScanCoordinator:
    """One admission round's shared-scan registry.

    Concurrent queries whose plans contain the *same* sequential-scan leaf
    (same table, predicate, output columns, batch size and profile) attach
    to one recorded scan: the first attachment runs the scan's data work
    once against a :class:`TapeRecorder`, and every attachment — including
    the first — consumes the recording through a
    :class:`SharedScanReplayOperator` that replays the charge tapes into
    that query's own :class:`~repro.execution.context.ExecutionContext`.
    Replay is the exact solo charge sequence, so every attached query's
    rows *and* simulated counts are identical to executing it alone; only
    the host-side data work is deduplicated.

    The coordinator holds live table data, so a recording must never
    outlive the data it copied: the serving layer creates a fresh
    coordinator per admission round *and* calls :meth:`drop_table` when an
    update executes mid-round, so a later query of the same round
    re-records instead of replaying pre-update rows.
    """

    def __init__(self) -> None:
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
            recording = self._record(table, ctx.profile, predicate,
                                     output_columns, next_operation,
                                     batch_size, count_records)
            self._recordings[key] = recording
            self.recordings += 1
        else:
            self.reuses += 1
        self.attachments += 1
        return SharedScanReplayOperator(recording, ctx)

    @staticmethod
    def _record(table, profile: SystemProfile, predicate,
                output_columns: Sequence[str], next_operation: str,
                batch_size: int, count_records: bool) -> RecordedScan:
        """Run the scan once against a tape recorder, one tape per batch."""
        recorder = TapeRecorder(profile)
        operator = VecSeqScanOperator(
            table, recorder, predicate=predicate,
            output_columns=tuple(output_columns),
            next_operation=next_operation, batch_size=int(batch_size),
            count_records=count_records)
        batches = [(batch.columns, batch.length, recorder.take())
                   for batch in operator.batches()]
        return RecordedScan(batches, recorder.take())

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

    Indistinguishable from the
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
