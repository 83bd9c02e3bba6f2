"""Vectorized (batch-at-a-time) physical operators over columnar batches.

The paper finds that on a Pentium II Xeon the commercial engines spend most
of a query not computing but stalling -- and that a large share of the
stalls (L1 instruction misses, branch mispredictions, resource stalls) is
*interpretation overhead*: every record pays the full cost of re-entering
each executor routine.  The vectorized engine here is the classic remedy
(MonetDB/X100 lineage): operators consume and produce *batches* of records,
so each routine is entered once per batch and only its tight loop body runs
per record.

The unit of dataflow is the :class:`ColumnBatch` -- an ordered mapping of
column name to value vector.  Scans read columns straight out of the page
(one minipage span per column on PAX, one field stride per column on NSM)
into vectors, filters compute selection index lists and gather, joins gather
matching positions from both sides, and aggregates fold whole vectors.  Row
dictionaries exist only at the result boundary
(:meth:`VectorOperator.rows`, drained by
:func:`~repro.execution.executor.execute_plan`: late materialization), which
is where the differential harness diffs them against the tuple engine.

This module holds the operators only: which operator a plan node becomes is
decided in :mod:`repro.execution.executor`, and nothing here imports it or
:mod:`repro.execution.parallel`.

Design rules:

* **Identical results.** Every operator reproduces the tuple engine's rows
  byte-for-byte and in the same order -- the differential harness in
  ``tests/test_vectorized_equivalence.py`` replays every plan shape under
  both engines and diffs the output.  Joins and aggregates therefore use
  exactly the same algorithms and fold orders as
  :mod:`repro.execution.operators`, and the column order of a materialized
  row reproduces the tuple engine's dict-merge order (left/build columns
  first; shared names keep that position but carry the right/probe value).
* **Amortised charging.** Routine costs go through
  :meth:`~repro.execution.context.ExecutionContext.visit_batch`: one full
  interpreted invocation per batch plus cheap loop-body iterations, which
  is where the computation, L1I-stall and branch savings come from.
* **Layout-aware data access.** Column reads go through
  :meth:`~repro.execution.context.ExecutionContext.read_column_group_batch`:
  on a PAX page a batch of one column is a contiguous span; on an NSM page
  the engine still strides record by record.  Under the default span
  charging both reach the simulated caches as bulk strided operations that
  are count-identical to per-address probing (the simulation fast path).
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..adaptive.policy import plan_partition_count
from ..index.btree import BTreeIndex
from ..storage.buffer_pool import BACKING_REGION, BufferPool
from ..storage.page import (DEFAULT_PAGE_SIZE, PAGE_HEADER_BYTES,
                            records_per_page)
from ..query.expressions import Aggregate, AggregateState, Expression
from ..storage.catalog import Table
from ..storage.schema import vector_of
from .context import ExecutionContext
from .kernels import ARRAY_KERNELS, key_hash
from .operators import HashJoinOperator, OperatorError, Row

__all__ = [
    "ColumnBatch", "merge_gather",
    "VectorOperator", "VecSeqScanOperator", "VecFilterOperator",
    "VecIndexRangeScanOperator", "VecIndexPointLookupOperator",
    "VecHashJoinOperator", "VecNestedLoopJoinOperator",
    "VecIndexNestedLoopJoinOperator", "VecScalarAggregateOperator",
]


class ColumnBatch:
    """One unit of columnar dataflow: column name -> equal-length vectors.

    Every vector is a one-dimensional ``ndarray`` -- a column's typed
    vector (:data:`~repro.storage.schema.VECTOR_DTYPES`) as decoded off its
    page; any other sequence handed in becomes an ``object`` vector of its
    values as they are.  Vectors are never written in place, so batches may
    share them.  The mapping is insertion-ordered and that order is the
    batch's column order: :meth:`to_rows` materializes dictionaries with
    exactly this key order, so column order is stable end-to-end.
    ``length`` is tracked explicitly so projection-free batches (no columns
    requested) still know how many rows they carry.
    """

    __slots__ = ("_parts", "length")

    def __init__(self, columns: Dict[str, np.ndarray],
                 length: Optional[int] = None) -> None:
        if length is None:
            length = len(next(iter(columns.values()))) if columns else 0
        typed = True
        for name, vector in columns.items():
            if len(vector) != length:
                raise OperatorError(
                    f"column {name!r} has {len(vector)} values, expected {length}")
            typed = typed and type(vector) is np.ndarray
        if not typed:
            columns = {name: vector if type(vector) is np.ndarray
                       else vector_of(vector, object)
                       for name, vector in columns.items()}
        #: The column mappings :meth:`extend` appended, concatenated once
        #: when :attr:`columns` is next read.
        self._parts = [columns]
        self.length = length

    @classmethod
    def empty(cls, column_names: Sequence[str] = ()) -> "ColumnBatch":
        return cls({name: np.empty(0, dtype=object) for name in column_names}, 0)

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        parts = self._parts
        if len(parts) > 1:
            self._parts = parts = [{name: np.concatenate([part[name] for part in parts])
                                    for name in parts[0]}]
        return parts[0]

    def __len__(self) -> int:
        return self.length

    def column_names(self) -> Tuple[str, ...]:
        return tuple(self._parts[0])

    def vector(self, column: str) -> np.ndarray:
        """Fetch a column vector, accepting qualified or unqualified names."""
        columns = self.columns
        if column in columns:
            return columns[column]
        short = column.split(".")[-1]
        if short in columns:
            return columns[short]
        raise OperatorError(f"batch {sorted(columns)} has no column {column!r}")

    def row(self, position: int) -> Row:
        """Materialize one row dict (predicate evaluation, debugging)."""
        return {name: vector[position:position + 1].tolist()[0]
                for name, vector in self.columns.items()}

    def to_rows(self) -> List[Row]:
        """Late materialization: the row dicts the tuple engine would yield,
        holding Python values (one ``tolist()`` per vector)."""
        columns = self.columns
        if not columns:
            return [{} for _ in range(self.length)]
        names = tuple(columns)
        return [dict(zip(names, values))
                for values in zip(*[vector.tolist() for vector in columns.values()])]

    def gather(self, positions: Sequence[int], kernels=None) -> "ColumnBatch":
        """New batch holding the given row positions (selection/compaction)."""
        take = (kernels or ARRAY_KERNELS).gather
        return ColumnBatch({name: take(vector, positions)
                            for name, vector in self.columns.items()},
                           len(positions))

    def extend(self, batch: "ColumnBatch") -> None:
        """Append ``batch``'s rows: a growing column block (the hashed or
        cached side of a join).  The first non-empty batch fixes the column
        order; the vectors are concatenated once, when next read, so
        growing a block a batch at a time stays linear."""
        if not len(batch):
            return
        if not self.length:
            self._parts = [batch.columns]
        else:
            self._parts.append(batch.columns)
        self.length += len(batch)


def merge_gather(left: ColumnBatch, left_positions: Sequence[int],
                 right: ColumnBatch, right_positions: Sequence[int],
                 kernels=None) -> ColumnBatch:
    """Columnar equivalent of ``dict(left_row); .update(right_row)`` per pair.

    Output column order is the left batch's columns followed by the
    right-only columns; a column present on both sides keeps the left
    position but carries the *right* values -- exactly the dict-merge
    semantics (and therefore duplicate-column behaviour) of the tuple
    engine's join output.
    """
    if len(left_positions) != len(right_positions):
        raise OperatorError("merge_gather requires position lists of equal length")
    take = (kernels or ARRAY_KERNELS).gather
    left_positions = np.asarray(left_positions, dtype=np.intp)
    right_positions = np.asarray(right_positions, dtype=np.intp)
    out: Dict[str, np.ndarray] = {}
    for name, vector in left.columns.items():
        out[name] = take(vector, left_positions)
    for name, vector in right.columns.items():
        out[name] = take(vector, right_positions)
    return ColumnBatch(out, len(left_positions))


#: The ``(page, slots)`` runs one scan vector covers, in scan order.
Segments = Sequence[Tuple[object, Sequence[int]]]
#: Matched ``(global probe position, global build position)`` pairs of a join.
Pairs = List[Tuple[int, int]]


def _joined(ctx: ExecutionContext, left: ColumnBatch, left_positions: Sequence[int],
            right: ColumnBatch, right_positions: Sequence[int]) -> ColumnBatch:
    """Charge and assemble one joined batch (:func:`merge_gather` order)."""
    ctx.visit_batch("join_output", len(left_positions))
    ctx.row_produced(len(left_positions))
    return merge_gather(left, left_positions, right, right_positions,
                        ctx.kernels)


def _chunked(items: Sequence, size: int) -> Iterator[Sequence]:
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _select(ctx: ExecutionContext, predicate: Expression,
            columns: Dict[str, np.ndarray], count: int,
            conjuncts=None) -> np.ndarray:
    """Selection vector of ``predicate`` over one batch, charged.

    ``conjuncts`` is the context's adaptive manager when it applies to this
    predicate (a multi-conjunct conjunction under ``adaptivity != "off"``):
    the conjuncts are then evaluated -- and charged -- one by one in policy
    order with short-circuit selection vectors.  Otherwise the predicate is
    one columnar evaluation and one amortised ``predicate`` visit.
    """
    if conjuncts is not None:
        mask = conjuncts.evaluate_batch(ctx, predicate, columns, count)
    else:
        mask = predicate.evaluate_batch(columns, count, ctx.kernels)
        ctx.visit_batch("predicate", count)
    return ctx.kernels.compact(mask)


def _conjunct_manager(ctx, predicate: Optional[Expression]):
    """The context's adaptive manager if it reorders ``predicate``'s
    conjuncts, else ``None`` (no manager attached, or not a conjunction)."""
    manager = getattr(ctx, "adaptive", None)
    if manager is not None and manager.applies(predicate):
        return manager
    return None


class VectorOperator:
    """Base class: an iterable of :class:`ColumnBatch` (and, flattened, rows)."""

    def batches(self) -> Iterator[ColumnBatch]:
        raise NotImplementedError

    def rows(self) -> Iterator[Row]:
        """Late materialization to row dicts (the engine's result boundary)."""
        for batch in self.batches():
            yield from batch.to_rows()

    def __iter__(self) -> Iterator[Row]:
        return self.rows()


class VecSeqScanOperator(VectorOperator):
    """Columnar sequential scan with a fused, selection-vector filter.

    Each heap page is processed in slot chunks: one amortised
    ``scan_next`` invocation per chunk, column-at-a-time reads for the
    predicate columns, a selection index list, then column reads for the
    output columns of the qualifying slots only -- the late
    materialisation a vectorized engine does naturally.
    """

    def __init__(self,
                 table: Table,
                 ctx: ExecutionContext,
                 predicate: Optional[Expression] = None,
                 output_columns: Sequence[str] = (),
                 next_operation: str = "scan_next",
                 batch_size: int = 256,
                 count_records: bool = True) -> None:
        self.table = table
        self.ctx = ctx
        self.predicate = predicate
        self.next_operation = next_operation
        self.batch_size = batch_size
        self.count_records = count_records
        predicate_columns = sorted(c.split(".")[-1]
                                   for c in (predicate.columns() if predicate else ()))
        outputs = sorted({c.split(".")[-1] for c in output_columns})
        self.predicate_columns: Tuple[str, ...] = tuple(predicate_columns)
        self.extra_columns: Tuple[str, ...] = tuple(c for c in outputs
                                                    if c not in predicate_columns)

    def batches(self) -> Iterator[ColumnBatch]:
        """One loop over ``(page, slots)`` segments, one emit step.

        Without batch sizing every segment is flushed on its own: vectors
        never span a page, so the configured batch size is silently capped
        at the page's slot count.  When the context's adaptive manager
        enables batch sizing, segments accumulate across pages until the
        current target size is reached -- the working set of a batch is
        then really under the policy's control.  After each such batch the
        simulated L1D miss delta is observed into the collector at the
        batch's size rung and the policy picks the next size from the
        bounded ladder.
        """
        ctx = self.ctx
        # Micro-adaptive conjunct reordering engages only when a manager is
        # attached (``adaptivity != "off"``) *and* the predicate is a
        # multi-conjunct conjunction; it composes with batch sizing
        # unchanged.  With neither, the charge sequence is bit-identical to
        # previous releases.
        manager = getattr(ctx, "adaptive", None)
        conjuncts = _conjunct_manager(ctx, self.predicate)
        sizing = manager is not None and manager.batch_sizing
        pressure_key = f"scan:{self.table.name}"
        size = max(int(self.batch_size), 1)
        pending: List[Tuple[object, Sequence[int]]] = []
        pending_rows = 0

        def flush() -> ColumnBatch:
            nonlocal pending, pending_rows, size
            before = ctx.l1d_misses() if sizing else None
            batch = self._emit(pending, pending_rows, conjuncts)
            if before is not None:
                collector = manager.collector
                collector.observe_pressure(pressure_key, size, pending_rows,
                                           ctx.l1d_misses() - before)
                size = max(int(manager.policy.batch_size(pressure_key, size,
                                                         collector)), 1)
            pending = []
            pending_rows = 0
            return batch

        for page, slots in self.table.heap.scan_pages():
            ctx.visit("page_boundary")
            start = 0
            total = len(slots)
            while start < total:
                take = min(size - pending_rows, total - start)
                pending.append((page, slots[start:start + take]))
                pending_rows += take
                start += take
                if pending_rows >= size or not sizing:
                    yield flush()
        if pending_rows:
            yield flush()

    def _read(self, segments: Segments,
              names: Sequence[str]) -> Dict[str, np.ndarray]:
        """Read ``names`` for every ``(page, slots)`` segment, concatenated."""
        ctx = self.ctx
        layout = self.table.layout
        parts = [ctx.read_column_group_batch(page, layout, slots, names)
                 for page, slots in segments]
        if len(parts) == 1:
            return parts[0]
        return {name: np.concatenate([part[name] for part in parts])
                for name in names}

    def _emit(self, segments: Segments, count: int, conjuncts) -> ColumnBatch:
        """Charge, read, filter and project one vector of ``count`` slots
        spread over ``segments``: one amortised ``next_operation`` visit,
        the predicate columns, the selection, then the output columns of
        the qualifying slots only."""
        ctx = self.ctx
        kernels = ctx.kernels
        ctx.visit_batch(self.next_operation, count)
        columns = self._read(segments, self.predicate_columns)
        selected = None
        out_count = count
        if self.predicate is not None:
            selected = _select(ctx, self.predicate, columns, count, conjuncts)
            columns = {name: kernels.gather(vector, selected)
                       for name, vector in columns.items()}
            out_count = len(selected)
        if self.extra_columns and out_count:
            if selected is not None:
                # Map the selected vector positions back to slots, segment
                # by segment (``selected`` ascends, segments are in order).
                qualifying = []
                offset = cursor = 0
                for page, slots in segments:
                    upper = offset + len(slots)
                    end = int(np.searchsorted(selected, upper))
                    if end > cursor:
                        qualifying.append((page, [
                            slots[position] for position
                            in (selected[cursor:end] - offset).tolist()]))
                    cursor = end
                    offset = upper
                segments = qualifying
            columns.update(self._read(segments, self.extra_columns))
        ctx.row_produced(out_count)
        if self.count_records:
            ctx.record_done(count)
        return ColumnBatch(columns, out_count)


class VecFilterOperator(VectorOperator):
    """Standalone columnar filter (selection vector + gather).

    The scan fuses its own predicate; this operator exists for filters that
    cannot be pushed into an access path (e.g. post-join residuals) and for
    exercising batch-boundary behaviour in isolation.
    """

    def __init__(self, child: VectorOperator, predicate: Expression,
                 ctx: ExecutionContext) -> None:
        self.child = child
        self.predicate = predicate
        self.ctx = ctx

    def batches(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        predicate = self.predicate
        conjuncts = _conjunct_manager(ctx, predicate)
        for batch in self.child.batches():
            if not len(batch):
                yield batch
                continue
            selected = _select(ctx, predicate, batch.columns, len(batch),
                               conjuncts)
            kept = batch.gather(selected, ctx.kernels)
            ctx.row_produced(len(kept))
            yield kept


def _charge_descent(ctx: ExecutionContext, index: BTreeIndex, key,
                    visit: bool = True) -> int:
    """Charge one root-to-leaf descent for ``key``; returns its step count.

    The node and entry loads are issued per step.  ``visit=False`` leaves
    the amortised ``index_descend_node`` invocation to the caller (the
    index nested-loop join issues one per outer batch, after the loads).
    """
    steps = list(index.descend(key))
    if visit:
        ctx.visit_batch("index_descend_node", len(steps))
    for step in steps:
        ctx.read_address(step.node_address, 8)
        ctx.read_address(step.entry_address, 16)
    return len(steps)


def _fetch_leaf_chunk(ctx: ExecutionContext, table: Table, chunk: Sequence,
                      columns: Sequence[str]) -> Dict[str, np.ndarray]:
    """Advance over one chunk of leaf matches and fetch ``columns`` of the
    heap records they point to: the entry loads and record reads per
    match."""
    _advance_leaf_chunk(ctx, chunk)
    vectors: Dict[str, List] = {name: [] for name in columns}
    if columns:
        layout = table.layout
        for match in chunk:
            fields = ctx.read_fields(table.heap.fetch(match.rid), layout, columns)
            for name in columns:
                vectors[name].append(fields[name])
    return _typed(table, vectors)


def _advance_leaf_chunk(ctx: ExecutionContext, chunk: Sequence) -> None:
    """One amortised ``leaf_advance`` and one ``rid_fetch`` invocation for
    a chunk of leaf matches, and each match's entry load."""
    count = len(chunk)
    ctx.visit_batch("leaf_advance", count)
    for match in chunk:
        ctx.read_address(match.entry_address, 16)
    ctx.visit_batch("rid_fetch", count)


def _typed(table: Table, values: Dict[str, List]) -> Dict[str, np.ndarray]:
    """Decoded values (``int``, ``float``, ``str``: scalars to numpy) of
    ``table``'s columns as its typed column vectors."""
    dtypes = table.schema.vector_dtypes
    return {name: np.array(vector, dtype=dtypes[name])
            for name, vector in values.items()}


class VecIndexRangeScanOperator(VectorOperator):
    """Batch index range scan: descend once, drain the leaves in batches."""

    def __init__(self,
                 table: Table,
                 index: BTreeIndex,
                 ctx: ExecutionContext,
                 low, high,
                 key_column: str,
                 include_low: bool = False,
                 include_high: bool = False,
                 residual_predicate: Optional[Expression] = None,
                 output_columns: Sequence[str] = (),
                 batch_size: int = 256) -> None:
        self.table = table
        self.index = index
        self.ctx = ctx
        self.low = low
        self.high = high
        #: Name the index key is emitted under (the indexed column).
        self.key_column = key_column.split(".")[-1]
        self.include_low = include_low
        self.include_high = include_high
        self.residual_predicate = residual_predicate
        self.batch_size = batch_size
        residual_columns = sorted(c.split(".")[-1]
                                  for c in (residual_predicate.columns()
                                            if residual_predicate else ()))
        outputs = sorted({c.split(".")[-1] for c in output_columns})
        self.fetch_columns: Tuple[str, ...] = tuple(
            dict.fromkeys(list(residual_columns) + outputs))

    def batches(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        _charge_descent(ctx, self.index,
                        self.low if self.low is not None else self.high)
        matches = list(self.index.range_search(self.low, self.high,
                                               include_low=self.include_low,
                                               include_high=self.include_high))
        residual = self.residual_predicate
        for chunk in _chunked(matches, self.batch_size):
            count = len(chunk)
            columns = _typed(self.table, {self.key_column: [match.key
                                                            for match in chunk]})
            columns.update(_fetch_leaf_chunk(ctx, self.table, chunk,
                                             self.fetch_columns))
            batch = ColumnBatch(columns, count)
            if residual is not None:
                batch = batch.gather(_select(ctx, residual, columns, count),
                                     ctx.kernels)
            ctx.row_produced(len(batch))
            ctx.record_done(count)
            yield batch


class VecIndexPointLookupOperator(VectorOperator):
    """Batch exact-match index lookup (the update path's access plan):
    charges the read of every column of each matching record and emits its
    ``__rid__`` alone, the one value the update reads."""

    def __init__(self, table: Table, index: BTreeIndex, ctx: ExecutionContext,
                 value, batch_size: int = 256) -> None:
        self.table = table
        self.index = index
        self.ctx = ctx
        self.value = value
        self.batch_size = batch_size
        self.columns = tuple(sorted(table.schema.column_names()))

    def batches(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        _charge_descent(ctx, self.index, self.value)
        matches = list(self.index.range_search(self.value, self.value,
                                               include_low=True, include_high=True))
        fetch, layout = self.table.heap.fetch, self.table.layout
        for chunk in _chunked(matches, self.batch_size):
            _advance_leaf_chunk(ctx, chunk)
            for match in chunk:
                ctx.charge_fields(fetch(match.rid), layout, self.columns)
            # A RecordId is no sequence to numpy: one object per row.
            rids = np.array([match.rid for match in chunk], dtype=object)
            ctx.row_produced(len(chunk))
            yield ColumnBatch({"__rid__": rids}, len(chunk))
        ctx.record_done()


#: Recursion bound for re-partitioning an overflowing spill partition.  A
#: partition still over budget at this depth is built in memory anyway --
#: each level multiplies the fan-out, so hitting the bound means the input
#: is pathologically skewed (every level hashed the same key together) and
#: further partitioning cannot split it.
_MAX_SPILL_DEPTH = 4


class _SpillBlock:
    """One pool page of a spill file: the global positions and the value
    runs per column of the (at most ``_SpillFile.capacity``) rows it holds."""

    __slots__ = ("page_number", "base_address", "positions", "columns", "dirty")

    def __init__(self, page_number: int, base_address: int) -> None:
        self.page_number = page_number
        self.base_address = base_address
        self.positions: List[int] = []
        self.columns: Dict[str, List[np.ndarray]] = {}
        self.dirty = False


class _SpillFile:
    """Append-only run of spilled rows, held as column-run blocks.

    One spill partition side (build or probe) of the memory-budgeted hash
    join.  Its pages belong to a capacity-limited :class:`BufferPool`, so
    writing and reading them exercises the pool's real eviction/reload path
    and every page transfer is charged through the context's I/O cost
    model.  A row occupies ``record_bytes`` -- the source table's nominal
    record size, the footprint the budget reasons about, whatever its
    projection -- so a block holds what a slotted page of such records holds
    (:func:`~repro.storage.page.records_per_page`) and row ``i`` of a block
    is charged at that record's slot address.

    Data moves per run, charges stay per row (DESIGN.md says why the
    interleaving must): :meth:`charge_append` issues one row's pool touch
    and slot store where the join's per-row schedule puts them, and
    :meth:`flush` then moves the charged rows into the blocks a column run
    at a time, reaching them through ``peek_page`` wherever they now live.
    No page stays pinned between calls, so the join works with a pool as
    small as a single page (it just faults -- honestly -- on every other
    access).
    """

    __slots__ = ("pool", "record_bytes", "capacity", "page_numbers",
                 "row_count", "pending")

    def __init__(self, pool: BufferPool, record_bytes: int) -> None:
        self.pool = pool
        self.record_bytes = max(record_bytes, 1)
        self.capacity = records_per_page(pool.page_size, self.record_bytes)
        self.page_numbers: List[int] = []
        self.row_count = 0
        #: Source offsets of the rows charged since the last :meth:`flush`.
        self.pending: List[int] = []

    def charge_append(self, ctx: ExecutionContext, offset: int) -> None:
        """Charge the append of source row ``offset``: touch the current
        page (any page I/O), allocate the next when it is full, dirty it,
        store the slot.  The row's data follows at the next flush."""
        slot = self.row_count % self.capacity
        if self.page_numbers:
            page = self.pool.fetch_page(self.page_numbers[-1])
        if slot == 0:
            page = self.pool.allocate_page(_SpillBlock)
            self.page_numbers.append(page.page_number)
        page.dirty = True
        ctx.write_address(page.base_address + PAGE_HEADER_BYTES
                          + slot * self.record_bytes, self.record_bytes)
        self.row_count += 1
        self.pending.append(offset)

    def flush(self, positions: Sequence[int],
              columns: Dict[str, np.ndarray]) -> None:
        """Move the pending rows into the blocks: row ``offset`` of the
        ``columns`` vectors, whose global position is ``positions[offset]``."""
        pending = self.pending
        stored = self.row_count - len(pending)
        while stored < self.row_count:
            block = self.pool.peek_page(self.page_numbers[stored // self.capacity])
            start = stored - self.row_count + len(pending)
            take = pending[start:start + self.capacity - len(block.positions)]
            stored += len(take)
            block.positions.extend([positions[offset] for offset in take])
            rows = np.array(take, dtype=np.intp)
            for name, vector in columns.items():
                block.columns.setdefault(name, []).append(vector[rows])
        pending.clear()

    def read_all(self, ctx: ExecutionContext) -> Tuple[List[int], ColumnBatch]:
        """Read every row back in append order, charging per record:
        ``(global positions, rows)``."""
        positions: List[int] = []
        rows = ColumnBatch.empty()
        size = self.record_bytes
        for page_number in self.page_numbers:
            block = self.pool.fetch_page(page_number, pin=True)
            first = block.base_address + PAGE_HEADER_BYTES
            for slot in range(len(block.positions)):
                ctx.read_address(first + slot * size, size)
            positions.extend(block.positions)
            rows.extend(ColumnBatch({name: np.concatenate(runs) for name, runs
                                     in block.columns.items()},
                                    len(block.positions)))
            self.pool.unpin(page_number)
        return positions, rows


#: Bytes charged per hash-table bucket (the tuple engine's entry size).
_ENTRY_BYTES = HashJoinOperator.ENTRY_BYTES


class _BucketArea:
    """The charged bucket array of one hashed join side.

    Owns the workspace allocation, its bucket count and the number of
    resident entries.  Every bucket store and load of the hash join -- the
    in-memory build, a flipped probe side, the resident partitions of the
    budgeted join and each spilled partition -- is charged here, so every
    hashed side is sized, addressed and re-sized the same way.
    """

    __slots__ = ("ctx", "buckets", "base", "count")

    def __init__(self, ctx: ExecutionContext, buckets: int) -> None:
        self.ctx = ctx
        self.buckets = buckets
        self.base = ctx.allocate_workspace(buckets * _ENTRY_BYTES)
        self.count = 0

    def addresses(self, keys: np.ndarray) -> List[int]:
        """Bucket address of every key, hashed in bulk at the current size."""
        buckets = self.ctx.kernels.bucket_indices(keys, self.buckets)
        return (buckets * _ENTRY_BYTES + self.base).tolist()

    def _charge(self, access: Callable[[Sequence[int], int], None],
                keys: np.ndarray) -> None:
        access(self.addresses(keys), _ENTRY_BYTES)

    def store(self, keys: np.ndarray,
              resident: Callable[[], np.ndarray]) -> None:
        """Charge the bucket store of one key vector.

        ``resident()`` returns the keys stored so far (asked for only when
        the area must double).  A vector that cannot trigger a resize is
        hashed at once; the per-key charge is the same either way.
        """
        if self.count + len(keys) > self.buckets:
            for key in keys.tolist():
                self.store_one(key, resident)
        else:
            self._charge(self.ctx.write_addresses, keys)
            self.count += len(keys)

    def store_one(self, key, resident: Callable[[], np.ndarray]) -> None:
        """Charge one bucket store, doubling the area first if it is full."""
        if self.count == self.buckets:
            # Observed cardinality exceeds the sizing estimate:
            # reconcile by doubling (and re-charging) the area.
            self._double(resident())
        self.ctx.write_address(
            self.base + (key_hash(key) % self.buckets) * _ENTRY_BYTES, _ENTRY_BYTES)
        self.count += 1

    def _double(self, keys: np.ndarray) -> None:
        """Grow the bucket array past the planner's estimate and re-charge.

        The observed cardinality has reached ``buckets`` (the sizing
        estimate), so the charged footprint no longer matches reality: keep
        hashing into the undersized area and the simulated working set --
        and its cache behaviour -- would stay estimate-shaped however large
        the input.  Mirror of a hash table's load-factor doubling: allocate
        a doubled area and re-charge the rehash of every resident key.
        """
        self.buckets = max(self.buckets * 2, 16)
        self.base = self.ctx.allocate_workspace(self.buckets * _ENTRY_BYTES)
        if len(keys):
            self.ctx.visit_batch("hash_build", len(keys))
            self._charge(self.ctx.write_addresses, keys)

    def load(self, keys: np.ndarray) -> None:
        """Charge the bucket load of one key vector."""
        self._charge(self.ctx.read_addresses, keys)

    def load_one(self, address: int) -> None:
        """Charge one bucket load at an address from :meth:`addresses`."""
        self.ctx.read_address(address, _ENTRY_BYTES)


class _Positions(dict):
    """Hash-table payload: join key -> row positions, in insertion order.
    Keys are Python values (a key vector's ``tolist()``)."""

    __slots__ = ()

    def add(self, key, position: int) -> None:
        self.setdefault(key, []).append(position)

    def matches(self, keys: np.ndarray) -> Iterator[Tuple[int, List[int]]]:
        """``(offset, positions)`` for every key of the vector that has any."""
        get = self.get
        for offset, key in enumerate(keys.tolist()):
            found = get(key)
            if found:
                yield offset, found


class VecHashJoinOperator(VectorOperator):
    """Columnar hash join: the build side is concatenated into one columnar
    block whose hash table maps key -> row positions; each probe batch turns
    into a pair of gather lists, so the joined batch is assembled column by
    column with the tuple engine's probe-major output order.

    When the context's adaptive manager enables runtime join-side selection
    (``adaptive_joins``), the operator consults the policy's
    :meth:`~repro.adaptive.policy.AdaptivePolicy.flip_join` between
    build-side batches and may abandon the planner's side choice mid-build:
    the probe input becomes the hash-table side and the (larger) build input
    is streamed through it.  The flip recombines matched pairs into exactly
    the static plan's output -- same rows, same probe-major order, same
    dict-merge column order (see :meth:`_emit_pairs`).

    When ``ctx.execution`` sets a ``memory_budget_bytes``, the operator runs
    its grace/hybrid spilling path instead (:meth:`_spill_batches`): both
    inputs are hash-partitioned, as many partitions as fit the budget stay
    resident, the rest spill through a budget-sized buffer pool -- charged
    row by row, moved a column run at a time (:class:`_SpillFile`) -- and are
    joined partition by partition (recursively re-partitioning overflows).
    The recombination argument is the same as the flip's, so the output is
    row-, order- and column-identical to the in-memory join at every
    budget.
    """

    def __init__(self,
                 probe: VectorOperator,
                 build: VectorOperator,
                 probe_column: str,
                 build_column: str,
                 ctx: ExecutionContext,
                 build_row_estimate: int = 1024,
                 probe_row_estimate: int = 1024,
                 build_key: Optional[str] = None,
                 probe_key: Optional[str] = None,
                 batch_size: int = 256,
                 build_row_bytes: int = 64) -> None:
        self.probe = probe
        self.build = build
        self.probe_column = probe_column.split(".")[-1]
        self.build_column = build_column.split(".")[-1]
        self.ctx = ctx
        self.build_row_estimate = max(build_row_estimate, 16)
        #: The planner's guess of the probe input's cardinality -- the
        #: expectation a contradicting build-side observation is weighed
        #: against (and the flipped hash area's sizing).
        self.probe_row_estimate = max(probe_row_estimate, 16)
        #: Stable cardinality-statistics keys of the two inputs (source
        #: table names when known), shared across executions and waves.
        self.build_key = build_key or f"card:build.{self.build_column}"
        self.probe_key = probe_key or f"card:probe.{self.probe_column}"
        self.batch_size = max(batch_size, 1)
        #: Nominal bytes one build row occupies when spilled (the source
        #: table's record size when known) -- what the memory budget and the
        #: partition-count decision reason about.
        self.build_row_bytes = max(build_row_bytes, 1)
        #: Deepest spill level joined so far (0: nothing spilled; 1: level-0
        #: partitions; above: re-partitioned; the cap is _MAX_SPILL_DEPTH).
        self.spill_depth = 0

    # ------------------------------------------------------- shared pieces
    def _hash_batch(self, batch: ColumnBatch, column: str, block: ColumnBatch,
                    area: _BucketArea, table: _Positions) -> None:
        """Ingest one batch into a hashed side: one amortised ``hash_build``
        invocation, the rows appended to ``block``, one bucket store per key
        and the key -> position entries."""
        self.ctx.visit_batch("hash_build", len(batch))
        base = len(block)
        block.extend(batch)
        keys = batch.vector(column)
        area.store(keys, lambda: block.vector(column)[:area.count])
        for position, key in enumerate(keys.tolist(), base):
            table.add(key, position)

    def _emit_pairs(self, pairs: Pairs, build_block: ColumnBatch,
                    probe_block: ColumnBatch) -> Iterator[ColumnBatch]:
        """Recombination: emit matched ``(global probe position, global
        build position)`` pairs as the streaming join would have.

        The streaming in-memory join emits its pairs ordered
        lexicographically by exactly that tuple -- probe batches stream in
        order, and each probe row's matches come back in build insertion
        order (per-partition spill files preserve insertion order too).  So
        however the matches were found -- build rows streamed through a
        flipped table, partitions joined one by one -- collecting every
        pair and sorting restores the static row order, while
        ``merge_gather`` with the build block on the left restores the
        static dict-merge column order.
        """
        pairs.sort()
        ctx = self.ctx
        # One gather over every pair; the charges stay per emitted batch.
        joined = merge_gather(build_block, [pair[1] for pair in pairs],
                              probe_block, [pair[0] for pair in pairs],
                              ctx.kernels)
        for start in range(0, len(pairs), self.batch_size):
            count = min(self.batch_size, len(pairs) - start)
            ctx.visit_batch("join_output", count)
            ctx.row_produced(count)
            yield ColumnBatch({name: vector[start:start + count] for name, vector
                               in joined.columns.items()}, count)

    # ------------------------------------------------------ in-memory join
    def batches(self) -> Iterator[ColumnBatch]:
        """Ingest the build side; stream the probe side through it -- or,
        after a flip, hash the probe side and stream the build side.

        ``flip_join`` is consulted only when a join-side manager is
        attached; without one (and under the never-flipping ``static``
        policy, whose collector observations are free) the charge sequence
        is the planner's join exactly, so ``adaptivity="static"`` with
        ``adaptive_joins=True`` is the cycle-identical control arm.
        """
        ctx = self.ctx
        manager = getattr(ctx, "adaptive", None)
        budget = ctx.execution.memory_budget_bytes
        if budget is not None:
            # The budgeted path subsumes the join-side decision: the build
            # side's footprint is governed by partitioning, not by flipping,
            # so the adaptive manager contributes its partition_count policy
            # and cardinality statistics rather than flip_join.
            yield from self._spill_batches(budget, manager)
            return
        if manager is not None and not manager.join_sides:
            manager = None
        collector = manager.collector if manager is not None else None

        area = _BucketArea(ctx, self.build_row_estimate)
        build_block = ColumnBatch.empty()
        table = _Positions()
        build_iter = self.build.batches()
        pending: Optional[ColumnBatch] = None
        for batch in build_iter:
            if not len(batch):
                continue
            if manager is not None and manager.policy.flip_join(
                    self.build_key, self.probe_key, self.probe_row_estimate,
                    len(build_block), collector):
                pending = batch
                break
            self._hash_batch(batch, self.build_column, build_block, area, table)

        if pending is None:
            if collector is not None:
                collector.observe_cardinality(self.build_key, len(build_block))
            probe_rows = 0
            for batch in self.probe.batches():
                if not len(batch):
                    continue
                probe_rows += len(batch)
                ctx.visit_batch("hash_probe", len(batch))
                keys = batch.vector(self.probe_column)
                area.load(keys)
                build_positions: List[int] = []
                probe_positions: List[int] = []
                for position, found in table.matches(keys):
                    build_positions.extend(found)
                    probe_positions.extend([position] * len(found))
                yield _joined(ctx, build_block, build_positions, batch,
                              probe_positions)
            if collector is not None:
                collector.observe_cardinality(self.probe_key, probe_rows)
            return

        # -- flipped: the probe input becomes the hash-table side ----------
        flip_area = _BucketArea(ctx, self.probe_row_estimate)
        probe_block = ColumnBatch.empty()
        flip_table = _Positions()
        for batch in self.probe.batches():
            if len(batch):
                self._hash_batch(batch, self.probe_column, probe_block,
                                 flip_area, flip_table)
        collector.observe_cardinality(self.probe_key, len(probe_block))

        pairs: Pairs = []

        def stream_lookups(keys: Sequence, base: int) -> None:
            ctx.visit_batch("hash_probe", len(keys))
            flip_area.load(keys)
            for offset, found in flip_table.matches(keys):
                pairs.extend((probe_position, base + offset)
                             for probe_position in found)

        # Build rows ingested before the flip were wasted hash-build work --
        # the honest cost of a late flip; they stay in the block and are
        # streamed through the flipped table first, in insertion order.
        if len(build_block):
            stream_lookups(build_block.vector(self.build_column), 0)
        for batch in chain((pending,), build_iter):
            if not len(batch):
                continue
            base = len(build_block)
            build_block.extend(batch)
            stream_lookups(batch.vector(self.build_column), base)
        collector.observe_cardinality(self.build_key, len(build_block))
        yield from self._emit_pairs(pairs, build_block, probe_block)

    # ----------------------------------------------- grace/hybrid spilling
    def _spill_files(self, count: int) -> List[_SpillFile]:
        """One (still empty, pageless) spill file per partition."""
        return [_SpillFile(self.spill_pool, self.build_row_bytes)
                for _ in range(count)]

    def _spill_batches(self, budget: int, manager) -> Iterator[ColumnBatch]:
        """Memory-budgeted execution: partition, spill, join, recombine.

        Classic grace/hybrid hash join (cf. arXiv:2112.02480) against the
        simulated memory hierarchy:

        * the partition count comes from the policy's ``partition_count``
          decision (planner estimate for static/off, observed cardinality
          for greedy);
        * partitions ``[0, resident)`` build in-memory hash tables during
          ingest, charged exactly like the static join; the rest append
          their rows to per-partition spill files through a buffer pool
          whose capacity *is* the budget, so every page it cannot hold is a
          charged eviction/reload (each row's append is charged where it
          falls in the vector; the vector's spilled rows then move into
          their files' blocks as column runs);
        * if ingest observes more resident bytes than the budget allows,
          the highest-numbered resident partition is demoted -- its rows
          are spilled and its table dropped -- until the budget holds
          (dynamic destaging, the "hybrid" in hybrid hash);
        * spilled partitions are joined after ingest; one whose build side
          still exceeds the budget is recursively re-partitioned with a
          level-salted hash (bounded by ``_MAX_SPILL_DEPTH``).

        Every match is collected as a (global probe position, global build
        position) pair and emitted through :meth:`_emit_pairs`, which
        carries the identity argument.
        """
        ctx = self.ctx
        kernels = ctx.kernels
        row_bytes = self.build_row_bytes
        collector = manager.collector if manager is not None else None
        if manager is not None:
            partitions = manager.policy.partition_count(
                self.build_key, self.build_row_estimate, row_bytes, budget,
                collector)
        else:
            partitions = plan_partition_count(self.build_row_estimate,
                                              row_bytes, budget)
        partitions = max(partitions, 1)

        # The pool's capacity *is* the budget.  Neither it nor an empty file
        # allocates or charges anything until a row is appended.  Concurrent
        # logical sessions spill into private backing namespaces
        # (ctx.disk_namespace, set by the serving layer) so their
        # backing-store pages cannot collide; solo sessions keep "disk".
        self.spill_pool = BufferPool(
            ctx.address_space, region="workspace", page_size=DEFAULT_PAGE_SIZE,
            capacity_pages=max(budget // DEFAULT_PAGE_SIZE, 1), io=ctx,
            backing_region=getattr(ctx, "disk_namespace", None) or BACKING_REGION)

        area = _BucketArea(ctx, self.build_row_estimate)

        # ---- build ingest: resident tables + spill files ----
        build_block = ColumnBatch.empty()
        resident = partitions
        resident_bytes = 0
        resident_tables: List[Optional[_Positions]] = [
            _Positions() for _ in range(partitions)]
        resident_rows: List[List[int]] = [[] for _ in range(partitions)]
        build_files = self._spill_files(partitions)
        probe_files = self._spill_files(partitions)

        def keys_in_area() -> np.ndarray:
            rows = [row for part_rows in resident_rows[:resident]
                    for row in part_rows]
            return build_block.vector(self.build_column)[np.array(rows, dtype=np.intp)]

        def demote_one() -> None:
            """Spill the highest-numbered resident partition (destaging)."""
            nonlocal resident, resident_bytes
            resident -= 1
            victim = resident
            handle = build_files[victim]
            for position in resident_rows[victim]:
                handle.charge_append(ctx, position)
            handle.flush(range(len(build_block)), build_block.columns)
            resident_bytes -= len(resident_rows[victim]) * row_bytes
            area.count -= len(resident_rows[victim])
            resident_tables[victim] = None
            resident_rows[victim] = []

        for batch in self.build.batches():
            if not len(batch):
                continue
            ctx.visit_batch("hash_build", len(batch))
            base = len(build_block)
            build_block.extend(batch)
            keys = batch.vector(self.build_column)
            # Partition count is fixed for the whole ingest, so the
            # level-0 partition of every key can be assigned in bulk; the
            # bucket hash cannot (the resident area may resize mid-batch).
            parts = kernels.spill_partitions(keys, 0, partitions)
            for offset, (key, part) in enumerate(zip(keys.tolist(), parts.tolist())):
                if part < resident:
                    area.store_one(key, keys_in_area)
                    resident_tables[part].add(key, base + offset)
                    resident_rows[part].append(base + offset)
                    resident_bytes += row_bytes
                    while resident_bytes > budget and resident > 0:
                        demote_one()
                else:
                    build_files[part].charge_append(ctx, offset)
            for handle in build_files:
                handle.flush(range(base, base + len(batch)), batch.columns)
        if collector is not None:
            collector.observe_cardinality(self.build_key, len(build_block))
        # The resident set is frozen from here on: demotions during the
        # probe phase would lose matches already probed against the table.

        # ---- probe ingest: probe resident partitions, spill the rest ----
        probe_block = ColumnBatch.empty()
        pairs: Pairs = []
        for batch in self.probe.batches():
            if not len(batch):
                continue
            ctx.visit_batch("hash_probe", len(batch))
            base = len(probe_block)
            probe_block.extend(batch)
            keys = batch.vector(self.probe_column)
            # Both the partition count and (resident set frozen) the bucket
            # count are fixed during the probe phase: assign and hash in
            # bulk.
            parts = kernels.spill_partitions(keys, 0, partitions)
            addresses = area.addresses(keys)
            for offset, (key, part) in enumerate(zip(keys.tolist(), parts.tolist())):
                if part < resident:
                    area.load_one(addresses[offset])
                    found = resident_tables[part].get(key)
                    if found:
                        pairs.extend((base + offset, build_position)
                                     for build_position in found)
                elif build_files[part].row_count:
                    # A probe row of a build-empty partition cannot match;
                    # the build phase's partition sizes are known, so grace
                    # joins skip its spill write.
                    probe_files[part].charge_append(ctx, offset)
            for handle in probe_files:
                handle.flush(range(base, base + len(batch)), batch.columns)
        if collector is not None:
            collector.observe_cardinality(self.probe_key, len(probe_block))

        # ---- join the spilled partitions, ascending index ----
        if len(build_block) and len(probe_block):
            self._join_spilled(build_files[resident:], probe_files[resident:],
                               level=1, budget=budget, pairs=pairs)
        yield from self._emit_pairs(pairs, build_block, probe_block)

    def _join_spilled(self, build_files: Sequence[_SpillFile],
                      probe_files: Sequence[_SpillFile], level: int,
                      budget: int, pairs: Pairs) -> None:
        """Join every partition that has rows on both sides, in order."""
        for build_handle, probe_handle in zip(build_files, probe_files):
            if build_handle.row_count and probe_handle.row_count:
                self._join_partition(*build_handle.read_all(self.ctx),
                                     *probe_handle.read_all(self.ctx),
                                     level, budget, pairs)

    def _join_partition(self, build_positions: List[int], build_rows: ColumnBatch,
                        probe_positions: List[int], probe_rows: ColumnBatch,
                        level: int, budget: int, pairs: Pairs) -> None:
        """Join one spilled partition, re-partitioning if it overflows.

        Each side is its rows (insertion order) and their global positions.
        A build side over budget is fanned out again with the next level's
        salt (both sides rewritten through the spill pool, charged per row,
        moved per run); at :data:`_MAX_SPILL_DEPTH` the partition is built
        in memory regardless -- recursion that deep means one
        duplicate-heavy key no amount of partitioning can split -- and the
        overrun is counted in ``ctx.io_stats["budget_overruns"]``.
        """
        ctx = self.ctx
        kernels = ctx.kernels
        row_bytes = self.build_row_bytes
        self.spill_depth = max(self.spill_depth, level)
        build_keys = build_rows.vector(self.build_column)
        probe_keys = probe_rows.vector(self.probe_column)
        over_budget = len(build_keys) * row_bytes > budget
        if over_budget and level < _MAX_SPILL_DEPTH and len(build_keys) > 1:
            fanout = max(plan_partition_count(len(build_keys), row_bytes, budget), 2)
            sub_build = self._spill_files(fanout)
            sub_probe = self._spill_files(fanout)
            for files, keys, positions, rows in (
                    (sub_build, build_keys, build_positions, build_rows),
                    (sub_probe, probe_keys, probe_positions, probe_rows)):
                for offset, part in enumerate(
                        kernels.spill_partitions(keys, level, fanout).tolist()):
                    # A probe row of a build-empty sub-partition is dropped.
                    if files is sub_build or sub_build[part].row_count:
                        files[part].charge_append(ctx, offset)
                for handle in files:
                    handle.flush(positions, rows.columns)
            self._join_spilled(sub_build, sub_probe, level + 1, budget, pairs)
            return
        if over_budget:
            ctx.io_stats["budget_overruns"] += 1

        area = _BucketArea(ctx, max(len(build_keys), 16))
        table = _Positions()
        ctx.visit_batch("hash_build", len(build_keys))
        area.store(build_keys, lambda: build_keys[:area.count])
        for position, key in zip(build_positions, build_keys.tolist()):
            table.add(key, position)
        ctx.visit_batch("hash_probe", len(probe_keys))
        area.load(probe_keys)
        for offset, found in table.matches(probe_keys):
            position = probe_positions[offset]
            pairs.extend((position, build_position)
                         for build_position in found)


class VecNestedLoopJoinOperator(VectorOperator):
    """Block nested-loop join: the inner input is rescanned (and cached as
    one columnar block) once per outer *batch* instead of once per outer
    *row*, while preserving the tuple engine's outer-major output order."""

    def __init__(self,
                 outer: VectorOperator,
                 inner_factory: Callable[[], VectorOperator],
                 outer_column: str,
                 inner_column: str,
                 ctx: ExecutionContext) -> None:
        self.outer = outer
        self.inner_factory = inner_factory
        self.outer_column = outer_column.split(".")[-1]
        self.inner_column = inner_column.split(".")[-1]
        self.ctx = ctx

    def batches(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        for outer_batch in self.outer.batches():
            if not len(outer_batch):
                continue
            inner_block = ColumnBatch.empty()
            for inner_batch in self.inner_factory().batches():
                inner_block.extend(inner_batch)
            inner_keys = (inner_block.vector(self.inner_column).tolist()
                          if len(inner_block) else [])
            inner_count = len(inner_block)
            inner_positions: List[int] = []
            outer_positions: List[int] = []
            for outer_position, outer_key in enumerate(
                    outer_batch.vector(self.outer_column).tolist()):
                # The match tests against the cached block are the join's
                # per-record work; one amortised invocation covers them all.
                ctx.visit_batch("inner_scan_next", inner_count)
                for inner_position, inner_key in enumerate(inner_keys):
                    if inner_key == outer_key:
                        inner_positions.append(inner_position)
                        outer_positions.append(outer_position)
            yield _joined(ctx, inner_block, inner_positions, outer_batch,
                          outer_positions)


class VecIndexNestedLoopJoinOperator(VectorOperator):
    """Index nested-loop join probing the inner index once per outer row,
    with the routine charges amortised over each outer batch."""

    def __init__(self,
                 outer: VectorOperator,
                 inner_table: Table,
                 inner_index: BTreeIndex,
                 outer_column: str,
                 ctx: ExecutionContext,
                 inner_output_columns: Sequence[str] = ()) -> None:
        self.outer = outer
        self.inner_table = inner_table
        self.inner_index = inner_index
        self.outer_column = outer_column.split(".")[-1]
        self.inner_output_columns = tuple(sorted({c.split(".")[-1]
                                                  for c in inner_output_columns}))
        self.ctx = ctx

    def batches(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        layout = self.inner_table.layout
        inner_names = self.inner_output_columns
        for outer_batch in self.outer.batches():
            if not len(outer_batch):
                continue
            descend_steps = 0
            leaf_advances = 0
            rid_fetches = 0
            outer_positions: List[int] = []
            inner_vectors: Dict[str, List] = {name: [] for name in inner_names}
            for outer_position, key in enumerate(
                    outer_batch.vector(self.outer_column).tolist()):
                descend_steps += _charge_descent(ctx, self.inner_index, key,
                                                 visit=False)
                matched = False
                for match in self.inner_index.range_search(key, key,
                                                           include_low=True,
                                                           include_high=True):
                    matched = True
                    leaf_advances += 1
                    ctx.read_address(match.entry_address, 16)
                    rid_fetches += 1
                    entry = self.inner_table.heap.fetch(match.rid)
                    outer_positions.append(outer_position)
                    if inner_names:
                        fields = ctx.read_fields(entry, layout, inner_names)
                        for name in inner_names:
                            inner_vectors[name].append(fields[name])
                if not matched:
                    leaf_advances += 1
            ctx.visit_batch("index_descend_node", descend_steps)
            ctx.visit_batch("leaf_advance", leaf_advances)
            ctx.visit_batch("rid_fetch", rid_fetches)
            joined_count = len(outer_positions)
            yield _joined(ctx, outer_batch, outer_positions,
                          ColumnBatch(_typed(self.inner_table, inner_vectors),
                                      joined_count),
                          np.arange(joined_count))


class VecScalarAggregateOperator(VectorOperator):
    """Columnar scalar aggregation: each accumulator folds a whole column
    vector per batch (loaded and stored once around the loop) in the child's
    row order, so results are bit-identical to the tuple engine."""

    STATE_BYTES = 32

    def __init__(self, child: VectorOperator, aggregates: Sequence[Aggregate],
                 ctx: ExecutionContext) -> None:
        if not aggregates:
            raise OperatorError("VecScalarAggregateOperator needs at least one aggregate")
        self.child = child
        self.aggregates = tuple(aggregates)
        self.ctx = ctx

    def batches(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        kernels = ctx.kernels
        state_base = ctx.allocate_workspace(len(self.aggregates) * self.STATE_BYTES)
        states = [AggregateState(agg) for agg in self.aggregates]
        for batch in self.child.batches():
            count = len(batch)
            if not count:
                continue
            ctx.visit_batch("agg_update", count)
            for position, (agg, state) in enumerate(zip(self.aggregates, states)):
                address = state_base + position * self.STATE_BYTES
                ctx.read_address(address, 8)
                if agg.column is None:
                    kernels.fold_count(state, count)
                else:
                    kernels.fold(state, batch.vector(agg.column))
                ctx.write_address(address, 8)
        yield ColumnBatch({agg.label: [state.result()]
                           for agg, state in zip(self.aggregates, states)}, 1)
