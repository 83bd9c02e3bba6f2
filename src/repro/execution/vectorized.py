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
(:meth:`VectorOperator.rows` / :func:`execute_plan_vectorized` late
materialization), which is where the differential harness diffs them against
the tuple engine.

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

import pickle

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..adaptive.policy import plan_partition_count
from ..index.btree import BTreeIndex
from ..storage.buffer_pool import BACKING_REGION, BufferPool
from ..storage.page import DEFAULT_PAGE_SIZE
from ..query.expressions import Aggregate, AggregateState, Expression
from ..query.plans import (AggregatePlan, HashJoinPlan,
                           IndexNestedLoopJoinPlan, IndexPointLookupPlan,
                           IndexRangeScanPlan, JoinPlan, NestedLoopJoinPlan,
                           PhysicalPlan, ScanPlan, SeqScanPlan, UpdatePlan)
from ..storage.catalog import Catalog, Table
from .context import ExecutionContext
from .kernels import PYTHON_KERNELS, spill_partition_of
from .operators import HashJoinOperator, OperatorError, Row
from .resolve import ExecutorError

__all__ = [
    "ColumnBatch", "merge_gather",
    "VectorOperator", "VecSeqScanOperator", "VecFilterOperator",
    "VecIndexRangeScanOperator", "VecIndexPointLookupOperator",
    "VecHashJoinOperator", "VecNestedLoopJoinOperator",
    "VecIndexNestedLoopJoinOperator", "VecScalarAggregateOperator",
    "build_vectorized_scan", "build_vectorized_join", "build_vectorized_plan",
    "execute_plan_vectorized",
]


class ColumnBatch:
    """One unit of columnar dataflow: column name -> equal-length vectors.

    The mapping is insertion-ordered and that order is the batch's column
    order: :meth:`to_rows` materializes dictionaries with exactly this key
    order, so column order is stable end-to-end.  ``length`` is tracked
    explicitly so projection-free batches (no columns requested) still know
    how many rows they carry.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: Dict[str, List], length: Optional[int] = None) -> None:
        if length is None:
            length = len(next(iter(columns.values()))) if columns else 0
        for name, vector in columns.items():
            if len(vector) != length:
                raise OperatorError(
                    f"column {name!r} has {len(vector)} values, expected {length}")
        self.columns = columns
        self.length = length

    @classmethod
    def empty(cls, column_names: Sequence[str] = ()) -> "ColumnBatch":
        return cls({name: [] for name in column_names}, 0)

    def __len__(self) -> int:
        return self.length

    def column_names(self) -> Tuple[str, ...]:
        return tuple(self.columns)

    def vector(self, column: str) -> List:
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
        return {name: vector[position] for name, vector in self.columns.items()}

    def to_rows(self) -> List[Row]:
        """Late materialization: the row dicts the tuple engine would yield."""
        columns = self.columns
        if not columns:
            return [{} for _ in range(self.length)]
        names = tuple(columns)
        return [dict(zip(names, values)) for values in zip(*columns.values())]

    def gather(self, positions: Sequence[int], kernels=None) -> "ColumnBatch":
        """New batch holding the given row positions (selection/compaction)."""
        take = (kernels or PYTHON_KERNELS).gather
        return ColumnBatch({name: take(vector, positions)
                            for name, vector in self.columns.items()},
                           len(positions))


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
    take = (kernels or PYTHON_KERNELS).gather
    out: Dict[str, List] = {}
    for name, vector in left.columns.items():
        out[name] = take(vector, left_positions)
    for name, vector in right.columns.items():
        out[name] = take(vector, right_positions)
    return ColumnBatch(out, len(left_positions))


def _chunked(items: Sequence, size: int) -> Iterator[Sequence]:
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _concat_batches(batches: Iterator[ColumnBatch]) -> ColumnBatch:
    """Concatenate a stream of batches into one (build/inner-side caching)."""
    columns: Dict[str, List] = {}
    length = 0
    for batch in batches:
        if not len(batch):
            continue
        if not columns:
            columns = {name: list(vector) for name, vector in batch.columns.items()}
        else:
            for name, vector in batch.columns.items():
                columns[name].extend(vector)
        length += len(batch)
    return ColumnBatch(columns, length)


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
                 count_records: bool = True,
                 page_range: Optional[Tuple[int, int]] = None) -> None:
        self.table = table
        self.ctx = ctx
        self.predicate = predicate
        self.next_operation = next_operation
        self.batch_size = batch_size
        self.count_records = count_records
        #: Optional ``[start, stop)`` restriction over the heap's page
        #: sequence -- the unit the morsel-parallel exchange partitions on.
        #: ``None`` scans every page (the serial engine's behaviour).
        self.page_range = page_range
        predicate_columns = sorted(c.split(".")[-1]
                                   for c in (predicate.columns() if predicate else ()))
        outputs = sorted({c.split(".")[-1] for c in output_columns})
        self.predicate_columns: Tuple[str, ...] = tuple(predicate_columns)
        self.extra_columns: Tuple[str, ...] = tuple(c for c in outputs
                                                    if c not in predicate_columns)

    def batches(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        table = self.table
        layout = table.layout
        predicate = self.predicate
        names = self.predicate_columns
        # Micro-adaptive conjunct reordering engages only when a manager is
        # attached (``adaptivity != "off"``) *and* the predicate is a
        # multi-conjunct conjunction; otherwise the static path below is
        # untouched (bit-identical to previous releases).  When the manager
        # additionally enables batch sizing, the scan switches to the
        # cross-page accumulation path whose vector size walks the bounded
        # ladder (the conjunct evaluator composes with it unchanged).
        manager = getattr(ctx, "adaptive", None)
        adaptive = manager
        if adaptive is not None and not adaptive.applies(predicate):
            adaptive = None
        if manager is not None and manager.batch_sizing:
            yield from self._adaptive_batches(manager, adaptive)
            return
        if self.page_range is not None:
            pages = table.heap.scan_pages(*self.page_range)
        else:
            pages = table.heap.scan_pages()
        kernels = ctx.kernels
        for page, slots in pages:
            ctx.visit("page_boundary")
            for chunk in _chunked(slots, self.batch_size):
                count = len(chunk)
                ctx.visit_batch(self.next_operation, count)
                columns = ctx.read_column_group_batch(page, layout, chunk, names)
                if predicate is not None:
                    if adaptive is not None:
                        mask = adaptive.evaluate_batch(ctx, predicate,
                                                       columns, count)
                    else:
                        mask = predicate.evaluate_batch(columns, count,
                                                        kernels)
                    selected = kernels.compact(mask)
                    if adaptive is None:
                        ctx.visit_batch("predicate", count)
                    out_columns = {name: kernels.gather(vector, selected)
                                   for name, vector in columns.items()}
                else:
                    selected = None
                    # read_column_group_batch returns fresh vectors per
                    # chunk, so they can be emitted (and extended) directly.
                    out_columns = columns
                out_count = count if selected is None else len(selected)
                if self.extra_columns and out_count:
                    selected_slots = (list(chunk) if selected is None
                                      else kernels.gather(chunk, selected))
                    out_columns.update(ctx.read_column_group_batch(
                        page, layout, selected_slots, self.extra_columns))
                ctx.row_produced(out_count)
                if self.count_records:
                    ctx.record_done(count)
                yield ColumnBatch(out_columns, out_count)

    def _adaptive_batches(self, manager, conjuncts) -> Iterator[ColumnBatch]:
        """Batch-size-adaptive scan: accumulate slot runs across pages into
        vectors of the policy-chosen size.

        Unlike the static path, whose chunks never span a page (so the
        configured batch size is silently capped at the page's slot count),
        this path gathers ``(page, slots)`` segments until the current
        target size is reached -- the working set of a batch is therefore
        really under the policy's control.  After each batch the simulated
        L1D miss delta is observed into the collector at the batch's size
        rung and the policy picks the next size from the bounded ladder.
        Inside a morsel worker the context exposes no hardware
        (``l1d_misses() is None``): the worker keeps the spec's fixed size
        and the parent observes the pressure at tape-replay time instead,
        re-deciding between waves -- so serial charging and replayed
        charging observe the same signal exactly once.
        """
        ctx = self.ctx
        table = self.table
        layout = table.layout
        predicate = self.predicate
        names = self.predicate_columns
        kernels = ctx.kernels
        policy = manager.policy
        collector = manager.collector
        pressure_key = f"scan:{table.name}"
        size = max(int(self.batch_size), 1)
        pending: List[Tuple[object, Sequence[int]]] = []
        pending_rows = 0

        def flush() -> Optional[ColumnBatch]:
            nonlocal pending, pending_rows, size
            if not pending_rows:
                return None
            count = pending_rows
            rung = size
            before = ctx.l1d_misses()
            ctx.visit_batch(self.next_operation, count)
            columns: Dict[str, List] = {name: [] for name in names}
            for page, slots in pending:
                part = ctx.read_column_group_batch(page, layout, slots, names)
                for name in names:
                    columns[name].extend(part[name])
            if predicate is not None:
                if conjuncts is not None:
                    mask = conjuncts.evaluate_batch(ctx, predicate, columns,
                                                    count)
                else:
                    mask = predicate.evaluate_batch(columns, count, kernels)
                    ctx.visit_batch("predicate", count)
                selected = kernels.compact(mask)
                out_columns = {name: kernels.gather(vector, selected)
                               for name, vector in columns.items()}
            else:
                selected = None
                out_columns = columns
            out_count = count if selected is None else len(selected)
            if self.extra_columns and out_count:
                positions = selected if selected is not None else range(count)
                extra: Dict[str, List] = {name: [] for name in self.extra_columns}
                cursor = 0
                offset = 0
                positions = list(positions)
                for page, slots in pending:
                    upper = offset + len(slots)
                    segment_slots = []
                    while cursor < len(positions) and positions[cursor] < upper:
                        segment_slots.append(slots[positions[cursor] - offset])
                        cursor += 1
                    if segment_slots:
                        part = ctx.read_column_group_batch(
                            page, layout, segment_slots, self.extra_columns)
                        for name in self.extra_columns:
                            extra[name].extend(part[name])
                    offset = upper
                out_columns.update(extra)
            ctx.row_produced(out_count)
            if self.count_records:
                ctx.record_done(count)
            if before is not None:
                collector.observe_pressure(pressure_key, rung, count,
                                           ctx.l1d_misses() - before)
                size = max(int(policy.batch_size(pressure_key, rung,
                                                 collector)), 1)
            pending = []
            pending_rows = 0
            return ColumnBatch(out_columns, out_count)

        if self.page_range is not None:
            pages = table.heap.scan_pages(*self.page_range)
        else:
            pages = table.heap.scan_pages()
        for page, slots in pages:
            ctx.visit("page_boundary")
            start = 0
            total = len(slots)
            while start < total:
                take = min(size - pending_rows, total - start)
                if take > 0:
                    pending.append((page, slots[start:start + take]))
                    pending_rows += take
                    start += take
                if pending_rows >= size:
                    batch = flush()
                    if batch is not None:
                        yield batch
        batch = flush()
        if batch is not None:
            yield batch


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
        kernels = ctx.kernels
        predicate = self.predicate
        adaptive = getattr(ctx, "adaptive", None)
        if adaptive is not None and not adaptive.applies(predicate):
            adaptive = None
        for batch in self.child.batches():
            if not len(batch):
                yield batch
                continue
            if adaptive is not None:
                mask = adaptive.evaluate_batch(ctx, predicate, batch.columns,
                                               len(batch))
            else:
                mask = predicate.evaluate_batch(batch.columns, len(batch),
                                                kernels)
                ctx.visit_batch("predicate", len(batch))
            selected = kernels.compact(mask)
            kept = batch.gather(selected, kernels)
            ctx.row_produced(len(kept))
            yield kept


class VecIndexRangeScanOperator(VectorOperator):
    """Batch index range scan: descend once, drain the leaves in batches."""

    def __init__(self,
                 table: Table,
                 index: BTreeIndex,
                 ctx: ExecutionContext,
                 low, high,
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
        table = self.table
        layout = table.layout
        key_column = (self.index.name.split("_")[1]
                      if "_" in self.index.name else "key")

        descent_key = self.low if self.low is not None else self.high
        steps = list(self.index.descend(descent_key))
        ctx.visit_batch("index_descend_node", len(steps))
        for step in steps:
            ctx.read_address(step.node_address, 8)
            ctx.read_address(step.entry_address, 16)

        matches = list(self.index.range_search(self.low, self.high,
                                               include_low=self.include_low,
                                               include_high=self.include_high))
        residual = self.residual_predicate
        for chunk in _chunked(matches, self.batch_size):
            count = len(chunk)
            ctx.visit_batch("leaf_advance", count)
            for match in chunk:
                ctx.read_address(match.entry_address, 16)
            ctx.visit_batch("rid_fetch", count)
            columns: Dict[str, List] = {key_column: [match.key for match in chunk]}
            if self.fetch_columns:
                vectors: Dict[str, List] = {name: [] for name in self.fetch_columns}
                for match in chunk:
                    entry = table.heap.fetch(match.rid)
                    fields = ctx.read_fields(entry, layout, self.fetch_columns)
                    for name in self.fetch_columns:
                        vectors[name].append(fields[name])
                columns.update(vectors)
            batch = ColumnBatch(columns, count)
            if residual is not None:
                kernels = ctx.kernels
                mask = residual.evaluate_batch(batch.columns, count, kernels)
                selected = kernels.compact(mask)
                ctx.visit_batch("predicate", count)
                batch = batch.gather(selected, kernels)
            ctx.row_produced(len(batch))
            ctx.record_done(count)
            yield batch


class VecIndexPointLookupOperator(VectorOperator):
    """Batch exact-match index lookup (the update path's access plan)."""

    def __init__(self, table: Table, index: BTreeIndex, ctx: ExecutionContext,
                 value, output_columns: Sequence[str] = (),
                 batch_size: int = 256) -> None:
        self.table = table
        self.index = index
        self.ctx = ctx
        self.value = value
        self.batch_size = batch_size
        self.output_columns = tuple(sorted({c.split(".")[-1] for c in output_columns}))

    def batches(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        layout = self.table.layout
        steps = list(self.index.descend(self.value))
        ctx.visit_batch("index_descend_node", len(steps))
        for step in steps:
            ctx.read_address(step.node_address, 8)
            ctx.read_address(step.entry_address, 16)
        matches = list(self.index.range_search(self.value, self.value,
                                               include_low=True, include_high=True))
        columns = tuple(self.output_columns or self.table.schema.column_names())
        for chunk in _chunked(matches, self.batch_size):
            count = len(chunk)
            ctx.visit_batch("leaf_advance", count)
            for match in chunk:
                ctx.read_address(match.entry_address, 16)
            ctx.visit_batch("rid_fetch", count)
            vectors: Dict[str, List] = {name: [] for name in columns}
            rids: List = []
            for match in chunk:
                entry = self.table.heap.fetch(match.rid)
                fields = ctx.read_fields(entry, layout, columns)
                for name in columns:
                    vectors[name].append(fields[name])
                rids.append(match.rid)
            vectors["__rid__"] = rids
            ctx.row_produced(count)
            yield ColumnBatch(vectors, count)
        ctx.record_done()


#: Recursion bound for re-partitioning an overflowing spill partition.  A
#: partition still over budget at this depth is built in memory anyway --
#: each level multiplies the fan-out, so hitting the bound means the input
#: is pathologically skewed (every level hashed the same key together) and
#: further partitioning cannot split it.
_MAX_SPILL_DEPTH = 4


#: Deterministic spill-partition assignment, salted by recursion level.
#: The canonical implementation now lives in the kernels package (it is one
#: of the data-plane contracts both backends must reproduce bit-for-bit);
#: this alias keeps the historical name for the scalar call sites here.
_spill_partition_of = spill_partition_of


def _column_index(names: Sequence[str], column: str) -> int:
    """Position of ``column`` in ``names`` (qualified or unqualified)."""
    names = list(names)
    if column in names:
        return names.index(column)
    short = column.split(".")[-1]
    for position, name in enumerate(names):
        if name.split(".")[-1] == short:
            return position
    raise OperatorError(f"columns {names} have no column {column!r}")


class _SpillFile:
    """Append-only run of pickled ``(position, values)`` records.

    One spill partition side (build or probe) of the memory-budgeted hash
    join.  Records flow through a capacity-limited :class:`BufferPool`, so
    writing and reading them exercises the pool's real eviction/reload path
    and every page transfer is charged through the context's I/O cost
    model.  Each record is zero-padded to the source table's nominal record
    size (``pickle.loads`` stops at the pickle's STOP opcode, so padding is
    ignored on read-back): the spilled *bytes* match the row footprint the
    budget reasons about, not the pickle encoding's whims.

    Pages are pinned only for the duration of one append or one page read,
    so at most one frame is pinned at any instant and the join works with a
    pool as small as a single page (it just faults -- honestly -- on every
    other access).
    """

    __slots__ = ("pool", "record_bytes", "page_numbers", "_current", "row_count")

    def __init__(self, pool: BufferPool, record_bytes: int) -> None:
        self.pool = pool
        self.record_bytes = max(record_bytes, 1)
        self.page_numbers: List[int] = []
        self._current: Optional[int] = None
        self.row_count = 0

    def append(self, ctx: ExecutionContext, position: int, values: Tuple) -> None:
        """Append one record, charging the slot store (and any page I/O)."""
        payload = pickle.dumps((position, values), protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) < self.record_bytes:
            payload = payload.ljust(self.record_bytes, b"\0")
        page = None
        if self._current is not None:
            page = self.pool.fetch_page(self._current, pin=True)
            if not page.has_room_for(len(payload)):
                self.pool.unpin(self._current)
                page = None
        if page is None:
            page = self.pool.allocate_page(pin=True)
            self.page_numbers.append(page.page_number)
            self._current = page.page_number
        slot = page.insert(payload)
        ctx.write_address(page.slot_address(slot), len(payload))
        self.pool.unpin(page.page_number)
        self.row_count += 1

    def read_all(self, ctx: ExecutionContext) -> List[Tuple[int, Tuple]]:
        """Read back every record in append order, charging per record."""
        records: List[Tuple[int, Tuple]] = []
        for page_number in self.page_numbers:
            page = self.pool.fetch_page(page_number, pin=True)
            for slot in page.live_slots():
                record = bytes(page.record_view(slot))
                ctx.read_address(page.slot_address(slot), len(record))
                records.append(pickle.loads(record))
            self.pool.unpin(page_number)
        return records


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
    dict-merge column order (see :meth:`_adaptive_batches`).

    When ``ctx.execution`` sets a ``memory_budget_bytes``, the operator runs
    its grace/hybrid spilling path instead (:meth:`_spill_batches`): both
    inputs are hash-partitioned, as many partitions as fit the budget stay
    resident, the rest spill through a budget-sized buffer pool and are
    joined partition by partition (recursively re-partitioning overflows).
    The recombination argument is the same as the flip's, so the output is
    row-, order- and column-identical to the in-memory join at every
    budget.
    """

    ENTRY_BYTES = HashJoinOperator.ENTRY_BYTES

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

    def batches(self) -> Iterator[ColumnBatch]:
        budget = self.ctx.execution.memory_budget_bytes
        if budget is not None:
            # The budgeted path subsumes the join-side decision: the build
            # side's footprint is governed by partitioning, not by flipping,
            # so the adaptive manager contributes its partition_count policy
            # and cardinality statistics rather than flip_join.
            yield from self._spill_batches(budget, getattr(self.ctx, "adaptive", None))
            return
        adaptive = getattr(self.ctx, "adaptive", None)
        if adaptive is not None and not adaptive.join_sides:
            adaptive = None
        if adaptive is None:
            yield from self._static_batches()
        else:
            yield from self._adaptive_batches(adaptive)

    def _resize_hash_area(self, buckets: int, keys: Sequence) -> Tuple[int, int]:
        """Grow the bucket array past the planner's estimate and re-charge.

        The observed build cardinality has reached ``buckets`` (the sizing
        estimate), so the charged footprint no longer matches reality: keep
        hashing into the undersized area and the simulated working set --
        and its cache behaviour -- would stay estimate-shaped however large
        the input.  Mirror of a hash table's load-factor doubling: allocate
        a doubled area and re-charge the rehash of every resident key.
        Returns ``(new_buckets, new_area)``.
        """
        ctx = self.ctx
        entry_bytes = self.ENTRY_BYTES
        new_buckets = max(buckets * 2, 16)
        new_area = ctx.allocate_workspace(new_buckets * entry_bytes)
        if keys:
            ctx.visit_batch("hash_build", len(keys))
            for bucket in ctx.kernels.bucket_indices(keys, new_buckets):
                ctx.write_address(new_area + bucket * entry_bytes, entry_bytes)
        return new_buckets, new_area

    def _static_batches(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        kernels = ctx.kernels
        hash_area = ctx.allocate_workspace(self.build_row_estimate * self.ENTRY_BYTES)
        buckets = self.build_row_estimate
        entry_bytes = self.ENTRY_BYTES

        build_columns: Dict[str, List] = {}
        build_count = 0
        build_keys: List = []
        hash_table: Dict[object, List[int]] = {}
        for batch in self.build.batches():
            if not len(batch):
                continue
            ctx.visit_batch("hash_build", len(batch))
            if not build_columns:
                build_columns = {name: list(vector)
                                 for name, vector in batch.columns.items()}
            else:
                for name, vector in batch.columns.items():
                    build_columns[name].extend(vector)
            keys = batch.vector(self.build_column)
            if build_count + len(keys) <= buckets:
                # No mid-batch resize possible: hash the whole key vector at
                # once.  The per-key charge below is untouched.
                for key, bucket in zip(keys, kernels.bucket_indices(keys, buckets)):
                    ctx.write_address(hash_area + bucket * entry_bytes, entry_bytes)
                    hash_table.setdefault(key, []).append(build_count)
                    build_keys.append(key)
                    build_count += 1
                continue
            for key in keys:
                if build_count == buckets:
                    # Observed cardinality exceeds the sizing estimate:
                    # reconcile by doubling (and re-charging) the area.
                    buckets, hash_area = self._resize_hash_area(buckets, build_keys)
                bucket_address = hash_area + (hash(key) % buckets) * entry_bytes
                ctx.write_address(bucket_address, entry_bytes)
                hash_table.setdefault(key, []).append(build_count)
                build_keys.append(key)
                build_count += 1
        build_block = ColumnBatch(build_columns, build_count)

        for batch in self.probe.batches():
            if not len(batch):
                continue
            ctx.visit_batch("hash_probe", len(batch))
            build_positions: List[int] = []
            probe_positions: List[int] = []
            probe_keys = batch.vector(self.probe_column)
            buckets_of = kernels.bucket_indices(probe_keys, buckets)
            for position, key in enumerate(probe_keys):
                bucket_address = hash_area + buckets_of[position] * entry_bytes
                ctx.read_address(bucket_address, entry_bytes)
                matches = hash_table.get(key)
                if not matches:
                    continue
                build_positions.extend(matches)
                probe_positions.extend([position] * len(matches))
            ctx.visit_batch("join_output", len(build_positions))
            ctx.row_produced(len(build_positions))
            yield merge_gather(build_block, build_positions, batch, probe_positions,
                               kernels)

    def _adaptive_batches(self, manager) -> Iterator[ColumnBatch]:
        """Join-side-adaptive execution: ingest, observe, possibly flip.

        The unflipped branch charges exactly like :meth:`_static_batches`
        (plus free collector observations), so ``adaptivity="static"`` with
        ``adaptive_joins=True`` is the cycle-identical control arm.  The
        flipped branch recombines the static output exactly: the static
        join emits pairs ordered lexicographically by (global probe
        position, build insertion position) -- probe batches stream in
        order, and each probe row's matches come back in build insertion
        order -- so collecting every (probe position, build position) match
        of the flipped orientation and sorting restores the static row
        order, while ``merge_gather`` keeps the build block on the left for
        the static dict-merge column order.
        """
        from itertools import chain

        ctx = self.ctx
        kernels = ctx.kernels
        policy = manager.policy
        collector = manager.collector
        hash_area = ctx.allocate_workspace(self.build_row_estimate * self.ENTRY_BYTES)
        buckets = self.build_row_estimate
        entry_bytes = self.ENTRY_BYTES

        build_columns: Dict[str, List] = {}
        build_count = 0
        hash_table: Dict[object, List[int]] = {}
        flipped = False
        pending: Optional[ColumnBatch] = None
        build_iter = self.build.batches()
        for batch in build_iter:
            if not len(batch):
                continue
            if policy.flip_join(self.build_key, self.probe_key,
                                self.probe_row_estimate, build_count,
                                collector):
                flipped = True
                pending = batch
                break
            ctx.visit_batch("hash_build", len(batch))
            if not build_columns:
                build_columns = {name: list(vector)
                                 for name, vector in batch.columns.items()}
            else:
                for name, vector in batch.columns.items():
                    build_columns[name].extend(vector)
            keys = batch.vector(self.build_column)
            for key, bucket in zip(keys, kernels.bucket_indices(keys, buckets)):
                ctx.write_address(hash_area + bucket * entry_bytes, entry_bytes)
                hash_table.setdefault(key, []).append(build_count)
                build_count += 1

        if not flipped:
            collector.observe_cardinality(self.build_key, build_count)
            build_block = ColumnBatch(build_columns, build_count)
            probe_rows = 0
            for batch in self.probe.batches():
                if not len(batch):
                    continue
                probe_rows += len(batch)
                ctx.visit_batch("hash_probe", len(batch))
                build_positions: List[int] = []
                probe_positions: List[int] = []
                probe_keys = batch.vector(self.probe_column)
                buckets_of = kernels.bucket_indices(probe_keys, buckets)
                for position, key in enumerate(probe_keys):
                    bucket_address = hash_area + buckets_of[position] * entry_bytes
                    ctx.read_address(bucket_address, entry_bytes)
                    matches = hash_table.get(key)
                    if not matches:
                        continue
                    build_positions.extend(matches)
                    probe_positions.extend([position] * len(matches))
                ctx.visit_batch("join_output", len(build_positions))
                ctx.row_produced(len(build_positions))
                yield merge_gather(build_block, build_positions, batch,
                                   probe_positions, kernels)
            collector.observe_cardinality(self.probe_key, probe_rows)
            return

        # -- flipped: the probe input becomes the hash-table side ----------
        flip_buckets = self.probe_row_estimate
        flip_area = ctx.allocate_workspace(flip_buckets * entry_bytes)
        probe_columns: Dict[str, List] = {}
        probe_count = 0
        flip_table: Dict[object, List[int]] = {}
        for batch in self.probe.batches():
            if not len(batch):
                continue
            ctx.visit_batch("hash_build", len(batch))
            if not probe_columns:
                probe_columns = {name: list(vector)
                                 for name, vector in batch.columns.items()}
            else:
                for name, vector in batch.columns.items():
                    probe_columns[name].extend(vector)
            keys = batch.vector(self.probe_column)
            for key, bucket in zip(keys, kernels.bucket_indices(keys, flip_buckets)):
                ctx.write_address(flip_area + bucket * entry_bytes, entry_bytes)
                flip_table.setdefault(key, []).append(probe_count)
                probe_count += 1
        collector.observe_cardinality(self.probe_key, probe_count)
        probe_block = ColumnBatch(probe_columns, probe_count)

        pairs: List[Tuple[int, int]] = []

        def stream_lookups(keys: Sequence, base: int) -> None:
            ctx.visit_batch("hash_probe", len(keys))
            buckets_of = kernels.bucket_indices(keys, flip_buckets)
            for offset, key in enumerate(keys):
                bucket_address = flip_area + buckets_of[offset] * entry_bytes
                ctx.read_address(bucket_address, entry_bytes)
                matches = flip_table.get(key)
                if matches:
                    build_position = base + offset
                    pairs.extend((probe_position, build_position)
                                 for probe_position in matches)

        # Build rows ingested before the flip were wasted hash-build work --
        # the honest cost of a late flip; they stay in the block and are
        # streamed through the flipped table first, in insertion order.
        if build_count:
            stream_lookups(
                ColumnBatch(build_columns, build_count).vector(self.build_column), 0)
        for batch in chain((pending,), build_iter):
            if batch is None or not len(batch):
                continue
            base = build_count
            if not build_columns:
                build_columns = {name: list(vector)
                                 for name, vector in batch.columns.items()}
            else:
                for name, vector in batch.columns.items():
                    build_columns[name].extend(vector)
            build_count += len(batch)
            stream_lookups(batch.vector(self.build_column), base)
        collector.observe_cardinality(self.build_key, build_count)
        build_block = ColumnBatch(build_columns, build_count)

        # Recombination: sorting the matched pairs restores the static
        # probe-major row order exactly (see the method docstring).
        pairs.sort()
        for chunk in _chunked(pairs, self.batch_size):
            probe_positions = [pair[0] for pair in chunk]
            build_positions = [pair[1] for pair in chunk]
            ctx.visit_batch("join_output", len(chunk))
            ctx.row_produced(len(chunk))
            yield merge_gather(build_block, build_positions, probe_block,
                               probe_positions, kernels)

    # ----------------------------------------------- grace/hybrid spilling
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
          charged eviction/reload;
        * if ingest observes more resident bytes than the budget allows,
          the highest-numbered resident partition is demoted -- its rows
          are spilled and its table dropped -- until the budget holds
          (dynamic destaging, the "hybrid" in hybrid hash);
        * spilled partitions are joined after ingest; one whose build side
          still exceeds the budget is recursively re-partitioned with a
          level-salted hash (bounded by ``_MAX_SPILL_DEPTH``).

        Identity argument: every match is collected as a (global probe
        position, global build position) pair; the static join emits pairs
        ordered lexicographically by exactly that tuple (probe batches
        stream in order; each probe row's matches come back in build
        insertion order, and per-partition spill files preserve insertion
        order), so sorting the collected pairs restores the static row
        order, and ``merge_gather`` with the build block on the left
        restores the static dict-merge column order.
        """
        ctx = self.ctx
        kernels = ctx.kernels
        entry_bytes = self.ENTRY_BYTES
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

        spill_pool: Optional[BufferPool] = None

        def pool() -> BufferPool:
            # Created lazily so a budget the input fits under allocates
            # nothing and charges nothing beyond the static join's work.
            nonlocal spill_pool
            if spill_pool is None:
                page_size = DEFAULT_PAGE_SIZE
                # Concurrent logical sessions spill into private backing
                # namespaces (ctx.disk_namespace, set by the serving layer)
                # so their backing-store pages cannot collide; solo sessions
                # keep the shared "disk" region.
                backing = getattr(ctx, "disk_namespace", None) or BACKING_REGION
                spill_pool = BufferPool(ctx.address_space, region="workspace",
                                        page_size=page_size,
                                        capacity_pages=max(budget // page_size, 1),
                                        io=ctx,
                                        backing_region=backing)
                self.spill_pool = spill_pool
            return spill_pool

        def spill_file(files: List[Optional[_SpillFile]], index: int) -> _SpillFile:
            handle = files[index]
            if handle is None:
                handle = files[index] = _SpillFile(pool(), row_bytes)
            return handle

        hash_area = ctx.allocate_workspace(self.build_row_estimate * entry_bytes)
        buckets = self.build_row_estimate

        # ---- build ingest: resident tables + spill files ----
        build_columns: Dict[str, List] = {}
        build_count = 0
        resident = partitions
        resident_bytes = 0
        resident_count = 0
        resident_keys: List[List] = [[] for _ in range(partitions)]
        resident_tables: List[Optional[Dict[object, List[int]]]] = [
            {} for _ in range(partitions)]
        resident_rows: List[List[int]] = [[] for _ in range(partitions)]
        build_files: List[Optional[_SpillFile]] = [None] * partitions
        probe_files: List[Optional[_SpillFile]] = [None] * partitions

        def row_values(columns: Dict[str, List], position: int) -> Tuple:
            return tuple(vector[position] for vector in columns.values())

        def demote_one() -> None:
            """Spill the highest-numbered resident partition (destaging)."""
            nonlocal resident, resident_bytes, resident_count
            resident -= 1
            victim = resident
            handle = spill_file(build_files, victim)
            for position in resident_rows[victim]:
                handle.append(ctx, position, row_values(build_columns, position))
            resident_bytes -= len(resident_rows[victim]) * row_bytes
            resident_count -= len(resident_rows[victim])
            resident_tables[victim] = None
            resident_rows[victim] = []
            resident_keys[victim] = []

        for batch in self.build.batches():
            if not len(batch):
                continue
            ctx.visit_batch("hash_build", len(batch))
            if not build_columns:
                build_columns = {name: list(vector)
                                 for name, vector in batch.columns.items()}
            else:
                for name, vector in batch.columns.items():
                    build_columns[name].extend(vector)
            keys = batch.vector(self.build_column)
            # Partition count is fixed for the whole ingest, so the
            # level-0 partition of every key can be assigned in bulk; the
            # bucket hash below cannot (the resident area may resize
            # mid-batch).
            parts = kernels.spill_partitions(keys, 0, partitions)
            for key, part in zip(keys, parts):
                if part < resident:
                    if resident_count == buckets:
                        buckets, hash_area = self._resize_hash_area(
                            buckets,
                            [k for part_keys in resident_keys[:resident]
                             for k in part_keys])
                    bucket_address = hash_area + (hash(key) % buckets) * entry_bytes
                    ctx.write_address(bucket_address, entry_bytes)
                    resident_tables[part].setdefault(key, []).append(build_count)
                    resident_rows[part].append(build_count)
                    resident_keys[part].append(key)
                    resident_count += 1
                    resident_bytes += row_bytes
                    while resident_bytes > budget and resident > 0:
                        demote_one()
                else:
                    spill_file(build_files, part).append(
                        ctx, build_count, row_values(build_columns, build_count))
                build_count += 1
        if collector is not None:
            collector.observe_cardinality(self.build_key, build_count)
        # The resident set is frozen from here on: demotions during the
        # probe phase would lose matches already probed against the table.
        del resident_keys

        # ---- probe ingest: probe resident partitions, spill the rest ----
        probe_columns: Dict[str, List] = {}
        probe_count = 0
        pairs: List[Tuple[int, int]] = []
        for batch in self.probe.batches():
            if not len(batch):
                continue
            ctx.visit_batch("hash_probe", len(batch))
            if not probe_columns:
                probe_columns = {name: list(vector)
                                 for name, vector in batch.columns.items()}
            else:
                for name, vector in batch.columns.items():
                    probe_columns[name].extend(vector)
            keys = batch.vector(self.probe_column)
            # Both the partition count and (resident set frozen) the bucket
            # count are fixed during the probe phase: assign and hash in
            # bulk.
            parts = kernels.spill_partitions(keys, 0, partitions)
            buckets_of = kernels.bucket_indices(keys, buckets)
            for offset, (key, part) in enumerate(zip(keys, parts)):
                if part < resident:
                    bucket_address = hash_area + buckets_of[offset] * entry_bytes
                    ctx.read_address(bucket_address, entry_bytes)
                    matches = resident_tables[part].get(key)
                    if matches:
                        pairs.extend((probe_count, build_position)
                                     for build_position in matches)
                else:
                    handle = build_files[part]
                    # A probe row of a build-empty partition cannot match;
                    # the build phase's partition sizes are known, so grace
                    # joins skip its spill write.
                    if handle is not None and handle.row_count:
                        spill_file(probe_files, part).append(
                            ctx, probe_count,
                            row_values(probe_columns, probe_count))
                probe_count += 1
        if collector is not None:
            collector.observe_cardinality(self.probe_key, probe_count)

        # ---- join the spilled partitions, ascending index ----
        probe_key_index: Optional[int] = None
        build_key_index: Optional[int] = None
        if build_columns:
            build_key_index = _column_index(tuple(build_columns), self.build_column)
        if probe_columns:
            probe_key_index = _column_index(tuple(probe_columns), self.probe_column)
        for part in range(resident, partitions):
            build_handle = build_files[part]
            probe_handle = probe_files[part]
            if build_handle is None or probe_handle is None:
                continue
            if not build_handle.row_count or not probe_handle.row_count:
                continue
            self._join_partition(build_handle.read_all(ctx),
                                 probe_handle.read_all(ctx),
                                 build_key_index, probe_key_index,
                                 level=1, budget=budget, pool=pool,
                                 pairs=pairs)

        # ---- recombination: sorted pairs restore the static order ----
        build_block = ColumnBatch(build_columns, build_count)
        probe_block = ColumnBatch(probe_columns, probe_count)
        pairs.sort()
        for chunk in _chunked(pairs, self.batch_size):
            probe_positions = [pair[0] for pair in chunk]
            build_positions = [pair[1] for pair in chunk]
            ctx.visit_batch("join_output", len(chunk))
            ctx.row_produced(len(chunk))
            yield merge_gather(build_block, build_positions, probe_block,
                               probe_positions, kernels)

    def _join_partition(self,
                        build_rows: List[Tuple[int, Tuple]],
                        probe_rows: List[Tuple[int, Tuple]],
                        build_key_index: int,
                        probe_key_index: int,
                        level: int,
                        budget: int,
                        pool: Callable[[], BufferPool],
                        pairs: List[Tuple[int, int]]) -> None:
        """Join one spilled partition, re-partitioning if it overflows.

        ``build_rows`` / ``probe_rows`` are ``(global position, values)``
        records in insertion order.  A build side over budget is fanned out
        again with the next level's salt (both sides rewritten through the
        spill pool, charged); at :data:`_MAX_SPILL_DEPTH` the partition is
        built in memory regardless -- recursion that deep means one
        duplicate-heavy key no amount of partitioning can split -- and the
        overrun is counted in ``ctx.io_stats["budget_overruns"]``.
        """
        ctx = self.ctx
        kernels = ctx.kernels
        entry_bytes = self.ENTRY_BYTES
        row_bytes = self.build_row_bytes
        over_budget = len(build_rows) * row_bytes > budget
        if over_budget and level < _MAX_SPILL_DEPTH and len(build_rows) > 1:
            fanout = max(plan_partition_count(len(build_rows), row_bytes, budget), 2)
            sub_build: List[Optional[_SpillFile]] = [None] * fanout
            sub_probe: List[Optional[_SpillFile]] = [None] * fanout
            build_parts = kernels.spill_partitions(
                [values[build_key_index] for _, values in build_rows],
                level, fanout)
            for (position, values), part in zip(build_rows, build_parts):
                handle = sub_build[part]
                if handle is None:
                    handle = sub_build[part] = _SpillFile(pool(), row_bytes)
                handle.append(ctx, position, values)
            probe_parts = kernels.spill_partitions(
                [values[probe_key_index] for _, values in probe_rows],
                level, fanout)
            for (position, values), part in zip(probe_rows, probe_parts):
                build_handle = sub_build[part]
                if build_handle is None or not build_handle.row_count:
                    continue
                handle = sub_probe[part]
                if handle is None:
                    handle = sub_probe[part] = _SpillFile(pool(), row_bytes)
                handle.append(ctx, position, values)
            for part in range(fanout):
                build_handle = sub_build[part]
                probe_handle = sub_probe[part]
                if build_handle is None or probe_handle is None:
                    continue
                if not build_handle.row_count or not probe_handle.row_count:
                    continue
                self._join_partition(build_handle.read_all(ctx),
                                     probe_handle.read_all(ctx),
                                     build_key_index, probe_key_index,
                                     level + 1, budget, pool, pairs)
            return
        if over_budget:
            ctx.io_stats["budget_overruns"] += 1

        buckets = max(len(build_rows), 16)
        area = ctx.allocate_workspace(buckets * entry_bytes)
        table: Dict[object, List[int]] = {}
        ctx.visit_batch("hash_build", len(build_rows))
        build_keys = [values[build_key_index] for _, values in build_rows]
        for (position, values), bucket in zip(
                build_rows, kernels.bucket_indices(build_keys, buckets)):
            ctx.write_address(area + bucket * entry_bytes, entry_bytes)
            table.setdefault(values[build_key_index], []).append(position)
        ctx.visit_batch("hash_probe", len(probe_rows))
        probe_keys = [values[probe_key_index] for _, values in probe_rows]
        for (position, values), bucket in zip(
                probe_rows, kernels.bucket_indices(probe_keys, buckets)):
            ctx.read_address(area + bucket * entry_bytes, entry_bytes)
            matches = table.get(values[probe_key_index])
            if matches:
                pairs.extend((position, build_position)
                             for build_position in matches)


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
            inner_block = _concat_batches(self.inner_factory().batches())
            inner_keys = (inner_block.vector(self.inner_column)
                          if len(inner_block) else [])
            inner_count = len(inner_block)
            inner_positions: List[int] = []
            outer_positions: List[int] = []
            for outer_position, outer_key in enumerate(
                    outer_batch.vector(self.outer_column)):
                # The match tests against the cached block are the join's
                # per-record work; one amortised invocation covers them all.
                ctx.visit_batch("inner_scan_next", inner_count)
                for inner_position, inner_key in enumerate(inner_keys):
                    if inner_key == outer_key:
                        inner_positions.append(inner_position)
                        outer_positions.append(outer_position)
            ctx.visit_batch("join_output", len(inner_positions))
            ctx.row_produced(len(inner_positions))
            yield merge_gather(inner_block, inner_positions,
                               outer_batch, outer_positions, ctx.kernels)


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
                    outer_batch.vector(self.outer_column)):
                for step in self.inner_index.descend(key):
                    descend_steps += 1
                    ctx.read_address(step.node_address, 8)
                    ctx.read_address(step.entry_address, 16)
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
            ctx.visit_batch("join_output", len(outer_positions))
            ctx.row_produced(len(outer_positions))
            joined_count = len(outer_positions)
            yield merge_gather(outer_batch, outer_positions,
                               ColumnBatch(inner_vectors, joined_count),
                               range(joined_count), ctx.kernels)


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


# ---------------------------------------------------------------------------
# Plan -> vectorized operator tree
# ---------------------------------------------------------------------------
def build_vectorized_scan(plan: ScanPlan, catalog: Catalog, ctx: ExecutionContext,
                          output_columns: Sequence[str] = (),
                          next_operation: str = "scan_next",
                          batch_size: int = 256,
                          allow_exchange: bool = True) -> VectorOperator:
    """Instantiate a scan plan node into a vectorized operator.

    When the context carries a morsel-parallel executor (``ctx.parallel``,
    threaded from the session's ``parallelism`` knob), sequential scans are
    wrapped in a :class:`~repro.execution.parallel.VecExchangeOperator`,
    which partitions the heap into page morsels, produces the batches in
    workers and replays their charge tapes in canonical order -- results
    and simulated counts stay bit-identical to the serial operator.
    ``allow_exchange=False`` pins a scan to the serial path (rescanned
    nested-loop inners, update lookups).

    When the context instead carries a shared-scan coordinator
    (``ctx.shared_scans``, attached by the serving layer for one admission
    round), sequential scans attach to the round's recorded morsel stream
    for their signature: the scan's data work runs once per round and its
    charge tapes are replayed into each attached query's own context --
    again count-identical to the serial operator.  Sharing steps aside for
    adaptive or morsel-parallel contexts (their scan charges depend on
    per-context runtime state) and for ``allow_exchange=False`` scans.
    """
    if isinstance(plan, SeqScanPlan):
        table = catalog.table(plan.table)
        shared = getattr(ctx, "shared_scans", None)
        if (allow_exchange and shared is not None
                and getattr(ctx, "adaptive", None) is None
                and getattr(ctx, "parallel", None) is None):
            return shared.attach(table, ctx, plan.predicate,
                                 ctx.columns_for_table(table, output_columns),
                                 next_operation, batch_size)
        parallel = getattr(ctx, "parallel", None)
        if allow_exchange and parallel is not None and parallel.workers > 1:
            from .parallel import VecExchangeOperator  # deferred: imports us
            return VecExchangeOperator(
                table, ctx, parallel, predicate=plan.predicate,
                output_columns=ctx.columns_for_table(table, output_columns),
                next_operation=next_operation, batch_size=batch_size)
        return VecSeqScanOperator(table, ctx, predicate=plan.predicate,
                                  output_columns=ctx.columns_for_table(table, output_columns),
                                  next_operation=next_operation,
                                  batch_size=batch_size)
    if isinstance(plan, IndexRangeScanPlan):
        table = catalog.table(plan.table)
        index = ctx.index_for(table, plan.column)
        return VecIndexRangeScanOperator(
            table, index, ctx, low=plan.low, high=plan.high,
            include_low=plan.include_low, include_high=plan.include_high,
            residual_predicate=plan.residual_predicate,
            output_columns=ctx.columns_for_table(table, output_columns),
            batch_size=batch_size)
    if isinstance(plan, IndexPointLookupPlan):
        table = catalog.table(plan.table)
        index = ctx.index_for(table, plan.column)
        return VecIndexPointLookupOperator(
            table, index, ctx, value=plan.value,
            output_columns=ctx.columns_for_table(table, output_columns),
            batch_size=batch_size)
    raise ExecutorError(f"unknown scan plan {plan!r}")


def build_vectorized_join(plan: JoinPlan, catalog: Catalog, ctx: ExecutionContext,
                          output_columns: Sequence[str] = (),
                          batch_size: int = 256) -> VectorOperator:
    """Instantiate a join plan node into a vectorized operator."""
    if isinstance(plan, HashJoinPlan):
        probe_columns = list(output_columns) + [plan.probe_column]
        build_columns = list(output_columns) + [plan.build_column]
        probe = build_vectorized_scan(plan.probe, catalog, ctx, probe_columns,
                                      batch_size=batch_size)
        build = build_vectorized_scan(plan.build, catalog, ctx, build_columns,
                                      batch_size=batch_size)
        build_table_name = getattr(plan.build, "table", None)
        probe_table_name = getattr(plan.probe, "table", None)
        estimate = catalog.table(build_table_name).row_count if build_table_name else 1024
        probe_estimate = (catalog.table(probe_table_name).row_count
                          if probe_table_name else 1024)
        build_row_bytes = (catalog.table(build_table_name).layout.record_size
                           if build_table_name else 64)
        return VecHashJoinOperator(
            probe, build, plan.probe_column, plan.build_column, ctx,
            build_row_estimate=max(estimate, 16),
            probe_row_estimate=max(probe_estimate, 16),
            build_key=f"card:{build_table_name or plan.build_column}",
            probe_key=f"card:{probe_table_name or plan.probe_column}",
            batch_size=batch_size,
            build_row_bytes=build_row_bytes)
    if isinstance(plan, NestedLoopJoinPlan):
        outer_columns = list(output_columns) + [plan.outer_column]
        inner_columns = list(output_columns) + [plan.inner_column]
        outer = build_vectorized_scan(plan.outer, catalog, ctx, outer_columns,
                                      batch_size=batch_size)

        def inner_factory() -> VectorOperator:
            # The inner side is re-instantiated once per outer batch; keep
            # it on the serial path (per-batch morsel dispatch would cost
            # more than the rescan it parallelises).
            return build_vectorized_scan(plan.inner, catalog, ctx, inner_columns,
                                         next_operation="inner_scan_next",
                                         batch_size=batch_size,
                                         allow_exchange=False)

        return VecNestedLoopJoinOperator(outer, inner_factory, plan.outer_column,
                                         plan.inner_column, ctx)
    if isinstance(plan, IndexNestedLoopJoinPlan):
        outer_columns = list(output_columns) + [plan.outer_column]
        outer = build_vectorized_scan(plan.outer, catalog, ctx, outer_columns,
                                      batch_size=batch_size)
        inner_table = catalog.table(plan.inner_table)
        inner_index = ctx.index_for(inner_table, plan.inner_column)
        return VecIndexNestedLoopJoinOperator(
            outer, inner_table, inner_index, plan.outer_column, ctx,
            inner_output_columns=ctx.columns_for_table(inner_table, output_columns))
    raise ExecutorError(f"unknown join plan {plan!r}")


def build_vectorized_plan(plan: PhysicalPlan, catalog: Catalog, ctx: ExecutionContext,
                          batch_size: int = 256) -> VectorOperator:
    """Instantiate any physical plan into its vectorized operator tree."""
    if isinstance(plan, AggregatePlan):
        agg_columns = [agg.column for agg in plan.aggregates if agg.column is not None]
        if isinstance(plan.input, (HashJoinPlan, NestedLoopJoinPlan,
                                   IndexNestedLoopJoinPlan)):
            child = build_vectorized_join(plan.input, catalog, ctx, agg_columns,
                                          batch_size=batch_size)
        else:
            child = build_vectorized_scan(plan.input, catalog, ctx, agg_columns,
                                          batch_size=batch_size)
        return VecScalarAggregateOperator(child, plan.aggregates, ctx)
    if isinstance(plan, (SeqScanPlan, IndexRangeScanPlan, IndexPointLookupPlan)):
        return build_vectorized_scan(plan, catalog, ctx, batch_size=batch_size)
    if isinstance(plan, (HashJoinPlan, NestedLoopJoinPlan, IndexNestedLoopJoinPlan)):
        return build_vectorized_join(plan, catalog, ctx, batch_size=batch_size)
    if isinstance(plan, UpdatePlan):
        raise ExecutorError("UpdatePlan is executed via execute_update(), "
                            "not build_vectorized_plan()")
    raise ExecutorError(f"unknown plan node {plan!r}")


def execute_plan_vectorized(plan: PhysicalPlan, catalog: Catalog,
                            ctx: ExecutionContext) -> List[Row]:
    """Execute a read-only plan batch-at-a-time and return its result rows.

    Dataflow is columnar end-to-end; rows are materialized only here, at
    the session result boundary, so the differential harness still sees
    byte-identical row dicts.  Charges the same single ``query_setup`` as
    the tuple engine -- parsing and optimisation are per query, not per
    engine -- so the harness can also assert identical setup counts.
    """
    batch_size = ctx.execution.batch_size
    tracer = ctx.tracer
    if tracer is None:
        ctx.visit("query_setup")
        operator = build_vectorized_plan(plan, catalog, ctx, batch_size=batch_size)
        return list(operator.rows())
    with tracer.span("query_setup"):
        ctx.visit("query_setup")
    with tracer.span("build_plan"):
        operator = build_vectorized_plan(plan, catalog, ctx, batch_size=batch_size)
    tracer.instrument(operator)
    return list(operator.rows())
