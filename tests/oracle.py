"""The per-address charging oracle, the Python kernels, the pickled spill
file, the heap-walk selectivity sampler, the read-modify-write point update,
the per-record tuple pipeline, the per-hit result rebuild and the
record-at-a-time build, and the registry of them all.

Production charging is bulk: :class:`~repro.execution.context.
ExecutionContext` presents column-vector reads, full-record sweeps, page
transfers and workspace churn to the simulated hardware as strided
operations.  The contract is that each bulk operation is count-identical --
same cache/TLB hits and misses, same LRU evolution -- to the element loads
it stands for, issued one at a time in ascending order.

:class:`PerAddressContext` is that reference: the same context with the six
bulk charging sites replaced by their per-element loops, on the reference
machine of ``reference_machine.py`` (so a bulk-vs-per-address differential
doubles as a native-vs-reference one).  It is a test oracle, installed by
the ``charging`` fixture in ``conftest.py``; no production code can select
it.

:class:`PickledSpillFile` is the spilling join's page format before
column-run blocks: one pickled, record-size-padded row per slot of a real
:class:`~repro.storage.page.SlottedPage`.  ``pickled_spill_files()`` puts it
in place of the block file, so a differential run checks the blocks'
geometry (rows per page, slot addresses) against pages that really accept
the records, and their values against a pickle round trip.

:func:`heap_walk_estimate` is the planner's selectivity estimate as it was
before column statistics came from the index: a walk of every heap page that
decodes every ``record_count // 1000``-th live record for a min and a max.
The index gives the exact extremes, so the two *estimates* may differ in the
last digits; what must agree is every plan decision taken from them.

:func:`read_modify_write_update` is the point update's data plane before
``Table.update_field``: decode the whole record, change one value, re-encode
and rewrite all of it.  ``read_modify_write_updates()`` puts it in place of
the single-field write, so a differential run checks page bytes, index
contents and every simulated count against it.

:func:`per_record_fetch_rows` is the tuple engine's sequential scan before
it read the page it holds: every record fetched by rid through the buffer
pool, then charged and decoded by ``ExecutionContext.read_fields`` one
record at a time.  :func:`per_row_aggregate_rows` and
:func:`per_row_hash_join_rows` are the aggregate and the hash join before
their per-row charges were pipeline steps: each pulls its input and issues
every visit, load and store of a row as its own call.
``per_record_pipelines()`` puts the three in place of the operators'
``rows`` -- no page program is run then -- so a differential run checks
rows, their order and every simulated count of the page-per-call pipelines
against them.

:func:`rebuilt_hit_result` is a result-cache hit as the server built it
before the probe memo held finished parts: the memoized counters
re-validated into a fresh ``EventCounters``, then the Table 4.2 breakdown
and the metrics derived from them again, on every hit.

:func:`heap_insert_rows`, :func:`per_row_insert_many` and
:func:`heap_scan_create_index` are the build before relations were packed
a page at a time from columns: one ``HeapFile.insert`` (``struct.pack``
of the record, ``SlottedPage.insert`` / ``PaxPage.insert``) per row, one
``Table.insert`` per row with its index entries, and an index populated
from a record-at-a-time heap scan that decodes each record's key.
``per_row_builds()`` puts the last two in place of ``Table.insert_many``
and ``Catalog.create_index``, so a differential build checks every page,
slot directory, pool frame, pin, address-space cursor and B-tree node of
the column packer against them.

:func:`python_kernels` puts the ``python`` kernel backend -- the oracle
the ``array`` backend falls back to and is diffed against -- under every
execution context and shared-scan recorder built inside the block, whatever
``kernel_backend`` the session asked for.

Every count-identical swap is registered in :data:`ORACLES`, keyed by name;
``tests/test_reference_oracle.py`` runs the ``--scale ci`` artifact under
each and requires the raw measurements, and every cell's rows, counter
banks and routine invocations, to equal the native run's.  Each swap yields
a :class:`~collections.Counter` of the events of its own path, so the test
also sees that the swapped path ran.  Key: production path it shadows --
the suites that keep the edge cases the artifact does not reach.

- ``reference_machine`` (slow): ``_cachesim`` -- ``test_native_cache.py``,
  ``test_native_charging.py``, ``test_read_through.py``.
- ``per_address`` (slow): bulk charging -- ``test_vectorized_equivalence.py``,
  ``test_spill_join.py``.
- ``python_kernels``: ``ArrayKernels`` -- ``test_kernels.py``.
- ``per_record_pipelines``: ``Context.pipeline`` page programs --
  ``test_tuple_pipeline.py``, ``test_tuple_scan.py``.
- ``pickled_spill_files``: column-run spill blocks -- ``test_spill_join.py``.
- ``read_modify_write_updates``: ``Table.update_field`` --
  ``test_update_field.py``.
- ``per_row_builds``: ``HeapFile.pack`` and ``create_index`` --
  ``test_columnar_build.py``.
- ``heap_walk_estimate``: the index-extremes selectivity estimate --
  ``test_query_layer.py``.
- ``rebuilt_hit_result``: the memoized result-cache hit --
  ``test_result_cache_hits.py``.
"""

from __future__ import annotations

import functools
import pickle
from collections import Counter
from contextlib import contextmanager
from typing import Callable, ContextManager, Dict, Iterator, List, Sequence, Tuple

import numpy as np

import reference_machine as reference
import repro.engine.session as session_mod
import repro.execution.context as context_mod
import repro.execution.parallel as parallel_mod
import repro.execution.vectorized as vectorized_mod
from repro.analysis.breakdown import ExecutionBreakdown
from repro.analysis.metrics import compute_metrics
from repro.engine.session import QueryResult
from repro.execution.code_layout import LINE_BYTES
from repro.execution.context import ExecutionContext
from repro.execution.kernels import PYTHON_KERNELS, PythonKernels, key_hash
from repro.execution.operators import (HashJoinOperator, ScalarAggregateOperator,
                                       SeqScanOperator, row_value)
from repro.hardware.counters import EventCounters
from repro.observability import TraceNode
from repro.query.expressions import AggregateState
from repro.index.btree import BTreeIndex
from repro.query.planner import Planner
from repro.serving.server import QueryOutcome, Server
from repro.storage.catalog import Catalog, CatalogError, Table
from repro.storage.page import RecordId
from repro.storage.schema import RecordLayout
from reference_machine import Context as ReferenceContext, reference_machine


def hardware_counts(processor) -> dict:
    """Every cache/TLB access, hit and miss count, the branch unit's
    statistics and both event-counter banks of ``processor``."""
    snap = processor.caches.snapshot()
    return {
        "l1d": snap.l1d, "l1i": snap.l1i, "l2": snap.l2,
        "dtlb": processor.dtlb.stats.as_dict(),
        "itlb": processor.itlb.stats.as_dict(),
        "branch": processor.branch_unit.stats.as_dict(),
        "user": dict(processor.counters.user),
        "sup": dict(processor.counters.sup),
    }


def _tally(*events: str) -> Counter:
    """What a swap yields: its own path's events, each counted from 0."""
    return Counter(dict.fromkeys(events, 0))


def _counting(tally: Counter, event: str, function: Callable) -> Callable:
    """``function``, adding one to ``tally[event]`` per call."""
    @functools.wraps(function)
    def counted(*args, **kwargs):
        tally[event] += 1
        return function(*args, **kwargs)
    return counted


@contextmanager
def reference_machines():
    """Processors and automata built inside the block run on the reference
    machine; counts the machines built."""
    ran = _tally("machines")
    saved = reference.Machine
    reference.Machine = _counting(ran, "machines", saved)
    try:
        with reference_machine():
            yield ran
    finally:
        reference.Machine = saved


class PerAddressContext(ExecutionContext):
    """An :class:`ExecutionContext` that probes one address at a time; its
    processor must be built on the reference machine."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not isinstance(self._native_ctx, ReferenceContext):
            raise TypeError("a per-address context needs a processor built "
                            "inside reference_machine()")
        # The workspace churn of every visit and batch body, one read a touch.
        self._native_ctx.per_address = True

    def read_addresses(self, addresses: Sequence[int], size: int = 4) -> None:
        for address in addresses:
            self.processor.data_read(address, size)

    def write_addresses(self, addresses: Sequence[int], size: int = 4) -> None:
        for address in addresses:
            self.processor.data_write(address, size)

    def _page_io_out(self, address: int, nbytes: int) -> None:
        self.visit("page_boundary")
        for offset in range(0, nbytes, LINE_BYTES):
            self.processor.data_write(address + offset, LINE_BYTES)
        self.io_stats["page_writes"] += 1
        self.io_stats["bytes_written"] += nbytes

    def _page_io_in(self, address: int, nbytes: int) -> None:
        self.visit("page_boundary")
        for offset in range(0, nbytes, LINE_BYTES):
            self.processor.data_read(address + offset, LINE_BYTES)
        self.io_stats["page_reads"] += 1
        self.io_stats["bytes_read"] += nbytes

    def read_column_batch(self, page, layout: RecordLayout,
                          slots: Sequence[int], column: str) -> list:
        if slots and getattr(page, "columnar", False):
            offset, width = layout.field_slice(column)
            for slot in slots:
                self.processor.data_read(page.field_address(slot, offset), width)
            return page.column_values(column, slots)
        return super().read_column_batch(page, layout, slots, column)

    def _charge_nsm_stride(self, page, slots: Sequence[int], offset: int,
                           width: int, record_size: int) -> None:
        for slot in slots:
            self.processor.data_read(page.slot_address(slot) + offset, width)


@contextmanager
def per_address_sessions():
    """Sessions constructed inside the block run on the reference machine
    and charge through the oracle; counts their contexts."""
    ran = _tally("contexts")
    saved = session_mod.ExecutionContext
    session_mod.ExecutionContext = _counting(ran, "contexts", PerAddressContext)
    try:
        with reference_machine():
            yield ran
    finally:
        session_mod.ExecutionContext = saved


@contextmanager
def python_kernels():
    """Execution contexts and shared-scan recorders created inside the
    block compute with the ``python`` kernels; counts the contexts and the
    kernel calls."""
    ran = _tally("contexts", "kernel_calls")
    saved = context_mod.resolve_kernels, parallel_mod.ARRAY_KERNELS
    context_mod.resolve_kernels = _counting(ran, "contexts",
                                            lambda backend: PYTHON_KERNELS)
    parallel_mod.ARRAY_KERNELS = PYTHON_KERNELS
    kernels = [name for name, kernel in vars(PythonKernels).items()
               if callable(kernel) and not name.startswith("_")]
    for name in kernels:
        setattr(PYTHON_KERNELS, name,
                _counting(ran, "kernel_calls", getattr(PYTHON_KERNELS, name)))
    try:
        yield ran
    finally:
        context_mod.resolve_kernels, parallel_mod.ARRAY_KERNELS = saved
        for name in kernels:
            delattr(PYTHON_KERNELS, name)


class PickledSpillFile:
    """``vectorized._SpillFile`` as a run of pickled ``(position, values)``
    records on slotted pages (what it was before column-run blocks).

    The join charges a row (:meth:`charge_append`) before it hands over the
    row's values (:meth:`flush`), so the charge inserts a zero record of
    ``record_bytes`` -- through the page's own ``has_room_for`` / ``insert``
    / ``slot_address``, pinned as the pickled file pinned it -- and the
    values overwrite it in place, padded to the same size, without touching
    the pool or the dirty mark the charge left.  A row whose pickle is
    longer than ``record_bytes`` has no such slot: that is the one designed
    difference of the block file and the oracle refuses it.
    """

    def __init__(self, pool, record_bytes: int) -> None:
        self.pool = pool
        self.record_bytes = max(record_bytes, 1)
        self.page_numbers: List[int] = []
        self._current = None
        self.row_count = 0
        #: ``(source offset, page number, slot)`` of rows charged, not stored.
        self._pending: List[Tuple[int, int, int]] = []
        self._names: Tuple[str, ...] = ()

    def charge_append(self, ctx, offset: int) -> None:
        payload = bytes(self.record_bytes)
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
        self._pending.append((offset, page.page_number, slot))

    def flush(self, positions: Sequence[int], columns: Dict[str, np.ndarray]) -> None:
        if self._pending:
            self._names = tuple(columns)
        # Python values, as a row engine would store them.
        vectors = [vector.tolist() for vector in columns.values()]
        for offset, page_number, slot in self._pending:
            values = tuple(vector[offset] for vector in vectors)
            payload = pickle.dumps((positions[offset], values),
                                   protocol=pickle.HIGHEST_PROTOCOL)
            assert len(payload) <= self.record_bytes, "pickle outgrew the slot"
            page = self.pool.peek_page(page_number)
            dirty = page.dirty
            page.update_in_place(slot, payload.ljust(self.record_bytes, b"\0"))
            page.dirty = dirty
        self._pending = []

    def read_all(self, ctx):
        assert not self._pending, "rows charged but never stored"
        records = []
        for page_number in self.page_numbers:
            page = self.pool.fetch_page(page_number, pin=True)
            for slot in page.live_slots():
                record = bytes(page.record_view(slot))
                ctx.read_address(page.slot_address(slot), len(record))
                records.append(pickle.loads(record))
            self.pool.unpin(page_number)
        vectors = list(zip(*(values for _, values in records)))
        return ([position for position, _ in records],
                vectorized_mod.ColumnBatch(
                    {name: list(vector) for name, vector
                     in zip(self._names, vectors)}, len(records)))


@contextmanager
def pickled_spill_files():
    """Memory-budgeted joins that run inside the block spill through
    :class:`PickledSpillFile` (files are created during execution, so the
    block must cover it); counts the files and the rows appended to them
    (the latter when the block ends)."""
    ran = _tally("files", "appends")
    files: List[PickledSpillFile] = []

    def spill_file(*args):
        files.append(PickledSpillFile(*args))
        return files[-1]

    saved = vectorized_mod._SpillFile
    vectorized_mod._SpillFile = _counting(ran, "files", spill_file)
    try:
        yield ran
    finally:
        vectorized_mod._SpillFile = saved
        ran["appends"] = sum(file.row_count for file in files)


def heap_walk_estimate(table, bounds) -> float:
    """Uniform selectivity of ``bounds`` from a sampled walk of the heap."""
    column = bounds.column.split(".")[-1]
    step = max(table.heap.record_count // 1000, 1)
    values = [table.layout.decode_column(
                  bytes(entry.page.record_view(entry.slot)), column)
              for position, entry in enumerate(table.heap.scan())
              if position % step == 0]
    if not values:
        return 1.0
    lo_data, hi_data = min(values), max(values)
    span = float(hi_data - lo_data) or 1.0
    low = bounds.low if bounds.low is not None else lo_data
    high = bounds.high if bounds.high is not None else hi_data
    return max(min(max(float(high) - float(low), 0.0) / span, 1.0), 0.0)


@contextmanager
def heap_walk_estimates():
    """Plans made inside the block estimate selectivity by walking the
    heap; counts the estimates."""
    ran = _tally("estimates")

    def estimate(self, table_name, bounds):
        return heap_walk_estimate(self.catalog.table(table_name), bounds)

    saved = Planner.estimate_selectivity
    Planner.estimate_selectivity = _counting(ran, "estimates", estimate)
    try:
        yield ran
    finally:
        Planner.estimate_selectivity = saved


def read_modify_write_update(table: Table, rid, column_name: str, value) -> None:
    """``Table.update_field`` as gather, modify, index upkeep, scatter."""
    values = list(table.heap.read_values(rid))
    values[table.schema.index_of(column_name)] = value
    if table.indexes:
        old_values = table.heap.read_values(rid)
        for indexed, index in table.indexes.items():
            position = table.schema.index_of(indexed)
            if old_values[position] != values[position]:
                index.delete(old_values[position], rid)
                index.insert(values[position], rid)
    table.heap.update(rid, values)


@contextmanager
def read_modify_write_updates():
    """Point updates executed inside the block rewrite the whole record;
    counts them."""
    ran = _tally("updates")
    saved = Table.update_field
    Table.update_field = _counting(ran, "updates", read_modify_write_update)
    try:
        yield ran
    finally:
        Table.update_field = saved


def per_row_aggregate_rows(self: ScalarAggregateOperator) -> Iterator[Dict[str, object]]:
    """``ScalarAggregateOperator.rows`` as a pull and three charges per row."""
    ctx = self.ctx
    state_base = ctx.allocate_workspace(len(self.aggregates) * self.STATE_BYTES)
    states = [AggregateState(agg) for agg in self.aggregates]
    for row in self.child.rows():
        ctx.visit("agg_update")
        for position, (agg, state) in enumerate(zip(self.aggregates, states)):
            address = state_base + position * self.STATE_BYTES
            ctx.read_address(address, 8)
            value = None if agg.column is None else row_value(row, agg.column)
            state.update(value if agg.column is not None else 1)
            ctx.write_address(address, 8)
    yield {agg.label: state.result() for agg, state in zip(self.aggregates, states)}


def per_row_hash_join_rows(self: HashJoinOperator) -> Iterator[Dict[str, object]]:
    """``HashJoinOperator.rows`` as a pull and a charge per step, per row."""
    ctx = self.ctx
    hash_area = ctx.allocate_workspace(self.build_row_estimate * self.ENTRY_BYTES)
    buckets = self.build_row_estimate
    hash_table: Dict[object, List[Dict[str, object]]] = {}
    for row in self.build.rows():
        key = row_value(row, self.build_column)
        ctx.visit("hash_build")
        bucket_address = hash_area + (key_hash(key) % buckets) * self.ENTRY_BYTES
        ctx.write_address(bucket_address, self.ENTRY_BYTES)
        hash_table.setdefault(key, []).append(row)
    for row in self.probe.rows():
        key = row_value(row, self.probe_column)
        bucket_address = hash_area + (key_hash(key) % buckets) * self.ENTRY_BYTES
        ctx.read_address(bucket_address, self.ENTRY_BYTES)
        matches = hash_table.get(key)
        ctx.visit("hash_probe", data_taken=matches is not None)
        if not matches:
            continue
        for build_row in matches:
            ctx.visit("join_output")
            joined = dict(build_row)
            joined.update(row)
            ctx.row_produced()
            yield joined


def per_record_fetch_rows(self: SeqScanOperator) -> Iterator[Dict[str, object]]:
    """``SeqScanOperator.rows`` as a fetch, a charge and a decode per record."""
    ctx = self.ctx
    table = self.table
    layout = table.layout
    predicate = self.predicate
    for page, slots in table.heap.scan_pages():
        ctx.visit("page_boundary")
        for slot in slots:
            ctx.visit(self.next_operation)
            entry = table.heap.fetch(RecordId(page.page_number, slot))
            row: Dict[str, object] = {}
            if self.predicate_columns:
                row.update(ctx.read_fields(entry, layout, self.predicate_columns))
            qualifies = True
            if predicate is not None:
                qualifies = bool(predicate.evaluate(row))
                ctx.visit("predicate", data_taken=qualifies)
            if qualifies:
                if self.extra_columns:
                    row.update(ctx.read_fields(entry, layout, self.extra_columns))
                ctx.row_produced()
                yield row
            if self.count_records:
                ctx.record_done()


#: What ``per_record_pipelines()`` puts in place of each operator's ``rows``.
_PER_RECORD_BODIES = ((SeqScanOperator, per_record_fetch_rows),
                      (ScalarAggregateOperator, per_row_aggregate_rows),
                      (HashJoinOperator, per_row_hash_join_rows))


@contextmanager
def per_record_pipelines():
    """Tuple pipelines run inside the block pull every row and charge it
    call by call: the scan fetches, charges and decodes record by record,
    the aggregate and the hash join charge each step of a row themselves
    (the generators are created when the operators are pulled, so the
    block must cover the execution); counts each operator's pulls."""
    ran = _tally(*(operator.__name__ for operator, _ in _PER_RECORD_BODIES))
    saved = [(operator, operator.rows) for operator, _ in _PER_RECORD_BODIES]
    for operator, body in _PER_RECORD_BODIES:
        operator.rows = _counting(ran, operator.__name__, body)
    try:
        yield ran
    finally:
        for operator, rows in saved:
            operator.rows = rows


def rebuilt_hit_result(server, future, entry) -> QueryResult:
    """The :class:`QueryResult` a hit of ``future`` on the cached ``entry``
    had: ``from_dict(as_dict)``, ``from_counters``, ``compute_metrics``."""
    charge = server._probe_charge(len(entry.rows))
    counters = EventCounters.from_dict(charge.counters.as_dict())
    label = future.label
    breakdown = ExecutionBreakdown.from_counters(
        counters, server.spec, label=f"{server.profile.key}:{label}")
    metrics = compute_metrics(counters, server.spec)
    trace = None
    if server.execution.is_traced:
        trace = TraceNode.leaf("result_cache_probe", counters)
    return QueryResult(
        system=server.profile.key, label=label,
        plan_description="ResultCache hit\n" + entry.plan_description,
        rows=entry.rows, counters=counters, breakdown=breakdown,
        metrics=metrics, engine=server.execution.engine,
        routine_invocations=dict(charge.invocations), trace=trace)


def heap_insert_rows(heap, rows) -> int:
    """``HeapFile.pack`` as one ``HeapFile.insert`` per row."""
    count = 0
    for values in rows:
        heap.insert(values)
        count += 1
    return count


def per_row_insert_many(table: Table, columns, count: int) -> int:
    """``Table.insert_many`` as one ``Table.insert`` per row."""
    vectors = [columns[name] for name in table.schema.column_names()]
    vectors = [vector.tolist() if hasattr(vector, "tolist") else vector
               for vector in vectors]
    for values in zip(*vectors):
        table.insert(values)
    return count


def heap_scan_create_index(self: Catalog, table_name: str, column_name: str,
                           unique: bool = False) -> BTreeIndex:
    """``Catalog.create_index`` populated by a record-at-a-time heap scan."""
    table = self.table(table_name)
    table.schema.column(column_name)  # validates existence
    if column_name in table.indexes:
        raise CatalogError(
            f"index on {table_name}.{column_name} already exists")
    index = BTreeIndex(name=f"{table_name}_{column_name}_idx",
                       address_space=self.address_space, unique=unique)
    layout = table.layout
    entries = []
    for entry in table.heap.scan():
        key = layout.decode_column(bytes(entry.page.record_view(entry.slot)),
                                   column_name)
        entries.append((key, entry.rid))
    index.bulk_load(entries)
    table.indexes[column_name] = index
    return index


@contextmanager
def per_row_builds():
    """Loads and index builds run inside the block go a record at a time;
    counts the loads and the index builds."""
    ran = _tally("loads", "indexes")
    saved = Table.insert_many, Catalog.create_index
    Table.insert_many = _counting(ran, "loads", per_row_insert_many)
    Catalog.create_index = _counting(ran, "indexes", heap_scan_create_index)
    try:
        yield ran
    finally:
        Table.insert_many, Catalog.create_index = saved


@contextmanager
def rebuilt_hit_results():
    """Result-cache hits served inside the block rebuild their result from
    the memoized counters; counts the hits."""
    ran = _tally("hits")

    def serve_hit(self, future, entry):
        return QueryOutcome(result=rebuilt_hit_result(self, future, entry),
                            result_cached=True)

    saved = Server._serve_hit
    Server._serve_hit = _counting(ran, "hits", serve_hit)
    try:
        yield ran
    finally:
        Server._serve_hit = saved


#: Every count-identical swap: name -> a context manager that puts the
#: reference in place of one production path and yields the tally of its
#: path's events.
ORACLES: Dict[str, Callable[[], ContextManager[Counter]]] = {
    "reference_machine": reference_machines,
    "per_address": per_address_sessions,
    "python_kernels": python_kernels,
    "per_record_pipelines": per_record_pipelines,
    "pickled_spill_files": pickled_spill_files,
    "read_modify_write_updates": read_modify_write_updates,
    "per_row_builds": per_row_builds,
    "heap_walk_estimate": heap_walk_estimates,
    "rebuilt_hit_result": rebuilt_hit_results,
}
