"""Physical operators (Volcano-style iterators).

Each operator produces rows as dictionaries keyed by unqualified column name
and charges the execution context for the routines it runs: fetching the next
record from a page, evaluating the predicate, probing the hash table, fetching
a record by rid, and so on -- one record at a time, in Volcano order.  The
actual relational work (decoding page bytes, maintaining hash tables, walking
B+-tree leaves) is performed for real -- the query answers come out of the
same code that generates the hardware trace, so a wrong simulation shows up
as a wrong query result in the tests.  The data work need not follow the
charges' grain: the sequential scan decodes and qualifies the page it holds
at once and then charges its records one by one, while the index paths
fetch by rid, one record per charge.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..index.btree import BTreeIndex
from ..query.expressions import Aggregate, AggregateState, Expression
from ..storage.catalog import Table
from ..storage.page import decode_values
from .context import ExecutionContext
from .kernels import key_hash

Row = Dict[str, object]


class OperatorError(RuntimeError):
    """Raised on operator misconfiguration."""


def row_value(row: Mapping[str, object], column: str):
    """Fetch ``column`` from a row, accepting qualified or unqualified names."""
    if column in row:
        return row[column]
    short = column.split(".")[-1]
    if short in row:
        return row[short]
    raise OperatorError(f"row {sorted(row)} has no column {column!r}")


class Operator:
    """Base class: an iterable of rows."""

    def rows(self) -> Iterator[Row]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Row]:
        return self.rows()


class SeqScanOperator(Operator):
    """Sequential scan with an optional filter predicate, NSM or PAX.

    The data plane runs a page at a time: the scan decodes the predicate
    columns of every live slot of the page it holds, qualifies them, and
    decodes the output columns of the qualifying slots -- no per-record
    fetch, no per-record decode.  The charge plane stays per record, in
    Volcano order: ``next_operation``, the predicate-field loads, the
    ``predicate`` visit with its outcome, the output-field loads of a
    qualifying record, then ``record_done`` (when ``count_records``).
    ``next_operation`` selects which profiled routine is charged per record
    (the inner side of a nested-loop join uses the cheaper
    ``inner_scan_next`` path, everything else uses ``scan_next``).

    A page is decoded and qualified before anything is charged for it, so a
    predicate that raises does so when its page is decoded: the pages
    before it are fully charged, its own page not at all.
    """

    def __init__(self,
                 table: Table,
                 ctx: ExecutionContext,
                 predicate: Optional[Expression] = None,
                 output_columns: Sequence[str] = (),
                 next_operation: str = "scan_next",
                 count_records: bool = True) -> None:
        self.table = table
        self.ctx = ctx
        self.predicate = predicate
        self.next_operation = next_operation
        self.count_records = count_records
        predicate_columns = sorted(c.split(".")[-1] for c in (predicate.columns() if predicate else ()))
        outputs = sorted({c.split(".")[-1] for c in output_columns})
        self.predicate_columns: Tuple[str, ...] = tuple(predicate_columns)
        self.extra_columns: Tuple[str, ...] = tuple(c for c in outputs if c not in predicate_columns)

    def rows(self) -> Iterator[Row]:
        ctx = self.ctx
        visit = ctx.visit
        layout = self.table.layout
        predicate = self.predicate
        names, extras = self.predicate_columns, self.extra_columns
        next_operation = self.next_operation
        count_records = self.count_records
        for page, slots in self.table.heap.scan_pages():
            if not slots:
                # Nothing to bind or decode: a bad column raises at a record.
                visit("page_boundary")
                continue
            # Data plane, uncharged: the page's values and outcomes.
            load = ctx.field_loads(page, layout, names) if names else None
            rows: List[Row] = [
                dict(zip(names, values)) for values in
                zip(*[decode_values(page, layout, name, slots) for name in names])
            ] if names else [{} for _ in slots]
            outcomes = ([bool(predicate.evaluate(row)) for row in rows]
                        if predicate is not None else [True] * len(slots))
            load_extras = extra_values = None
            if extras:
                qualifying = [slot for slot, passed in zip(slots, outcomes) if passed]
                if qualifying:
                    load_extras = ctx.field_loads(page, layout, extras)
                    extra_values = zip(*[decode_values(page, layout, name, qualifying)
                                         for name in extras])
            # Charge plane: per record, in Volcano order.
            visit("page_boundary")
            for slot, row, qualifies in zip(slots, rows, outcomes):
                visit(next_operation)
                if load is not None:
                    load(slot)
                if predicate is not None:
                    visit("predicate", data_taken=qualifies)
                if qualifies:
                    if load_extras is not None:
                        load_extras(slot)
                        row.update(zip(extras, next(extra_values)))
                    ctx.row_produced()
                    yield row
                if count_records:
                    ctx.record_done()


class IndexRangeScanOperator(Operator):
    """Non-clustered index range scan: descend, walk leaves, fetch by rid."""

    def __init__(self,
                 table: Table,
                 index: BTreeIndex,
                 ctx: ExecutionContext,
                 low, high,
                 key_column: str,
                 include_low: bool = False,
                 include_high: bool = False,
                 residual_predicate: Optional[Expression] = None,
                 output_columns: Sequence[str] = ()) -> None:
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
        residual_columns = sorted(c.split(".")[-1]
                                  for c in (residual_predicate.columns() if residual_predicate else ()))
        outputs = sorted({c.split(".")[-1] for c in output_columns})
        self.fetch_columns: Tuple[str, ...] = tuple(dict.fromkeys(list(residual_columns) + outputs))

    def rows(self) -> Iterator[Row]:
        ctx = self.ctx
        table = self.table
        layout = table.layout

        # Root-to-leaf descent for the lower bound.
        descent_key = self.low if self.low is not None else self.high
        for step in self.index.descend(descent_key):
            ctx.visit("index_descend_node")
            ctx.read_address(step.node_address, 8)
            ctx.read_address(step.entry_address, 16)

        for match in self.index.range_search(self.low, self.high,
                                             include_low=self.include_low,
                                             include_high=self.include_high):
            ctx.visit("leaf_advance", data_taken=True)
            ctx.read_address(match.entry_address, 16)

            ctx.visit("rid_fetch")
            entry = table.heap.fetch(match.rid)
            row: Row = {self.key_column: match.key}
            if self.fetch_columns:
                row.update(ctx.read_fields(entry, layout, self.fetch_columns))
            qualifies = True
            if self.residual_predicate is not None:
                qualifies = bool(self.residual_predicate.evaluate(row))
                ctx.visit("predicate", data_taken=qualifies)
            if qualifies:
                ctx.row_produced()
                yield row
            ctx.record_done()


class IndexPointLookupOperator(Operator):
    """Exact-match index lookup returning the matching heap rows."""

    def __init__(self, table: Table, index: BTreeIndex, ctx: ExecutionContext,
                 value, output_columns: Sequence[str] = ()) -> None:
        self.table = table
        self.index = index
        self.ctx = ctx
        self.value = value
        self.output_columns = tuple(sorted({c.split(".")[-1] for c in output_columns}))

    def rows(self) -> Iterator[Row]:
        ctx = self.ctx
        layout = self.table.layout
        for step in self.index.descend(self.value):
            ctx.visit("index_descend_node")
            ctx.read_address(step.node_address, 8)
            ctx.read_address(step.entry_address, 16)
        for match in self.index.range_search(self.value, self.value,
                                             include_low=True, include_high=True):
            ctx.visit("leaf_advance", data_taken=True)
            ctx.read_address(match.entry_address, 16)
            ctx.visit("rid_fetch")
            entry = self.table.heap.fetch(match.rid)
            row: Row = {}
            columns = self.output_columns or self.table.schema.column_names()
            row.update(ctx.read_fields(entry, layout, columns))
            row["__rid__"] = match.rid
            ctx.row_produced()
            yield row
        ctx.record_done()


class HashJoinOperator(Operator):
    """In-memory hash join: build on one input, probe with the other."""

    #: Bytes charged per hash-table bucket/entry in the workspace region.
    ENTRY_BYTES = 16

    def __init__(self,
                 probe: Operator,
                 build: Operator,
                 probe_column: str,
                 build_column: str,
                 ctx: ExecutionContext,
                 build_row_estimate: int = 1024) -> None:
        self.probe = probe
        self.build = build
        self.probe_column = probe_column.split(".")[-1]
        self.build_column = build_column.split(".")[-1]
        self.ctx = ctx
        self.build_row_estimate = max(build_row_estimate, 16)

    def rows(self) -> Iterator[Row]:
        ctx = self.ctx
        hash_area = ctx.allocate_workspace(self.build_row_estimate * self.ENTRY_BYTES)
        buckets = self.build_row_estimate

        # Build phase.
        hash_table: Dict[object, List[Row]] = {}
        for row in self.build.rows():
            key = row_value(row, self.build_column)
            ctx.visit("hash_build")
            bucket_address = hash_area + (key_hash(key) % buckets) * self.ENTRY_BYTES
            ctx.write_address(bucket_address, self.ENTRY_BYTES)
            hash_table.setdefault(key, []).append(row)

        # Probe phase.
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


class NestedLoopJoinOperator(Operator):
    """Tuple-at-a-time nested-loop join (the inner input is rescanned).

    Quadratic; included for completeness and for the planner's
    ``nested_loop`` policy, but none of the default system profiles choose it
    for the microbenchmark join (the commercial systems all used hash- or
    sort-based plans for the no-index equijoin).
    """

    def __init__(self,
                 outer: Operator,
                 inner_factory: Callable[[], Operator],
                 outer_column: str,
                 inner_column: str,
                 ctx: ExecutionContext) -> None:
        self.outer = outer
        self.inner_factory = inner_factory
        self.outer_column = outer_column.split(".")[-1]
        self.inner_column = inner_column.split(".")[-1]
        self.ctx = ctx

    def rows(self) -> Iterator[Row]:
        ctx = self.ctx
        for outer_row in self.outer.rows():
            outer_key = row_value(outer_row, self.outer_column)
            for inner_row in self.inner_factory().rows():
                matches = row_value(inner_row, self.inner_column) == outer_key
                ctx.visit("inner_scan_next", data_taken=matches)
                if matches:
                    ctx.visit("join_output")
                    joined = dict(inner_row)
                    joined.update(outer_row)
                    ctx.row_produced()
                    yield joined


class IndexNestedLoopJoinOperator(Operator):
    """Nested-loop join probing an index on the inner table per outer row."""

    def __init__(self,
                 outer: Operator,
                 inner_table: Table,
                 inner_index: BTreeIndex,
                 outer_column: str,
                 ctx: ExecutionContext,
                 inner_output_columns: Sequence[str] = ()) -> None:
        self.outer = outer
        self.inner_table = inner_table
        self.inner_index = inner_index
        self.outer_column = outer_column.split(".")[-1]
        self.inner_output_columns = tuple(sorted({c.split(".")[-1] for c in inner_output_columns}))
        self.ctx = ctx

    def rows(self) -> Iterator[Row]:
        ctx = self.ctx
        layout = self.inner_table.layout
        for outer_row in self.outer.rows():
            key = row_value(outer_row, self.outer_column)
            for step in self.inner_index.descend(key):
                ctx.visit("index_descend_node")
                ctx.read_address(step.node_address, 8)
                ctx.read_address(step.entry_address, 16)
            matched = False
            for match in self.inner_index.range_search(key, key, include_low=True,
                                                       include_high=True):
                matched = True
                ctx.visit("leaf_advance", data_taken=True)
                ctx.read_address(match.entry_address, 16)
                ctx.visit("rid_fetch")
                entry = self.inner_table.heap.fetch(match.rid)
                joined = dict(outer_row)
                if self.inner_output_columns:
                    joined.update(ctx.read_fields(entry, layout, self.inner_output_columns))
                ctx.visit("join_output")
                ctx.row_produced()
                yield joined
            if not matched:
                ctx.visit("leaf_advance", data_taken=False)


class ScalarAggregateOperator(Operator):
    """Scalar (non-grouped) aggregation over the child rows."""

    #: Bytes of accumulator state charged per aggregate.
    STATE_BYTES = 32

    def __init__(self, child: Operator, aggregates: Sequence[Aggregate],
                 ctx: ExecutionContext) -> None:
        if not aggregates:
            raise OperatorError("ScalarAggregateOperator needs at least one aggregate")
        self.child = child
        self.aggregates = tuple(aggregates)
        self.ctx = ctx

    def rows(self) -> Iterator[Row]:
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
