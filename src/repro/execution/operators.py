"""Physical operators (Volcano-style iterators).

Each operator produces rows as dictionaries keyed by unqualified column name
and charges the execution context for the routines it runs: fetching the next
record from a page, evaluating the predicate, probing the hash table, fetching
a record by rid, and so on -- one record at a time, in Volcano order.  The
actual relational work (decoding page bytes, maintaining hash tables, walking
B+-tree leaves) is performed for real -- the query answers come out of the
same code that generates the hardware trace, so a wrong simulation shows up
as a wrong query result in the tests.  Neither the data work nor the host
calls need follow the charges' grain: the sequential scan decodes and
qualifies the page it holds at once, and its per-record charge sequence --
with the per-row charges of an aggregate or hash join consuming it -- is one
pipeline program per page, issued in one native call
(:meth:`ExecutionContext.charge_pipeline`); the index paths fetch by rid,
one record per charge.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..index.btree import BTreeIndex
from ..query.expressions import Aggregate, AggregateState, Expression
from ..storage.catalog import Table
from ..storage.page import decode_values
from .context import (STEP_EACH_MATCH, STEP_READ, STEP_READ_BUCKET,
                      STEP_VISIT_MATCHED, STEP_VISIT_OUTCOME, STEP_WRITE,
                      STEP_WRITE_BUCKET, ExecutionContext)
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
    Volcano order: ``page_boundary`` per page, then per record
    ``next_operation``, the predicate-field loads, the ``predicate`` visit
    with its outcome, the output-field loads of a qualifying record (and
    there its consumer's per-row charges), then ``record_done`` (when
    ``count_records``).  ``next_operation`` selects which profiled routine
    is charged per record (the inner side of a nested-loop join uses the
    cheaper ``inner_scan_next`` path, everything else uses ``scan_next``).

    The sequence is one pipeline program per page
    (:meth:`ExecutionContext.charge_pipeline`).  A consumer that declares
    its per-row charges as steps runs the whole page in one call
    (:meth:`charge_pages`); :meth:`rows` pauses the program at each
    qualifying record and hands the row on.  Either way a page is decoded
    and qualified before anything is charged for it, so a predicate that
    raises does so when its page is decoded: the pages before it are fully
    charged, its own page not at all.
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

    def pages(self, row_steps: tuple = (), pause: bool = False) -> Iterator[tuple]:
        """The data plane, a page at a time: per heap page ``(program, keys,
        outcomes, rows)`` -- the page's pipeline program with ``row_steps``
        run after each qualifying record's output-field loads, its records'
        keys and outcomes (``None``: no predicate) and its qualifying rows.
        Charges nothing: the caller charges the page after its data work."""
        ctx = self.ctx
        layout = self.table.layout
        predicate = self.predicate
        names, extras = self.predicate_columns, self.extra_columns
        page_steps = (ctx.visit_step("page_boundary"),)
        scan_next = ctx.visit_step(self.next_operation)
        qualify = (() if predicate is None
                   else (ctx.visit_step("predicate", STEP_VISIT_OUTCOME),))
        done = self.count_records
        for page, slots in self.table.heap.scan_pages():
            if not slots:
                # Nothing to bind or decode: a bad column raises at a record.
                yield (page_steps, (), (), done, pause), (), None, []
                continue
            record_steps = ((scan_next, ctx.load_step(page, layout, names)) + qualify
                            if names else (scan_next,) + qualify)
            rows: List[Row] = [
                dict(zip(names, values)) for values in
                zip(*[decode_values(page, layout, name, slots).tolist()
                       for name in names])
            ] if names else [{} for _ in slots]
            outcomes = None
            qualifying = slots
            if predicate is not None:
                outcomes = [bool(predicate.evaluate(row)) for row in rows]
                qualifying = [slot for slot, passed in zip(slots, outcomes) if passed]
                rows = [row for row, passed in zip(rows, outcomes) if passed]
            steps = row_steps
            if extras and qualifying:
                steps = (ctx.load_step(page, layout, extras),) + row_steps
                for row, values in zip(rows, zip(*[decode_values(page, layout, name,
                                                                 qualifying).tolist()
                                                   for name in extras])):
                    row.update(zip(extras, values))
            yield ((page_steps, record_steps, steps, done, pause),
                   ctx.record_keys(page, slots), outcomes, rows)

    def rows(self) -> Iterator[Row]:
        """Pull: each page's program pauses at every qualifying record, which
        is handed on before the record is finished (``record_done``) by the
        call that runs on to the next one."""
        ctx = self.ctx
        charge = ctx.charge_pipeline
        for program, keys, outcomes, rows in self.pages(pause=True):
            position = charge(program, keys, outcomes)
            for row in rows:
                ctx.row_produced()
                yield row
                position = charge(program, keys, outcomes, None, position + 1)

    def charge_pages(self, row_steps: tuple,
                     take: Callable[[List[Row]], Optional[tuple]]) -> None:
        """Fused: per page, ``take(rows)`` does the consumer's data work for
        the qualifying rows and returns their operands (``(buckets,
        matches)`` or ``None``); then the page, the consumer's ``row_steps``
        after each qualifying record's output-field loads, is charged in one
        call.  A ``take`` that raises leaves its page uncharged."""
        ctx = self.ctx
        for program, keys, outcomes, rows in self.pages(row_steps):
            operands = take(rows)
            ctx.row_produced(len(rows))
            ctx.charge_pipeline(program, keys, outcomes, operands)


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
    """In-memory hash join: build on one input, probe with the other.

    Per build row it charges ``hash_build`` and the store to the row's
    bucket; per probe row the load of its bucket, ``hash_probe`` with
    whether the key matched, then per match ``join_output`` -- declared once
    as pipeline steps.  A scan input runs a page per call with these steps
    in its program; a join whose consumer declares its own per-row steps
    (:meth:`charge_pages`, the aggregate) runs them after each
    ``join_output`` in the same call.  :meth:`rows` pulls the probe side
    and hands each joined row on.
    """

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

    def _build(self) -> Callable[[List[Row]], Tuple[List[int], List[List[Row]]]]:
        """Allocate the hash area, ingest the build side; returns
        ``lookup(rows)``: the probe rows' bucket addresses and matches."""
        ctx = self.ctx
        hash_area = ctx.allocate_workspace(self.build_row_estimate * self.ENTRY_BYTES)
        buckets, entry = self.build_row_estimate, self.ENTRY_BYTES
        hash_table: Dict[object, List[Row]] = {}

        def bucket_addresses(rows: List[Row], column: str) -> Tuple[list, list]:
            keys = [row_value(row, column) for row in rows]
            return keys, [hash_area + (key_hash(key) % buckets) * entry for key in keys]

        def insert(rows: List[Row]) -> tuple:
            keys, addresses = bucket_addresses(rows, self.build_column)
            for key, row in zip(keys, rows):
                hash_table.setdefault(key, []).append(row)
            return addresses, None

        def lookup(rows: List[Row]) -> Tuple[List[int], List[List[Row]]]:
            keys, addresses = bucket_addresses(rows, self.probe_column)
            return addresses, [hash_table.get(key, ()) for key in keys]

        _consume(self.build, ctx, (ctx.visit_step("hash_build"),
                                   (STEP_WRITE_BUCKET, entry)), insert)
        return lookup

    def _probe_steps(self) -> tuple:
        """The probe row's steps up to its matches."""
        return ((STEP_READ_BUCKET, self.ENTRY_BYTES),
                self.ctx.visit_step("hash_probe", STEP_VISIT_MATCHED))

    def rows(self) -> Iterator[Row]:
        """Pull the probe side; each joined row is handed on right after its
        ``join_output``."""
        ctx = self.ctx
        lookup = self._build()
        charge = ctx.charge_pipeline
        probe = ((), (), self._probe_steps(), False, False)
        output = ((), (), (ctx.visit_step("join_output"),), False, False)
        for row in self.probe.rows():
            addresses, (matches,) = lookup([row])
            charge(probe, _ONE_ROW, None, (addresses, (len(matches),)))
            for build_row in matches:
                charge(output, _ONE_ROW)
                ctx.row_produced()
                yield {**build_row, **row}

    def charge_pages(self, row_steps: tuple,
                     take: Callable[[List[Row]], Optional[tuple]]) -> None:
        """Fused (see :meth:`SeqScanOperator.charge_pages`): the consumer's
        ``row_steps`` run after each ``join_output``, and ``take`` gets the
        joined rows of each probe page (of each probe row when the probe
        side is pulled)."""
        ctx = self.ctx
        lookup = self._build()

        def probe(rows: List[Row]) -> tuple:
            addresses, matches = lookup(rows)
            joined = [{**build_row, **row} for row, build_rows in zip(rows, matches)
                      for build_row in build_rows]
            take(joined)
            ctx.row_produced(len(joined))
            return addresses, [len(build_rows) for build_rows in matches]

        steps = self._probe_steps() + (
            (STEP_EACH_MATCH, (ctx.visit_step("join_output"),) + row_steps),)
        _consume(self.probe, ctx, steps, probe)


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
    """Scalar (non-grouped) aggregation over the child rows.

    Per consumed row it charges ``agg_update`` and a load and a store of
    each aggregate's state slot, declared once as pipeline steps that run
    inside its input's page program when the input is a scan or a hash
    join (see :func:`_consume`).
    """

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
        steps = [ctx.visit_step("agg_update")]
        for position in range(len(self.aggregates)):
            address = state_base + position * self.STATE_BYTES
            steps += [(STEP_READ, address, 8), (STEP_WRITE, address, 8)]
        inputs = [(agg.column, state) for agg, state in zip(self.aggregates, states)]

        def update(rows: List[Row]) -> None:
            for row in rows:
                for column, state in inputs:
                    state.update(1 if column is None else row_value(row, column))

        _consume(self.child, ctx, tuple(steps), update)
        yield {agg.label: state.result() for agg, state in zip(self.aggregates, states)}


#: The one row a consumer's program charges when its input is pulled.
_ONE_ROW = (0,)

#: Steps that read the row's operands (its bucket address or match count).
_ROW_OPERAND_STEPS = frozenset((STEP_VISIT_MATCHED, STEP_READ_BUCKET,
                                STEP_WRITE_BUCKET, STEP_EACH_MATCH))


def _consume(child: Operator, ctx: ExecutionContext, row_steps: tuple,
             take: Callable[[List[Row]], Optional[tuple]]) -> None:
    """Feed ``child``'s rows to a consumer: ``take(rows)`` does its data work
    and returns the rows' operands, ``row_steps`` are its per-row charges.

    A scan runs them inside its own page programs (``charge_pages``), and
    so does a hash join when they take no per-row operands (inside its
    per-match steps the row's operands are the probe row's) -- unless a
    tracer is attached: its spans wrap each operator's ``rows``, so every
    operator must charge in its own pull for each trace node to keep
    exactly its own counts.  Otherwise the child is pulled, and each row is
    taken and charged in one call, in Volcano order.
    """
    fusable = (SeqScanOperator if _ROW_OPERAND_STEPS.intersection(
                   step[0] for step in row_steps)
               else (SeqScanOperator, HashJoinOperator))
    if ctx.tracer is None and isinstance(child, fusable):
        child.charge_pages(row_steps, take)
        return
    program = ((), (), row_steps, False, False)
    charge = ctx.charge_pipeline
    for row in child.rows():
        charge(program, _ONE_ROW, None, take([row]))
