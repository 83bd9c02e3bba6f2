"""Run-time span recording around the public layer boundaries of ``repro``.

The traced run of the benchmark wants to know where *host* time goes below
one op, and ``src/`` has no host-side tracing of its own.  This module
therefore wraps the public functions named in :data:`BOUNDARIES` from the
outside, for the duration of a ``with tracing(recorder):`` block, and puts
the original attributes back on exit.

Two kinds of record come out:

* a **span** ``(id, name, start, end, parent, op_id, self_s)`` for every call
  of a boundary that is entered a handful of times per op (session
  construction, planning, checkpoint restore, ...);
* an **aggregate** ``(op_id, parent span, name) -> [calls, self_s]`` for
  boundaries entered thousands of times per op (``ExecutionContext.visit``
  runs 12,660 times in one tuple-engine ``SRS``): one tuple per call would
  cost more than the call itself.  The wrapper costs about 0.4 us per
  call, which is what keeps the traced run under 1.5x on every workload.

``self_s`` is the call's duration minus the part covered by the wrapped
calls made inside it, so the self times of everything recorded under one op
add up to the duration of that op's root span.  Span names read
``<layer>:<Owner.function>``; the layer is what the per-layer metrics group
by.
"""

from __future__ import annotations

import importlib
import inspect
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Tuple

#: Record one span per call.
SPAN = "span"
#: Fold calls into one aggregate per (op, enclosing span, name).
AGGREGATE = "aggregate"

#: ``(layer, owner, attributes, mode)``.  ``owner`` is ``module`` or
#: ``module:Class``; ``"*"`` means every public function the class defines.
#: A function imported by name into another module is wrapped where it is
#: looked up at call time (``repro.engine.session.execute_plan``), not where
#: it is defined.
BOUNDARIES: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("storage.page_decode", "repro.storage.page:SlottedPage",
     ("field_values", "record_view"), AGGREGATE),
    ("storage.page_decode", "repro.storage.page:PaxPage",
     ("column_values", "column_span", "record_view"), AGGREGATE),
    ("storage.heap_scan", "repro.storage.heapfile:HeapFile",
     ("scan", "scan_pages", "fetch", "read_values"), AGGREGATE),
    ("storage.heap_update", "repro.storage.heapfile:HeapFile",
     ("update",), AGGREGATE),
    ("storage.buffer_pool", "repro.storage.buffer_pool:BufferPool",
     ("fetch_page", "allocate_page"), AGGREGATE),
    ("storage.restore", "repro.storage.address_space:AddressSpace",
     ("restore",), SPAN),
    ("storage.restore", "repro.engine.database:Database",
     ("data_restore",), SPAN),
    ("index.search", "repro.index.btree:BTreeIndex",
     ("range_search", "search", "descend"), AGGREGATE),
    ("query.plan", "repro.engine.session:Session", ("plan",), SPAN),
    ("query.plan", "repro.query.planner:Planner", ("plan",), SPAN),
    ("execution.operators", "repro.engine.session",
     ("execute_plan", "execute_update"), SPAN),
    ("execution.kernels", "repro.execution.kernels.array_backend:ArrayKernels",
     ("*",), AGGREGATE),
    ("execution.kernels", "repro.execution.kernels.python_backend:PythonKernels",
     ("*",), AGGREGATE),
    ("execution.charging", "repro.execution.context:ExecutionContext",
     ("visit", "visit_batch", "visit_conjunct_batch", "read_fields",
      "read_record", "write_record", "read_column_batch",
      "read_column_group_batch", "read_address", "write_address",
      "page_io_in", "page_io_out"), AGGREGATE),
    ("hardware.processor", "repro.hardware.processor:SimulatedProcessor",
     ("charge_routine", "fetch_code", "fetch_code_run", "data_read",
      "data_read_span", "data_read_strided", "data_write",
      "data_write_strided", "branch", "finalize"), AGGREGATE),
    ("hardware.construct", "repro.hardware.processor:SimulatedProcessor",
     ("__init__",), SPAN),
    ("execution.parallel.tape_replay", "repro.execution.parallel",
     ("replay_tape",), SPAN),
    ("execution.parallel.shared_scan",
     "repro.execution.parallel:SharedScanCoordinator", ("attach",), SPAN),
    ("adaptive", "repro.adaptive.manager:AdaptiveExecution",
     ("evaluate_batch", "plan_for"), AGGREGATE),
    ("engine.session_init", "repro.engine.session:Session",
     ("__init__",), SPAN),
    ("engine.session_close", "repro.engine.session:Session",
     ("close",), SPAN),
    ("analysis.breakdown", "repro.analysis.breakdown:ExecutionBreakdown",
     ("from_counters",), AGGREGATE),
    ("analysis.breakdown", "repro.engine.session",
     ("compute_metrics",), AGGREGATE),
    ("analysis.breakdown", "repro.serving.server",
     ("compute_metrics",), AGGREGATE),
    ("serving.step", "repro.serving.server:Server", ("step",), SPAN),
    ("serving.normalize", "repro.serving.server",
     ("normalize_query", "query_tables"), AGGREGATE),
    ("serving.result_cache", "repro.serving.cache:ResultCache",
     ("get", "put", "invalidate_table"), AGGREGATE),
)

#: Layer of the root span the benchmark opens around each op.
ROOT_LAYER = "bench.op_root"

_ARRAY_KERNELS = "ArrayKernels"
_PYTHON_KERNELS = "PythonKernels"


class Recorder:
    """In-memory span store; written out only when the workload has ended."""

    def __init__(self) -> None:
        #: ``(id, name, start, end, parent, op_id, self_s)`` per SPAN call.
        self.spans: List[tuple] = []
        #: ``name -> [calls, self_s]`` of the innermost open span, and the
        #: finished ``(op_id, parent span, cells)`` scopes (the first is
        #: what runs outside every span).
        self.cells: Dict[str, list] = {}
        self.scopes: List[tuple] = [(0, 0, self.cells)]
        #: Id of the innermost open span (0 = none).
        self.top = 0
        #: Seconds of the innermost open call already covered by its children.
        self.child = 0.0
        #: Ops are numbered from 1; 0 collects what runs between ops.
        self.op_id = 0
        self.ops = 0
        self.next_id = 1
        #: Depth of ArrayKernels calls in progress, and PythonKernels methods
        #: entered while it was non-zero (the array backend's fallbacks).
        self.in_array_kernel = 0
        self.kernel_fallbacks = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block of the benchmark's own code."""
        frame = _open(self)
        try:
            yield
        finally:
            _close(self, name, frame)

    @contextmanager
    def op(self, key: str) -> Iterator[None]:
        """Root span of one op; every span inside shares its ``op_id``."""
        self.ops += 1
        self.op_id = self.ops
        try:
            with self.span(f"{ROOT_LAYER}:{key}"):
                yield
        finally:
            self.op_id = 0

    # ------------------------------------------------------------- reading
    def name_totals(self) -> Dict[str, List[float]]:
        """``span name -> [calls, self seconds]`` over everything recorded."""
        totals: Dict[str, List[float]] = {}
        for _, name, _, _, _, _, self_s in self.spans:
            cell = totals.setdefault(name, [0, 0.0])
            cell[0] += 1
            cell[1] += self_s
        for _, _, cells in self.scopes:
            for name, (calls, self_s) in cells.items():
                cell = totals.setdefault(name, [0, 0.0])
                cell[0] += calls
                cell[1] += self_s
        return totals

    def op_accounts(self) -> Dict[int, Tuple[float, float]]:
        """``op_id -> (root duration, sum of self times)`` for every op."""
        roots: Dict[int, float] = {}
        sums: Dict[int, float] = {}
        for _, name, start, end, _, op_id, self_s in self.spans:
            if not op_id:
                continue
            sums[op_id] = sums.get(op_id, 0.0) + self_s
            if name.startswith(ROOT_LAYER + ":"):
                roots[op_id] = end - start
        for op_id, _, cells in self.scopes:
            if op_id:
                sums[op_id] = sums.get(op_id, 0.0) + sum(
                    self_s for _, self_s in cells.values())
        return {op_id: (roots[op_id], sums[op_id]) for op_id in roots}

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({
                "spans": [{"id": i, "name": n, "start": s, "end": e,
                           "parent": p, "op_id": o, "self_s": own}
                          for i, n, s, e, p, o, own in self.spans],
                "aggregates": [{"op_id": o, "parent": p, "name": n,
                                "calls": calls, "self_s": own}
                               for o, p, cells in self.scopes
                               for n, (calls, own) in cells.items()],
            }, handle)
            handle.write("\n")


class _Off:
    """Stand-in recorder of the untraced run: every bracket is a no-op."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    op = span


OFF = _Off()


# ------------------------------------------------------------------ wrappers
def _open(rec: Recorder) -> tuple:
    """Open a span; returns what ``_close`` needs to put back."""
    frame = (rec.top, rec.child, rec.cells, rec.next_id)
    rec.top = rec.next_id
    rec.next_id += 1
    rec.child = 0.0
    rec.cells = {}
    return frame + (perf_counter(),)


def _close(rec: Recorder, name: str, frame: tuple) -> None:
    end = perf_counter()
    parent, saved, cells, span_id, start = frame
    rec.spans.append((span_id, name, start, end, parent, rec.op_id,
                      end - start - rec.child))
    if rec.cells:
        rec.scopes.append((rec.op_id, span_id, rec.cells))
    rec.top, rec.child, rec.cells = parent, saved + (end - start), cells


def _span_wrapper(function, name: str, rec: Recorder):
    def wrapper(*args, **kwargs):
        frame = _open(rec)
        try:
            return function(*args, **kwargs)
        finally:
            _close(rec, name, frame)
    return wrapper


def _aggregate_wrapper(function, name: str, rec: Recorder):
    def wrapper(*args, **kwargs):
        saved = rec.child
        rec.child = 0.0
        start = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            try:
                cell = rec.cells[name]
            except KeyError:
                cell = rec.cells[name] = [0, 0.0]
            cell[0] += 1
            cell[1] += elapsed - rec.child
            rec.child = saved + elapsed
    return wrapper


def _generator_wrapper(function, name: str, rec: Recorder):
    """A generator's time is the time of its resumptions, not of the call
    that creates it: the consumer's own work runs between two ``next``."""
    def wrapper(*args, **kwargs):
        iterator = function(*args, **kwargs)
        calls = 1
        while True:
            saved = rec.child
            rec.child = 0.0
            start = perf_counter()
            try:
                item = next(iterator)
                done = False
            except StopIteration:
                done = True
            finally:
                elapsed = perf_counter() - start
                try:
                    cell = rec.cells[name]
                except KeyError:
                    cell = rec.cells[name] = [0, 0.0]
                cell[0] += calls
                cell[1] += elapsed - rec.child
                rec.child = saved + elapsed
                calls = 0
            if done:
                return
            yield item
    return wrapper


def _array_kernel_wrapper(function, rec: Recorder):
    def wrapper(*args, **kwargs):
        rec.in_array_kernel += 1
        try:
            return function(*args, **kwargs)
        finally:
            rec.in_array_kernel -= 1
    return wrapper


def _python_kernel_wrapper(function, rec: Recorder):
    def wrapper(*args, **kwargs):
        if rec.in_array_kernel:
            rec.kernel_fallbacks += 1
        return function(*args, **kwargs)
    return wrapper


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def boundary_targets() -> List[Tuple[str, object, str, str]]:
    """``(layer, owner object, attribute, mode)`` for every wrapped name."""
    targets = []
    for layer, owner, attributes, mode in BOUNDARIES:
        target = _resolve(owner)
        if attributes == ("*",):
            attributes = tuple(
                attr for attr, value in vars(target).items()
                if not attr.startswith("_") and inspect.isfunction(value))
        targets.extend((layer, target, attr, mode) for attr in attributes)
    return targets


@contextmanager
def tracing(rec: Recorder) -> Iterator[Recorder]:
    """Wrap every boundary for the block; restore the originals on exit."""
    patched: List[Tuple[object, str, object]] = []
    try:
        for layer, target, attr, mode in boundary_targets():
            original = vars(target)[attr]
            is_classmethod = isinstance(original, classmethod)
            function = original.__func__ if is_classmethod else original
            owner_name = getattr(target, "__name__", "").rsplit(".", 1)[-1]
            name = f"{layer}:{owner_name}.{attr}"
            if mode == SPAN:
                wrapped = _span_wrapper(function, name, rec)
            elif inspect.isgeneratorfunction(function):
                wrapped = _generator_wrapper(function, name, rec)
            else:
                wrapped = _aggregate_wrapper(function, name, rec)
            if owner_name == _ARRAY_KERNELS:
                wrapped = _array_kernel_wrapper(wrapped, rec)
            elif owner_name == _PYTHON_KERNELS:
                wrapped = _python_kernel_wrapper(wrapped, rec)
            patched.append((target, attr, original))
            setattr(target, attr,
                    classmethod(wrapped) if is_classmethod else wrapped)
        yield rec
    finally:
        for target, attr, original in reversed(patched):
            setattr(target, attr, original)
