"""The per-query trace tree and the tracer that assembles it.

A :class:`Tracer` is attached to one measured unit by the session (or by
other drivers such as ``execute_suite``): the root span opens immediately
after ``reset_counters()`` and closes immediately before ``finalize()``,
so the root's synthesized delta *is* the whole-query counter set (the
observability tests assert key-by-key equality).  Inside the unit the
executor instruments the operator tree -- every ``batches()``/``rows()``
pull is bracketed by a counter span -- and opens phase spans around
planner/setup work; the shared-scan and spill layers add subspans in
``full`` mode.

Structure and attribution rules:

* **Nodes are structural.**  A node is keyed by its position in the tree
  (role + operator class + detail), so the repeated runs of a measured
  unit, and every pull of one run, merge into one node.  ``pulls`` counts
  enter/exit pairs.
* **Inclusive by construction.**  A child's pulls happen while its
  parent's pull span is open (generator suspension preserves nesting), so
  a parent's accumulated delta includes its children's.  *Self* time is
  inclusive minus the children's inclusive -- exact integer arithmetic on
  raw-bank deltas.
* **Reentrancy-safe.**  Only the outermost enter/exit of a node captures
  snapshots; nested re-entries (e.g. a replay subspan re-entered per
  batch) just track depth.
* **Shared-scan composition.**  A recorded scan's charge tapes are
  replayed into the query's context *inside* the consuming operator's
  open span, in recording order -- so shared-scan nodes attribute exactly
  the charges a solo scan would have issued.  ``full`` mode additionally
  gives each replayed batch a ``replay`` subspan.

Tracing only reads hardware state; the ``off`` mode never constructs any
of this (``ctx.tracer`` stays ``None`` and every hook is one attribute
check).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from ..analysis.breakdown import BreakdownError, ExecutionBreakdown
from ..hardware.counters import EventCounters
from ..query.plans import TRACING_FULL, TRACING_MODES, TRACING_OFF
from .spans import capture_snapshot, synthesize_counters

__all__ = ["TraceNode", "Tracer"]

#: Attribute names under which operators hold their child operators.
_CHILD_ROLES: Tuple[str, ...] = ("child", "probe", "build")

#: Cap on per-node ``full``-mode event records (per-pull timings, spill
#: I/O).  Keeps long scans from accumulating unbounded host-side lists;
#: ``events_dropped`` records how many were capped away.
_MAX_EVENTS = 512


class TraceNode:
    """One node of the trace tree: an operator, phase or subspan."""

    __slots__ = ("name", "kind", "parent", "children", "_child_index",
                 "user", "sup", "l1i_stall", "l2_accesses", "l2_misses",
                 "l2_writebacks", "io_stats", "rows", "pulls",
                 "host_seconds", "first_host", "last_host", "events",
                 "events_dropped", "meta", "fixed_counters",
                 "_open", "_depth")

    def __init__(self, name: str, kind: str = "operator",
                 parent: Optional["TraceNode"] = None) -> None:
        self.name = name
        self.kind = kind
        self.parent = parent
        self.children: List[TraceNode] = []
        self._child_index: Dict[tuple, TraceNode] = {}
        # Inclusive raw-bank delta accumulators.
        self.user: Dict[str, int] = {}
        self.sup: Dict[str, int] = {}
        self.l1i_stall = 0.0
        self.l2_accesses = 0
        self.l2_misses = 0
        self.l2_writebacks = 0
        self.io_stats: Dict[str, int] = {}
        self.rows = 0
        self.pulls = 0
        self.host_seconds = 0.0
        self.first_host: Optional[float] = None
        self.last_host: Optional[float] = None
        self.events: List[tuple] = []
        self.events_dropped = 0
        self.meta: Dict[str, object] = {}
        #: Pre-synthesized counters for leaf nodes built outside a live
        #: execution (e.g. the serving layer's result-cache probe span).
        self.fixed_counters: Optional[EventCounters] = None
        self._open = None
        self._depth = 0

    # ------------------------------------------------------------- building
    def child(self, key: tuple, name: str, kind: str) -> "TraceNode":
        """Get or create the child node at structural position ``key``."""
        node = self._child_index.get(key)
        if node is None:
            node = TraceNode(name, kind, parent=self)
            self._child_index[key] = node
            self.children.append(node)
        return node

    @classmethod
    def leaf(cls, name: str, counters: EventCounters,
             kind: str = "phase") -> "TraceNode":
        """A standalone single-span node carrying finalized counters."""
        node = cls(name, kind)
        node.fixed_counters = counters.snapshot()
        node.pulls = 1
        return node

    def _accumulate(self, before, after) -> None:
        user = self.user
        for event, value in after.user.items():
            delta = value - before.user.get(event, 0)
            if delta:
                user[event] = user.get(event, 0) + delta
        sup = self.sup
        for event, value in after.sup.items():
            delta = value - before.sup.get(event, 0)
            if delta:
                sup[event] = sup.get(event, 0) + delta
        self.l1i_stall += after.l1i_stall_cycles - before.l1i_stall_cycles
        self.l2_accesses += after.l2_accesses - before.l2_accesses
        self.l2_misses += after.l2_misses - before.l2_misses
        self.l2_writebacks += after.l2_writebacks - before.l2_writebacks
        io = self.io_stats
        for key, value in after.io_stats.items():
            delta = value - before.io_stats.get(key, 0)
            if delta:
                io[key] = io.get(key, 0) + delta
        self.rows += after.rows_produced - before.rows_produced
        self.pulls += 1
        self.host_seconds += after.host_seconds - before.host_seconds
        if self.first_host is None:
            self.first_host = before.host_seconds
        self.last_host = after.host_seconds

    # ------------------------------------------------------------ reporting
    def inclusive_counters(self, processor) -> EventCounters:
        """This node's delta (children included), in finalized shape."""
        if self.fixed_counters is not None:
            return self.fixed_counters.snapshot()
        return synthesize_counters(self.user, self.sup, self.l1i_stall,
                                   self.l2_accesses, self.l2_misses,
                                   self.l2_writebacks, processor)

    def self_counters(self, processor) -> EventCounters:
        """This node's delta minus its children's (exact on raw banks)."""
        if self.fixed_counters is not None:
            return self.fixed_counters.snapshot()
        user = dict(self.user)
        sup = dict(self.sup)
        l1i = self.l1i_stall
        accesses = self.l2_accesses
        misses = self.l2_misses
        writebacks = self.l2_writebacks
        for node in self.children:
            for event, value in node.user.items():
                user[event] = user.get(event, 0) - value
            for event, value in node.sup.items():
                sup[event] = sup.get(event, 0) - value
            l1i -= node.l1i_stall
            accesses -= node.l2_accesses
            misses -= node.l2_misses
            writebacks -= node.l2_writebacks
        return synthesize_counters(user, sup, l1i, accesses, misses,
                                   writebacks, processor)

    def self_io_stats(self) -> Dict[str, int]:
        out = dict(self.io_stats)
        for node in self.children:
            for key, value in node.io_stats.items():
                out[key] = out.get(key, 0) - value
        return {key: value for key, value in out.items() if value}

    def breakdown(self, spec, processor,
                  inclusive: bool = False) -> Optional[ExecutionBreakdown]:
        """The Table 4.2 stall decomposition of this node's (self) delta.

        ``None`` when the delta carries no cycles (e.g. a zero-cost phase):
        the paper's formulae need a positive cycle total to decompose.
        """
        counters = (self.inclusive_counters(processor) if inclusive
                    else self.self_counters(processor))
        try:
            return ExecutionBreakdown.from_counters(counters, spec,
                                                    label=self.name)
        except BreakdownError:
            return None

    def walk(self):
        """Yield ``(depth, node)`` pairs in depth-first pre-order."""
        stack = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))


def describe_operator(operator) -> str:
    name = type(operator).__name__
    table = getattr(operator, "table", None)
    table_name = getattr(table, "name", None)
    if table_name:
        return f"{name}({table_name})"
    return name


class Tracer:
    """Builds one query's trace tree from scoped counter spans."""

    def __init__(self, ctx, spec, mode: str, label: str = "query") -> None:
        if mode not in TRACING_MODES or mode == TRACING_OFF:
            raise ValueError(f"tracer requires an active tracing mode, "
                             f"got {mode!r}")
        self.ctx = ctx
        self.spec = spec
        self.mode = mode
        self.full = mode == TRACING_FULL
        self.processor = ctx.processor
        self.root = TraceNode(label, kind="query")
        self._stack: List[TraceNode] = []

    # ------------------------------------------------------------ raw spans
    def enter(self, node: TraceNode) -> None:
        if node._depth == 0:
            node._open = capture_snapshot(self.ctx)
        node._depth += 1
        self._stack.append(node)

    def exit(self, node: TraceNode) -> None:
        self._stack.pop()
        node._depth -= 1
        if node._depth == 0:
            before = node._open
            node._open = None
            after = capture_snapshot(self.ctx)
            node._accumulate(before, after)
            if self.full:
                if len(node.events) < _MAX_EVENTS:
                    node.events.append(("pull", before.host_seconds,
                                        after.host_seconds - before.host_seconds))
                else:
                    node.events_dropped += 1

    @property
    def current(self) -> TraceNode:
        return self._stack[-1] if self._stack else self.root

    def open_root(self) -> None:
        self.enter(self.root)

    def close_root(self) -> None:
        while self._stack:  # defensive: an exception may strand open spans
            self.exit(self._stack[-1])

    @contextmanager
    def span(self, name: str, kind: str = "phase"):
        """A named subspan under the innermost open span."""
        node = self.current.child(("span", kind, name), name, kind)
        self.enter(node)
        try:
            yield node
        finally:
            self.exit(node)

    def span_node(self, name: str, kind: str = "phase") -> TraceNode:
        """The subspan node without entering it (for explicit parenting)."""
        return self.current.child(("span", kind, name), name, kind)

    @contextmanager
    def open(self, node: TraceNode):
        self.enter(node)
        try:
            yield node
        finally:
            self.exit(node)

    # --------------------------------------------------------- instrumenting
    def instrument(self, operator, parent: Optional[TraceNode] = None,
                   role: str = "plan") -> TraceNode:
        """Wrap ``operator`` (and its children) in per-pull counter spans.

        Wrapping is per-instance: the operator's ``batches``/``rows``
        method is shadowed by an instance attribute, so fresh operator
        trees of later runs are instrumented independently while their
        spans merge into the same structural nodes.
        """
        parent = parent if parent is not None else self.current
        name = describe_operator(operator)
        node = parent.child(("op", role, name), name, "operator")
        node.meta.setdefault("role", role)
        node.meta.setdefault("operator", type(operator).__name__)
        for attr in _CHILD_ROLES:
            child = getattr(operator, attr, None)
            if child is not None and (hasattr(child, "batches")
                                      or hasattr(child, "rows")):
                self.instrument(child, parent=node, role=attr)
        if hasattr(operator, "batches"):
            operator.batches = self._traced_pulls(operator.batches, node)
        elif hasattr(operator, "rows"):
            operator.rows = self._traced_pulls(operator.rows, node)
        return node

    def _traced_pulls(self, method, node: TraceNode):
        tracer = self

        def traced():
            iterator = method()
            while True:
                tracer.enter(node)
                try:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                finally:
                    tracer.exit(node)
                yield item

        return traced

    # ------------------------------------------------------------ utilities
    def io_event(self, name: str, nbytes: int) -> None:
        """Record one spill-I/O occurrence on the innermost open span."""
        node = self.current
        if len(node.events) < _MAX_EVENTS:
            node.events.append((name, nbytes))
        else:
            node.events_dropped += 1
