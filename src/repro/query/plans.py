"""Logical query descriptions and physical plan representations.

The study uses deliberately simple queries (Section 3.3) so the logical layer
is correspondingly small: single-table aggregate selections and two-table
equijoins with an aggregate on top.  The planner (:mod:`repro.query.planner`)
lowers a logical query to a physical plan; the physical plan is a tree of
descriptors that the execution layer instantiates into iterators.

Keeping explicit logical and physical layers (rather than executing the
logical form directly) matters for the reproduction because the paper's
System A behaves differently from B, C and D at exactly this boundary: its
optimiser declines to use the non-clustered index for the 10% range
selection, so the *same logical query* runs as a sequential scan on A and as
an index scan on the others.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

from .expressions import Aggregate, Expression


# --------------------------------------------------------------------------
# Execution engines
# --------------------------------------------------------------------------
#: Tuple-at-a-time Volcano iteration (what the paper's four systems do).
ENGINE_TUPLE = "tuple"
#: Batch-at-a-time vectorized execution (the amortised-interpretation path).
ENGINE_VECTORIZED = "vectorized"

ENGINES = (ENGINE_TUPLE, ENGINE_VECTORIZED)

#: Records processed per batch by the vectorized engine.  Sized so a batch
#: of one column (a few KB) fits comfortably in the 16 KB L1 D-cache.
DEFAULT_BATCH_SIZE = 256

#: Runtime adaptivity of multi-conjunct filter evaluation (the
#: :mod:`repro.adaptive` subsystem).  ``off`` bypasses the adaptive path
#: entirely -- the engine is bit-identical to previous releases.  The other
#: modes decompose ``And`` predicates into conjuncts and evaluate them with
#: short-circuit selection vectors in policy order: ``static`` keeps the
#: planner's order (the control arm for the adaptivity experiment),
#: ``greedy`` ranks conjuncts by observed selectivity-per-cost, ``epsilon``
#: is greedy with a deterministic exploration fraction.  Result rows are
#: identical in every mode; only the charged work differs.
ADAPTIVITY_OFF = "off"
ADAPTIVITY_STATIC = "static"
ADAPTIVITY_GREEDY = "greedy"
ADAPTIVITY_EPSILON = "epsilon"

ADAPTIVITY_MODES = (ADAPTIVITY_OFF, ADAPTIVITY_STATIC, ADAPTIVITY_GREEDY,
                    ADAPTIVITY_EPSILON)

#: Which data-plane kernel implementation the vectorized operators run
#: (:mod:`repro.execution.kernels`).  ``python`` is the original pure-Python
#: loops (the differential oracle); ``array`` is the numpy backend, and
#: ``auto`` (the default) is another spelling of it.  Kernels only touch
#: data -- rows, row order, column order and every simulated hardware count
#: are identical across backends by contract (the charging calls never
#: move).
KERNEL_BACKEND_AUTO = "auto"
KERNEL_BACKEND_PYTHON = "python"
KERNEL_BACKEND_ARRAY = "array"
KERNEL_BACKENDS = (KERNEL_BACKEND_AUTO, KERNEL_BACKEND_PYTHON,
                   KERNEL_BACKEND_ARRAY)

#: Query tracing (:mod:`repro.observability`).  ``off`` bypasses the
#: subsystem structurally -- no tracer object exists and every hot path
#: checks a single ``None`` attribute -- and is bit-identical to previous
#: releases.  ``spans`` wraps every operator ``next()`` boundary and the
#: planner/setup phases in counter spans (snapshot-delta captures of the
#: simulated event banks); ``full`` additionally records per-pull host
#: timing events, shared-scan replay subspans and spill-I/O subspans.
#: Tracing only *reads* hardware state between charges: result rows and
#: every simulated count are identical in all three modes.
TRACING_OFF = "off"
TRACING_SPANS = "spans"
TRACING_FULL = "full"
TRACING_MODES = (TRACING_OFF, TRACING_SPANS, TRACING_FULL)


@dataclass(frozen=True)
class ExecutionConfig:
    """Every execution knob: its name, default, validation and meaning.

    This is the one declaration.  ``Session``, ``Server`` and the
    ``ExperimentRunner`` entry points take these fields as keywords (or one
    ``execution=`` value), build this object from them unchanged -- so an
    unknown or invalid knob fails here, at construction, with the same
    error everywhere -- and pass the frozen value on; the
    :class:`~repro.execution.context.ExecutionContext` holds the same
    object.  README's "Execution knobs" table is checked against these
    fields by ``scripts/check_docs.py``.

    The planner produces the *same* physical plans for both engines -- the
    plan describes access paths and join algorithms, and the engine decides
    whether the operator tree iterates tuple-at-a-time or batch-at-a-time.
    Keeping the switch in a config object (rather than in the plan nodes)
    is what lets the differential harness replay one plan under both
    engines and diff the results.
    """

    #: Tuple-at-a-time Volcano iteration (what the paper's four systems do)
    #: or batch-at-a-time vectorized execution (see :data:`ENGINES`).
    engine: str = ENGINE_TUPLE
    #: Records per batch of the vectorized engine.
    batch_size: int = DEFAULT_BATCH_SIZE
    #: Runtime-adaptation mode (see :data:`ADAPTIVITY_MODES`).  Selects the
    #: decision policy; conjunct reordering is active whenever the mode is
    #: not ``off``, the two decisions below opt in separately.
    adaptivity: str = ADAPTIVITY_OFF
    #: Runtime join-side selection: the vectorized hash join may flip its
    #: build/probe sides between batches when observed cardinalities
    #: contradict the planner's choice (requires ``adaptivity != "off"``;
    #: the policy decides -- ``static`` never flips, so it is the control
    #: arm).  Result rows and column order are identical either way.
    adaptive_joins: bool = False
    #: Runtime batch-size adaptation: vectorized sequential scans accumulate
    #: vectors across page boundaries and resize them within the bounded
    #: ladder from observed L1D miss pressure (requires
    #: ``adaptivity != "off"``; ``static`` keeps the configured size, so it
    #: is the control arm for the same scan structure).
    adaptive_batching: bool = False
    #: Join working-memory budget in bytes.  ``None`` (the default) keeps
    #: every operator fully memory-resident and bit-identical to previous
    #: releases.  When set, the vectorized hash join hash-partitions inputs
    #: whose build side exceeds the budget into spill partitions through a
    #: capacity-limited buffer pool (grace/hybrid), and the buffer pool's
    #: page traffic is charged through the context's I/O cost model.
    #: Result rows, their order and their column order are identical to the
    #: in-memory join at every budget.
    memory_budget_bytes: Optional[int] = None
    #: Data-plane kernel backend for the vectorized operators (see
    #: :data:`KERNEL_BACKENDS`).  Selects how predicate masks, selection
    #: vectors, gathers, key hashing and aggregate folds are *computed*;
    #: what is *charged* to the simulated hardware is identical for every
    #: backend, as are result rows and column order.
    kernel_backend: str = KERNEL_BACKEND_AUTO
    #: Query-tracing mode (see :data:`TRACING_MODES`).  ``off`` (the
    #: default) is structurally bypassed and bit-identical to previous
    #: releases; ``spans``/``full`` attribute the simulated counters to a
    #: per-query trace tree of operator and phase spans without changing a
    #: single simulated count (the observability tests assert both walls
    #: differentially).
    tracing: str = TRACING_OFF

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.adaptivity not in ADAPTIVITY_MODES:
            raise ValueError(f"unknown adaptivity mode {self.adaptivity!r}; "
                             f"expected one of {ADAPTIVITY_MODES}")
        if self.adaptivity != ADAPTIVITY_OFF and self.engine != ENGINE_VECTORIZED:
            raise ValueError(
                f"adaptivity={self.adaptivity!r} requires engine="
                f"{ENGINE_VECTORIZED!r}: only the vectorized filters evaluate "
                f"conjuncts batch-at-a-time (the tuple engine would silently "
                f"ignore the setting)")
        if ((self.adaptive_joins or self.adaptive_batching)
                and self.adaptivity == ADAPTIVITY_OFF):
            raise ValueError(
                "adaptive_joins / adaptive_batching require adaptivity != "
                f"{ADAPTIVITY_OFF!r}: the decisions are made by the adaptivity "
                "policy (use adaptivity='static' for the never-adapt control "
                "arm rather than 'off', which bypasses the subsystem entirely)")
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(f"unknown kernel backend {self.kernel_backend!r}; "
                             f"expected one of {KERNEL_BACKENDS}")
        if self.tracing not in TRACING_MODES:
            raise ValueError(f"unknown tracing mode {self.tracing!r}; "
                             f"expected one of {TRACING_MODES}")
        if self.memory_budget_bytes is not None:
            if self.memory_budget_bytes < 1:
                raise ValueError("memory_budget_bytes must be at least 1 when set")
            if self.engine != ENGINE_VECTORIZED:
                raise ValueError(
                    f"memory_budget_bytes requires engine={ENGINE_VECTORIZED!r}: "
                    f"only the vectorized hash join implements grace/hybrid "
                    f"spilling (the tuple engine would silently ignore the "
                    f"budget)")

    @property
    def is_vectorized(self) -> bool:
        return self.engine == ENGINE_VECTORIZED

    @property
    def is_adaptive(self) -> bool:
        return self.adaptivity != ADAPTIVITY_OFF

    @property
    def is_traced(self) -> bool:
        return self.tracing != TRACING_OFF


def execution_config(execution: Optional[ExecutionConfig] = None,
                     **knobs) -> ExecutionConfig:
    """The config a caller's ``execution=`` value and/or knob keywords name.

    The keywords go to :class:`ExecutionConfig` unchanged, so an unknown
    knob is the dataclass's own ``TypeError`` and an invalid one its
    ``ValueError``, whichever entry point the caller used.
    """
    if execution is None:
        return ExecutionConfig(**knobs)
    return replace(execution, **knobs) if knobs else execution


# --------------------------------------------------------------------------
# Logical queries
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class SelectionQuery:
    """``SELECT <aggregates> FROM <table> WHERE <predicate>``.

    ``prefer_index_on`` names the column whose secondary index the query
    *invites* the planner to use (the paper's indexed range selection is the
    same SQL resubmitted after creating the index); whether the planner
    accepts the invitation depends on the system profile and on index
    availability.
    """

    table: str
    aggregates: Tuple[Aggregate, ...]
    predicate: Optional[Expression] = None
    prefer_index_on: Optional[str] = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise ValueError("SelectionQuery requires at least one aggregate")


@dataclass(frozen=True)
class JoinQuery:
    """``SELECT <aggregates> FROM <left>, <right> WHERE left.col = right.col``.

    ``build_side`` (``"left"``/``"right"``/``None``) pins the hash join's
    build input instead of letting the planner pick the smaller relation.
    It models a planner *misestimate* (stale statistics believing the pinned
    side small) -- the knob the skewed-join adaptivity workload uses to
    construct a planner-wrong plan that runtime join-side selection must
    correct.  ``None`` keeps the planner's size heuristic.
    """

    left_table: str
    right_table: str
    left_column: str
    right_column: str
    aggregates: Tuple[Aggregate, ...]
    predicate: Optional[Expression] = None
    build_side: Optional[str] = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise ValueError("JoinQuery requires at least one aggregate")
        if self.build_side not in (None, "left", "right"):
            raise ValueError(f"build_side must be 'left', 'right' or None, "
                             f"not {self.build_side!r}")


@dataclass(frozen=True)
class UpdateQuery:
    """``UPDATE <table> SET <column> = <value> WHERE <key_column> = <key>``.

    Point updates through an index; used by the OLTP (TPC-C-style) workload.
    """

    table: str
    key_column: str
    key_value: object
    set_column: str
    set_value: object
    label: str = ""


LogicalQuery = Union[SelectionQuery, JoinQuery, UpdateQuery]


# --------------------------------------------------------------------------
# Physical plans
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class SeqScanPlan:
    """Full sequential scan of a table with an optional filter predicate."""

    table: str
    predicate: Optional[Expression] = None

    @property
    def access_path(self) -> str:
        return "seq_scan"


@dataclass(frozen=True)
class IndexRangeScanPlan:
    """Range probe of a non-clustered index followed by heap rid fetches.

    ``low``/``high`` bound the indexed column; the residual predicate (if
    any) is re-evaluated against the fetched record, as real executors do.
    """

    table: str
    column: str
    low: Optional[object]
    high: Optional[object]
    include_low: bool = False
    include_high: bool = False
    residual_predicate: Optional[Expression] = None

    @property
    def access_path(self) -> str:
        return "index_scan"


@dataclass(frozen=True)
class IndexPointLookupPlan:
    """Exact-match index lookup (OLTP point queries/updates)."""

    table: str
    column: str
    value: object

    @property
    def access_path(self) -> str:
        return "index_lookup"


ScanPlan = Union[SeqScanPlan, IndexRangeScanPlan, IndexPointLookupPlan]


@dataclass(frozen=True)
class HashJoinPlan:
    """Hash join: build on the (smaller) right input, probe with the left."""

    probe: ScanPlan
    build: ScanPlan
    probe_column: str
    build_column: str

    @property
    def algorithm(self) -> str:
        return "hash_join"


@dataclass(frozen=True)
class NestedLoopJoinPlan:
    """Tuple-at-a-time nested-loop join (inner input rescanned per outer row)."""

    outer: ScanPlan
    inner: ScanPlan
    outer_column: str
    inner_column: str

    @property
    def algorithm(self) -> str:
        return "nested_loop_join"


@dataclass(frozen=True)
class IndexNestedLoopJoinPlan:
    """Nested-loop join driving an index lookup on the inner table per outer row."""

    outer: ScanPlan
    inner_table: str
    inner_column: str
    outer_column: str

    @property
    def algorithm(self) -> str:
        return "index_nested_loop_join"


JoinPlan = Union[HashJoinPlan, NestedLoopJoinPlan, IndexNestedLoopJoinPlan]


@dataclass(frozen=True)
class AggregatePlan:
    """Scalar aggregation over the rows produced by the input plan."""

    input: Union[ScanPlan, JoinPlan]
    aggregates: Tuple[Aggregate, ...]


@dataclass(frozen=True)
class UpdatePlan:
    """Index point lookup followed by an in-place record update."""

    lookup: IndexPointLookupPlan
    set_column: str
    set_value: object


PhysicalPlan = Union[AggregatePlan, UpdatePlan, ScanPlan, JoinPlan]


def describe_plan(plan: PhysicalPlan, indent: int = 0) -> str:
    """Human-readable, EXPLAIN-style rendering of a physical plan."""
    pad = "  " * indent
    if isinstance(plan, AggregatePlan):
        aggs = ", ".join(a.label for a in plan.aggregates)
        return f"{pad}Aggregate [{aggs}]\n" + describe_plan(plan.input, indent + 1)
    if isinstance(plan, UpdatePlan):
        return (f"{pad}Update set {plan.set_column}\n"
                + describe_plan(plan.lookup, indent + 1))
    if isinstance(plan, HashJoinPlan):
        return (f"{pad}HashJoin probe.{plan.probe_column} = build.{plan.build_column}\n"
                + describe_plan(plan.probe, indent + 1)
                + "\n" + describe_plan(plan.build, indent + 1))
    if isinstance(plan, NestedLoopJoinPlan):
        return (f"{pad}NestedLoopJoin outer.{plan.outer_column} = inner.{plan.inner_column}\n"
                + describe_plan(plan.outer, indent + 1)
                + "\n" + describe_plan(plan.inner, indent + 1))
    if isinstance(plan, IndexNestedLoopJoinPlan):
        return (f"{pad}IndexNestedLoopJoin outer.{plan.outer_column} = "
                f"{plan.inner_table}.{plan.inner_column} (index)\n"
                + describe_plan(plan.outer, indent + 1))
    if isinstance(plan, SeqScanPlan):
        predicate = " (filtered)" if plan.predicate is not None else ""
        return f"{pad}SeqScan {plan.table}{predicate}"
    if isinstance(plan, IndexRangeScanPlan):
        return (f"{pad}IndexRangeScan {plan.table}.{plan.column} in "
                f"({plan.low!r}, {plan.high!r})")
    if isinstance(plan, IndexPointLookupPlan):
        return f"{pad}IndexPointLookup {plan.table}.{plan.column} = {plan.value!r}"
    raise TypeError(f"unknown plan node {plan!r}")
