"""System profiles: the implementation idioms of the four commercial DBMSs.

The paper could not disclose the identities of the four systems and had no
access to their source code; it characterises them purely through externally
observable implementation properties (instructions retired per record, cache
footprints and miss rates, optimiser choices, branch behaviour, resource
stalls).  A :class:`SystemProfile` encodes exactly those properties, and the
execution engine consults the profile while running *real* operators over
*real* pages, so the hardware-level differences between "System A" and
"System D" emerge from the simulation rather than being pasted into the
results.

The profile has three groups of knobs:

Planner policy
    ``uses_index_for_range_selection`` and ``index_selectivity_threshold``
    -- the observable optimiser difference (System A refuses the
    non-clustered index for the 10% selection).  Every system runs the
    no-index equijoin as a hash join.

Per-operation costs (:class:`OperationCost`)
    For each executor routine (fetch next record from a page, evaluate the
    predicate, probe the hash table, fetch a record by rid, ...) the profile
    states how many instructions the routine retires, how many unique bytes
    of code it touches (its instruction-cache footprint), how many of its
    loads/stores stay in hot private structures, how many touches it makes to
    the system's private working set, which dynamic branch sites it contains
    and how many dependency / functional-unit stall cycles its instruction
    mix incurs on the out-of-order core.

Data-access style and working set
    ``record_access_style`` distinguishes engines that touch only the
    referenced fields of a record from engines that sweep the whole record
    (slot parsing, column extraction), which is what separates System B's 2%
    L2 data miss rate from the 40--90% of the others; ``workspace_bytes``
    sizes the private working set whose residence in L1D/L2 shapes the L1
    D-cache behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple


class ProfileError(ValueError):
    """Raised for malformed system profiles."""


#: Branch-site behaviour classes used by the execution engine.
BRANCH_KIND_LOOP = "loop"            # loop-closing branch, almost always taken
BRANCH_KIND_DATA = "data"            # outcome supplied by the operator (predicate, match test)
BRANCH_KIND_ALTERNATING = "alternating"  # flips every visit (poorly predicted by 2-bit counters)
BRANCH_KIND_RARE = "rare"            # taken rarely (error paths); almost perfectly predicted
BRANCH_KIND_COLD = "cold"            # site address varies per visit; always misses the BTB

BRANCH_KINDS = (BRANCH_KIND_LOOP, BRANCH_KIND_DATA, BRANCH_KIND_ALTERNATING,
                BRANCH_KIND_RARE, BRANCH_KIND_COLD)


@dataclass(frozen=True)
class BranchSiteSpec:
    """One dynamic branch site inside an executor routine."""

    name: str
    kind: str
    #: How many dynamic branch instructions this simulated site stands for per
    #: visit (sites representing small internal loops use weight > 1).
    weight: int = 1

    def __post_init__(self) -> None:
        if self.kind not in BRANCH_KINDS:
            raise ProfileError(f"unknown branch kind {self.kind!r}")
        if self.weight < 1:
            raise ProfileError("branch site weight must be >= 1")


@dataclass(frozen=True)
class OperationCost:
    """Cost and footprint of one invocation of an executor routine.

    ``code_bytes`` is the routine's *hot* footprint: the tight inner code that
    is re-executed on every invocation and therefore normally stays resident
    in the 16 KB L1 I-cache.  ``cold_code_bytes`` is the per-invocation slice
    of *low-locality* code -- dispatch targets, per-type specialisations,
    utility routines, error handling interleaved with the hot path -- drawn
    from a large rotating pool so that it is rarely still L1I-resident when
    re-executed (but normally still L2-resident).  The cold slice is what
    produces the sustained L1 instruction miss rates the paper measures;
    systems differ primarily in how much of it they drag in per record.
    """

    instructions: int
    code_bytes: int
    cold_code_bytes: int = 0
    data_refs: int = 0
    workspace_touches: int = 0
    dependency_stall_cycles: float = 0.0
    fu_stall_cycles: float = 0.0
    branch_sites: Tuple[BranchSiteSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.instructions < 0 or self.code_bytes < 0 or self.data_refs < 0:
            raise ProfileError("operation costs must be non-negative")
        if self.cold_code_bytes < 0:
            raise ProfileError("cold_code_bytes must be non-negative")
        if self.workspace_touches < 0:
            raise ProfileError("workspace_touches must be non-negative")

    def scaled(self, path_factor: float = 1.0, footprint_factor: float = 1.0,
               stall_factor: float = 1.0, cold_factor: Optional[float] = None) -> "OperationCost":
        """Scale path length / footprint / stalls (used to derive system variants)."""
        if cold_factor is None:
            cold_factor = footprint_factor
        return replace(
            self,
            instructions=max(int(round(self.instructions * path_factor)), 1),
            code_bytes=max(int(round(self.code_bytes * footprint_factor)), 64),
            cold_code_bytes=int(round(self.cold_code_bytes * cold_factor)),
            data_refs=int(round(self.data_refs * path_factor)),
            workspace_touches=int(round(self.workspace_touches * path_factor)),
            dependency_stall_cycles=self.dependency_stall_cycles * stall_factor,
            fu_stall_cycles=self.fu_stall_cycles * stall_factor,
        )


#: Executor routine names, in code-layout order.  Every profile must provide
#: a cost for each of these.  ``inner_scan_next`` and ``sort_merge_step``
#: are never charged (no plan runs a nested-loop or sort-merge join), but
#: they are part of each modelled binary's code footprint: the layout places
#: every routine after the ones before it, so removing one would move the
#: code address of every later routine.
OPERATION_NAMES: Tuple[str, ...] = (
    "query_setup",        # per query: parse/optimise/open cursors
    "scan_next",          # per record delivered by a sequential scan
    "page_boundary",      # per heap page crossing (buffer manager code)
    "predicate",          # per predicate evaluation
    "agg_update",         # per qualifying record folded into the aggregate
    "index_descend_node", # per B+-tree node visited while descending
    "leaf_advance",       # per leaf entry scanned during an index range scan
    "rid_fetch",          # per record fetched from the heap by record id
    "hash_build",         # per build-side record inserted into the hash table
    "hash_probe",         # per probe-side record hashed and matched
    "join_output",        # per joined pair delivered upward
    "inner_scan_next",    # nested-loop join inner rescan (laid out, not run)
    "sort_merge_step",    # sort/merge phase (laid out, not run)
    "update_record",      # per in-place record update (OLTP path)
    "txn_overhead",       # per OLTP transaction (begin/commit, locking, logging)
)

#: Record field access styles.
ACCESS_FIELDS_ONLY = "fields_only"
ACCESS_FULL_RECORD = "full_record"


@dataclass(frozen=True)
class SystemProfile:
    """The complete behavioural description of one 'commercial DBMS'."""

    key: str
    name: str
    description: str

    # --- planner policy (satisfies repro.query.planner.PlannerPolicy) -----
    uses_index_for_range_selection: bool
    index_selectivity_threshold: float

    # --- data access behaviour --------------------------------------------
    record_access_style: str
    workspace_bytes: int
    workspace_touch_stride: int = 64
    cold_code_pool_bytes: int = 96 * 1024
    """Size of the rotating low-locality code pool.

    Sized well above the 16 KB L1 I-cache (so cold fetches keep missing
    there) but comfortably inside the 512 KB L2 even with relation data
    streaming through it (so they rarely miss in L2) -- matching the paper's
    observation that L2 instruction misses are two to three orders of
    magnitude rarer than L1 instruction misses."""

    # --- instruction stream behaviour --------------------------------------
    uops_per_instruction: float = 1.35
    branch_fraction: float = 0.20
    bulk_branch_misprediction_rate: float = 0.02
    bulk_branch_btb_miss_rate: float = 0.55
    """BTB miss rate of the bulk (non-simulated) branch population.

    The commercial systems' instruction footprints contain far more static
    branch sites than the 512-entry BTB can hold, so the paper measures a BTB
    miss ratio of roughly 50% on average; the dynamically simulated branch
    sites (hot loops and predicates) mostly hit, and this rate covers the
    long tail that does not."""
    ild_stall_per_instruction: float = 0.03
    vector_body_fraction: float = 0.25
    """Per-iteration share of a routine's cost that survives vectorization.

    When the executor runs a routine over a batch instead of invoking it per
    tuple, the interpretation overhead (dispatch, per-call setup, cold-code
    excursions) is paid once per batch and only the tight loop body remains
    per record.  This fraction scales the routine's instruction path,
    workspace churn and resource stalls for those loop-body iterations; the
    remaining ~1 - fraction is exactly the amortised overhead the paper
    attributes to tuple-at-a-time interpretation."""

    # --- per-operation costs ------------------------------------------------
    costs: Mapping[str, OperationCost] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.record_access_style not in (ACCESS_FIELDS_ONLY, ACCESS_FULL_RECORD):
            raise ProfileError(f"unknown record access style {self.record_access_style!r}")
        if not 0.0 <= self.index_selectivity_threshold <= 1.0:
            raise ProfileError("index_selectivity_threshold must be in [0, 1]")
        if not 0.0 < self.branch_fraction < 1.0:
            raise ProfileError("branch_fraction must be in (0, 1)")
        if not 0.0 <= self.bulk_branch_misprediction_rate <= 1.0:
            raise ProfileError("bulk_branch_misprediction_rate must be in [0, 1]")
        if not 0.0 <= self.bulk_branch_btb_miss_rate <= 1.0:
            raise ProfileError("bulk_branch_btb_miss_rate must be in [0, 1]")
        if self.workspace_bytes <= 0:
            raise ProfileError("workspace_bytes must be positive")
        if self.workspace_touch_stride <= 0:
            raise ProfileError("workspace_touch_stride must be positive")
        if self.workspace_touch_stride >= self.workspace_bytes:
            raise ProfileError("workspace_touch_stride must be smaller than "
                               "workspace_bytes")
        if not 0.0 < self.vector_body_fraction <= 1.0:
            raise ProfileError("vector_body_fraction must be in (0, 1]")
        missing = [op for op in OPERATION_NAMES if op not in self.costs]
        if missing:
            raise ProfileError(f"profile {self.key!r} is missing operation costs: {missing}")

    def cost(self, operation: str) -> OperationCost:
        try:
            return self.costs[operation]
        except KeyError:
            raise ProfileError(f"profile {self.key!r} has no cost for {operation!r}") from None

    def with_overrides(self, **kwargs) -> "SystemProfile":
        """Copy of this profile with selected fields replaced (ablations)."""
        return replace(self, **kwargs)

    def path_instructions(self, operations: Mapping[str, float]) -> float:
        """Expected instructions for a path: sum(count * instructions(op)).

        Used by the analytical tests that cross-check the simulated
        instructions-per-record counts (Figure 5.3) against the profile.
        """
        return sum(self.cost(op).instructions * count for op, count in operations.items())

    def path_code_bytes(self, operations: Tuple[str, ...]) -> int:
        """Unique instruction footprint of a path (each routine counted once)."""
        return sum(self.cost(op).code_bytes for op in set(operations))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SystemProfile({self.key}: {self.name})"
