"""Pipeline cost model: turning event counts into execution cycles.

The paper's framework (Section 3.1) decomposes query execution time as

    T_Q = T_C + T_M + T_B + T_R - T_OVL

The simulated processor produces *event counts* (cache misses, branch
mispredictions, retired micro-operations, resource-stall cycles charged by the
execution cost model).  This module assembles those counts into the cycle
total the hardware would report in ``CPU_CLK_UNHALTED``, applying a simple
overlap model for the stall classes the paper identifies as overlappable
(Section 3.2):

* L1 D-cache misses that hit in L2 are cheap and largely hidden by the
  out-of-order engine;
* L2 data misses can overlap with one another up to the number of outstanding
  misses supported by the non-blocking caches (4), but the workload is
  latency-bound so only a modest fraction is hidden;
* instruction-side stalls (L1I, L2I, ITLB) and branch mispredictions are
  serial bottlenecks that the paper argues cannot be hidden, so none of their
  cost is removed;
* a fraction of dependency/functional-unit stalls can be hidden behind memory
  stalls.

The analysis layer (:mod:`repro.analysis.breakdown`) independently recomputes
the per-component estimates exactly the way the paper does from the counters
(miss counts times penalty constants, "actual" stall counters for the rest);
tests cross-check that the estimated components bound the simulated total the
same way the paper's upper-bound estimates behave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .counters import EventCounters, MODE_USER
from .specs import ProcessorSpec


@dataclass(frozen=True)
class OverlapModel:
    """Fractions of each overlappable stall class hidden by the OoO engine."""

    l1d_hidden_fraction: float = 0.80
    l2d_hidden_fraction: float = 0.15
    dtlb_hidden_fraction: float = 0.70
    resource_hidden_fraction: float = 0.20

    def __post_init__(self) -> None:
        for name in ("l1d_hidden_fraction", "l2d_hidden_fraction",
                     "dtlb_hidden_fraction", "resource_hidden_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")


@dataclass
class CycleBreakdown:
    """Ground-truth cycle components produced by the simulator.

    All values are in cycles.  ``total`` already has ``overlap`` subtracted,
    mirroring the paper's equation; the individual components are the
    *pre-overlap* values (upper bounds), which is also how the paper reports
    them.
    """

    computation: float = 0.0
    l1d: float = 0.0
    l1i: float = 0.0
    l2d: float = 0.0
    l2i: float = 0.0
    itlb: float = 0.0
    dtlb: float = 0.0
    branch: float = 0.0
    dependency: float = 0.0
    functional_unit: float = 0.0
    ild: float = 0.0
    overlap: float = 0.0
    total: float = 0.0

    @property
    def memory(self) -> float:
        """T_M: memory-hierarchy stall cycles (DTLB excluded, as in the paper)."""
        return self.l1d + self.l1i + self.l2d + self.l2i + self.itlb

    @property
    def resource(self) -> float:
        """T_R: resource-related stall cycles."""
        return self.dependency + self.functional_unit + self.ild

    @property
    def stall(self) -> float:
        """All stall cycles (everything except useful computation)."""
        return self.memory + self.branch + self.resource

    def as_dict(self) -> Dict[str, float]:
        return {
            "computation": self.computation,
            "l1d": self.l1d,
            "l1i": self.l1i,
            "l2d": self.l2d,
            "l2i": self.l2i,
            "itlb": self.itlb,
            "dtlb": self.dtlb,
            "branch": self.branch,
            "dependency": self.dependency,
            "functional_unit": self.functional_unit,
            "ild": self.ild,
            "overlap": self.overlap,
            "memory": self.memory,
            "resource": self.resource,
            "total": self.total,
        }


class CycleModel:
    """Assemble a :class:`CycleBreakdown` from counters and the platform spec."""

    def __init__(self, spec: ProcessorSpec, overlap: OverlapModel | None = None) -> None:
        self.spec = spec
        self.overlap = overlap or OverlapModel()

    def assemble(self, counters: EventCounters, mode: str = MODE_USER) -> CycleBreakdown:
        """Compute the ground-truth cycle breakdown for one measured run."""
        spec = self.spec
        get = lambda event: counters.get(event, mode)  # noqa: E731 - local shorthand

        breakdown = CycleBreakdown()

        # Useful computation: minimum cycles implied by retire bandwidth.
        breakdown.computation = get("UOPS_RETIRED") / spec.pipeline.retire_width_uops

        # Memory hierarchy stalls (upper bounds, as in Table 4.2).
        l1d_misses = get("DCU_LINES_IN")
        l2_data_misses = get("L2_DATA_MISS")
        l2_ifetch_misses = get("L2_IFETCH_MISS")
        l1d_l2_hits = max(l1d_misses - l2_data_misses, 0)
        breakdown.l1d = l1d_l2_hits * spec.l1d.miss_penalty_cycles
        breakdown.l1i = get("IFU_MEM_STALL")
        breakdown.l2d = l2_data_misses * spec.memory.latency_cycles
        breakdown.l2i = l2_ifetch_misses * spec.memory.latency_cycles
        breakdown.itlb = get("ITLB_MISS") * spec.itlb.miss_penalty_cycles
        breakdown.dtlb = get("DTLB_MISS") * spec.dtlb.miss_penalty_cycles

        # Branch misprediction penalty.
        breakdown.branch = (get("BR_MISS_PRED_RETIRED")
                            * spec.branch.misprediction_penalty_cycles)

        # Resource stalls are charged directly by the execution cost model.
        breakdown.dependency = get("PARTIAL_RAT_STALLS")
        breakdown.functional_unit = get("FU_CONTENTION_STALLS")
        breakdown.ild = get("ILD_STALL")

        # Overlap: the portion of the (overlappable) stalls hidden by the
        # out-of-order engine and the non-blocking caches.
        ovl = self.overlap
        breakdown.overlap = (
            ovl.l1d_hidden_fraction * breakdown.l1d
            + ovl.l2d_hidden_fraction * breakdown.l2d
            + ovl.dtlb_hidden_fraction * breakdown.dtlb
            + ovl.resource_hidden_fraction * breakdown.resource
        )

        gross = (breakdown.computation + breakdown.memory + breakdown.dtlb
                 + breakdown.branch + breakdown.resource)
        breakdown.total = max(gross - breakdown.overlap, breakdown.computation)
        return breakdown

    def total_cycles(self, counters: EventCounters, mode: str = MODE_USER) -> float:
        return self.assemble(counters, mode).total
