"""Instruction-space layout of the executor's code paths.

The paper's instruction-cache findings are about *where code lives*: the L1
I-cache stalls come from the executor's per-record code paths competing for a
16 KB cache, and the suggested remedy is better instruction placement
("storing together frequently accessed instructions while pushing instructions
that are not used that often ... to different locations").

To expose that behaviour, every executor routine of a system profile is laid
out in the ``code`` region of the simulated address space as a
:class:`CodeSegment`:

* a contiguous run of *hot* cache lines re-fetched on every invocation,
* a per-invocation allotment of *cold* lines drawn from a large rotating pool
  shared by the whole system (low-locality helper code, dispatch targets,
  specialisations), and
* the addresses of the routine's dynamic branch sites (used by the BTB).

The per-record instruction working set, and hence the L1I miss behaviour, is
therefore an emergent property of the profile's footprints and the cache
geometry rather than a hard-coded number.

Placement is a pure function of the profile: the modelled DBMS binary is
loaded once, so the cold pool sits at the ``code`` region's base, each
routine follows at the next line boundary in :data:`OPERATION_NAMES` order,
and the block of synthetic conjunct branch sites follows at the next 64-byte
boundary.  Nothing is allocated from the region, so every session of a
profile -- the first on a database or the thousandth -- runs its code at
the same addresses.  Placements of different profiles overlap; one session
runs one profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..storage.address_space import AddressSpace
from ..systems.profile import OperationCost, OPERATION_NAMES, SystemProfile

#: Instruction cache line size used to chop segments into line addresses.
LINE_BYTES = 32


@dataclass(frozen=True)
class BranchSite:
    """A branch site bound to a concrete instruction address."""

    name: str
    kind: str
    weight: int
    address: int


@dataclass(frozen=True)
class CodeSegment:
    """One executor routine placed in instruction address space."""

    name: str
    base_address: int
    hot_lines: Tuple[int, ...]
    cold_lines_per_visit: int
    instructions: int
    uops: int
    data_refs: int
    workspace_touches: int
    dependency_stall_cycles: float
    fu_stall_cycles: float
    ild_stall_cycles: float
    branch_sites: Tuple[BranchSite, ...]
    bulk_branches: int
    bulk_taken: int
    #: Precomputed ``int(round(...))`` of the three stall components plus
    #: their total, exactly as
    #: :meth:`~repro.hardware.processor.SimulatedProcessor.add_resource_stalls`
    #: would derive them per visit -- hoisting the per-visit rounding out of
    #: the simulator's hottest path.
    stall_ints: Tuple[int, int, int, int] = (0, 0, 0, 0)

    @property
    def hot_bytes(self) -> int:
        return len(self.hot_lines) * LINE_BYTES

    @property
    def simulated_branch_weight(self) -> int:
        return sum(site.weight for site in self.branch_sites)


def _aligned(offset: int, alignment: int) -> int:
    return (offset + alignment - 1) & ~(alignment - 1)


class CodeLayout:
    """Places every routine of a profile at fixed offsets in the simulated
    code region."""

    def __init__(self, profile: SystemProfile, address_space: AddressSpace) -> None:
        self.profile = profile
        code_base = address_space.region("code").base
        self._segments: Dict[str, CodeSegment] = {}
        self.cold_pool_base = code_base
        self.cold_pool_lines = max(profile.cold_code_pool_bytes // LINE_BYTES, 1)
        offset = profile.cold_code_pool_bytes
        for operation in OPERATION_NAMES:
            offset = _aligned(offset, LINE_BYTES)
            segment = self._place(operation, profile.cost(operation),
                                  code_base + offset)
            self._segments[operation] = segment
            offset += segment.hot_bytes
        #: Base of the 4 KB block of synthetic branch sites that adaptive
        #: conjunct evaluations charge (see :meth:`~repro.execution.context.
        #: ExecutionContext.visit_conjunct_batch`).
        self.conjunct_sites_base = code_base + _aligned(offset, 64)

    # ------------------------------------------------------------ placement
    def _place(self, name: str, cost: OperationCost, base: int) -> CodeSegment:
        profile = self.profile
        hot_bytes = max(cost.code_bytes, LINE_BYTES)
        n_lines = (hot_bytes + LINE_BYTES - 1) // LINE_BYTES
        hot_lines = tuple(base + i * LINE_BYTES for i in range(n_lines))

        # Branch sites live inside the hot code, spread across its span.
        sites = []
        n_sites = len(cost.branch_sites)
        for position, spec in enumerate(cost.branch_sites):
            offset = (hot_bytes * (position + 1)) // (n_sites + 1)
            sites.append(BranchSite(name=f"{name}.{spec.name}", kind=spec.kind,
                                    weight=spec.weight, address=base + offset))

        uops = int(round(cost.instructions * profile.uops_per_instruction))
        total_branches = int(round(cost.instructions * profile.branch_fraction))
        simulated = sum(spec.weight for spec in cost.branch_sites)
        bulk = max(total_branches - simulated, 0)
        bulk_taken = int(round(bulk * 0.6))
        cold_lines = (cost.cold_code_bytes + LINE_BYTES - 1) // LINE_BYTES if cost.cold_code_bytes else 0

        ild_stall_cycles = cost.instructions * profile.ild_stall_per_instruction
        dep_int = int(round(cost.dependency_stall_cycles)) \
            if cost.dependency_stall_cycles > 0 else 0
        fu_int = int(round(cost.fu_stall_cycles)) if cost.fu_stall_cycles > 0 else 0
        ild_int = int(round(ild_stall_cycles)) if ild_stall_cycles > 0 else 0

        return CodeSegment(
            name=name,
            base_address=base,
            hot_lines=hot_lines,
            cold_lines_per_visit=cold_lines,
            instructions=cost.instructions,
            uops=uops,
            data_refs=cost.data_refs,
            workspace_touches=cost.workspace_touches,
            dependency_stall_cycles=cost.dependency_stall_cycles,
            fu_stall_cycles=cost.fu_stall_cycles,
            ild_stall_cycles=ild_stall_cycles,
            branch_sites=tuple(sites),
            bulk_branches=bulk,
            bulk_taken=bulk_taken,
            stall_ints=(dep_int, fu_int, ild_int, dep_int + fu_int + ild_int),
        )

    # -------------------------------------------------------------- queries
    def segment(self, operation: str) -> CodeSegment:
        try:
            return self._segments[operation]
        except KeyError:
            raise KeyError(f"no code segment for operation {operation!r}") from None

    def segments(self) -> Dict[str, CodeSegment]:
        return dict(self._segments)
