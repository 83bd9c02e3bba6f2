"""Simulated virtual address space.

The cache and TLB models operate on addresses.  Because the DBMS under study
is simulated rather than compiled to x86, its objects do not naturally have
addresses; this module provides them.  The address space is divided into
named, non-overlapping regions so that the different kinds of memory the paper
reasons about stay distinguishable in the traces:

``code``
    Instruction addresses.  Each system profile lays out the executor's code
    paths here (:mod:`repro.execution.code_layout`); the footprint and layout
    of this region is what determines the L1 I-cache behaviour.
``heap``
    Buffer-pool frames holding relation pages.  Sequential scans sweep this
    region; its size relative to the 512 KB L2 determines the L2 data-miss
    behaviour (Section 5.2.1).
``index``
    B+-tree nodes.  Index range selections hop around this region and then
    into ``heap``, which is why their memory-stall share is larger than the
    sequential scan's despite touching fewer records.
``workspace``
    Private working structures: hash tables, aggregation state, per-record
    scratch.  The paper attributes the low L1 D-cache miss rate to the hot
    part of this region fitting in the 16 KB L1D.
``catalog``
    Schema and metadata objects (touched rarely).
``disk``
    Simulated backing store for evicted buffer-pool pages.  Addresses in
    this region are never touched by the cache simulation directly; the
    buffer pool charges page transfers in and out of it through the
    :class:`~repro.execution.context.ExecutionContext` I/O cost model, so a
    memory-constrained run pays for its faults instead of crashing on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: Default region bases, spaced exactly one region size apart so the regions
#: tile the address space without overlapping.
DEFAULT_REGION_BASES: Dict[str, int] = {
    "code": 0x1000_0000,
    "heap": 0x2000_0000,
    "index": 0x3000_0000,
    "workspace": 0x4000_0000,
    "catalog": 0x5000_0000,
    "disk": 0x6000_0000,
}

DEFAULT_REGION_SIZE = 0x1000_0000  # 256 MB per region: the paper-scale R (120 MB) fits.


class AddressSpaceError(RuntimeError):
    """Raised on invalid allocations (unknown region, region exhausted)."""


@dataclass
class Region:
    """One named, contiguous region of the simulated address space."""

    name: str
    base: int
    size: int
    cursor: int = 0

    @property
    def end(self) -> int:
        return self.base + self.size

    @property
    def allocated_bytes(self) -> int:
        return self.cursor

    def allocate(self, size: int, alignment: int = 8) -> int:
        """Bump-allocate ``size`` bytes aligned to ``alignment``."""
        if size < 0:
            raise AddressSpaceError(f"negative allocation of {size} bytes in {self.name!r}")
        if alignment <= 0 or (alignment & (alignment - 1)) != 0:
            raise AddressSpaceError(f"alignment must be a power of two, got {alignment}")
        aligned_cursor = (self.cursor + alignment - 1) & ~(alignment - 1)
        if aligned_cursor + size > self.size:
            raise AddressSpaceError(
                f"region {self.name!r} exhausted: need {size} bytes at offset "
                f"{aligned_cursor}, capacity {self.size}")
        self.cursor = aligned_cursor + size
        return self.base + aligned_cursor

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class AddressSpace:
    """Named-region bump allocator for simulated virtual addresses."""

    def __init__(self,
                 region_bases: Optional[Dict[str, int]] = None,
                 region_size: int = DEFAULT_REGION_SIZE) -> None:
        bases = dict(region_bases or DEFAULT_REGION_BASES)
        self._regions: Dict[str, Region] = {
            name: Region(name=name, base=base, size=region_size)
            for name, base in bases.items()
        }

    def region(self, name: str) -> Region:
        try:
            return self._regions[name]
        except KeyError:
            raise AddressSpaceError(f"unknown address-space region {name!r}") from None

    def regions(self) -> Dict[str, Region]:
        return dict(self._regions)

    def allocate(self, region: str, size: int, alignment: int = 8) -> int:
        """Allocate ``size`` bytes in ``region`` and return the base address."""
        return self.region(region).allocate(size, alignment)

    def checkpoint(self) -> Dict[str, int]:
        """Snapshot every region's allocation cursor.

        Together with :meth:`restore` this lets one warmed database be
        reused across measurement sessions: each session's transient
        allocations (workspace areas, code layouts) are rolled back before
        the next session allocates, so every session sees the exact same
        addresses -- and therefore the exact same cache-set geometry and
        simulated counts -- as a session against a freshly built database.
        """
        return {name: region.cursor for name, region in self._regions.items()}

    def fork(self) -> "AddressSpace":
        """A private copy: the same regions at the same cursors, whose
        allocations leave this address space untouched.

        An execution context allocates its transient memory (its working
        set, hash areas, spill frames and backing pages) from a fork of the
        database's address space.  Every context therefore starts at the
        addresses the database left free -- the thousandth session on an
        unrestored database is placed exactly as the first -- and no number
        of sessions can exhaust a region.
        """
        space = AddressSpace.__new__(AddressSpace)
        space._regions = {name: Region(name, region.base, region.size,
                                       region.cursor)
                          for name, region in self._regions.items()}
        return space

    def ensure_region(self, name: str, size: Optional[int] = None) -> Region:
        """Return the region called ``name``, creating it on first use.

        Dynamic regions give concurrent logical sessions private namespaces
        (e.g. a per-session backing store for spill files) without touching
        the fixed region map.  A new region is placed immediately after the
        highest existing region, with its base aligned to the region size:
        region-size alignment means every within-region offset produces the
        same cache-set and TLB-set indices as the same offset in any other
        region, which is what keeps a session's simulated counts independent
        of *which* namespace it was handed.  Creation order is the caller's
        responsibility to keep deterministic; :meth:`restore` ignores regions
        absent from its snapshot, so checkpoints taken before a dynamic
        region existed restore cleanly.
        """
        region = self._regions.get(name)
        if region is not None:
            return region
        if size is None:
            size = max(r.size for r in self._regions.values())
        highest = max(r.end for r in self._regions.values())
        base = -(-highest // size) * size
        region = Region(name=name, base=base, size=size)
        self._regions[name] = region
        return region

    def restore(self, cursors: Dict[str, int]) -> None:
        """Roll allocation cursors back to a :meth:`checkpoint` snapshot."""
        for name, cursor in cursors.items():
            region = self.region(name)
            if cursor > region.cursor:
                raise AddressSpaceError(
                    f"cannot restore region {name!r} forward "
                    f"(checkpoint {cursor} > cursor {region.cursor})")
            region.cursor = cursor

    def region_of(self, addr: int) -> Optional[str]:
        """Name of the region containing ``addr`` (``None`` if outside all)."""
        for name, region in self._regions.items():
            if region.contains(addr):
                return name
        return None

    def allocated_bytes(self, region: str) -> int:
        return self.region(region).allocated_bytes
