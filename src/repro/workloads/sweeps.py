"""Parameter sweeps: selectivity and record size.

Two of the paper's analyses vary a single workload parameter:

* Figure 5.4 (right) varies the *selectivity* of the sequential range
  selection from 0% to 100% and shows that the branch-misprediction stall
  time and the L1 I-cache stall time move together.
* Section 5.2 varies the *record size* between 20 and 200 bytes and observes
  that larger records increase not only the L2 data stalls (less spatial
  locality between the referenced fields of consecutive records) but also the
  L1 instruction misses (more interrupts and page-boundary crossings per
  record), with execution time per record growing by a factor of 2.5--4.

This module provides the canonical sweep points and small helpers for
rebuilding the microbenchmark dataset at each point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from ..engine.database import Database
from .micro import MicroWorkload, MicroWorkloadConfig

#: The selectivities reported in Figure 5.4 (right).
SELECTIVITY_POINTS: Tuple[float, ...] = (0.0, 0.01, 0.05, 0.10, 0.50, 1.00)

#: The record sizes of the Section 5.2 discussion (bytes).
RECORD_SIZE_POINTS: Tuple[int, ...] = (20, 48, 100, 200)


@dataclass(frozen=True)
class SweepPoint:
    """One configured workload instance inside a sweep."""

    label: str
    workload: MicroWorkload
    selectivity: float
    record_size: int


def selectivity_sweep(base_config: Optional[MicroWorkloadConfig] = None,
                      selectivities: Sequence[float] = SELECTIVITY_POINTS) -> Tuple[SweepPoint, ...]:
    """Sweep points sharing one dataset but varying the query selectivity."""
    config = base_config or MicroWorkloadConfig()
    workload = MicroWorkload(config)
    return tuple(SweepPoint(label=f"selectivity={sel:.0%}", workload=workload,
                            selectivity=sel, record_size=config.record_size)
                 for sel in selectivities)


def record_size_sweep(base_config: Optional[MicroWorkloadConfig] = None,
                      record_sizes: Sequence[int] = RECORD_SIZE_POINTS) -> Tuple[SweepPoint, ...]:
    """Sweep points rebuilding the dataset at each record size.

    The row count is held constant (as in the paper), so the total data
    volume grows with the record size; every point therefore needs its own
    database instance, built via :func:`build_database_for_point`.
    """
    config = base_config or MicroWorkloadConfig()
    points = []
    for size in record_sizes:
        point_config = replace(config, record_size=size)
        points.append(SweepPoint(label=f"record_size={size}B",
                                 workload=MicroWorkload(point_config),
                                 selectivity=point_config.selectivity,
                                 record_size=size))
    return tuple(points)


def build_database_for_point(point: SweepPoint, include_s: bool = False,
                             with_index: bool = False,
                             layout_style: str = "nsm") -> Database:
    """Materialise the dataset for one sweep point.

    ``layout_style`` selects the page organisation of the built tables
    (``"nsm"`` / ``"pax"``) -- the "PAX everywhere" axis of the sweeps:
    the row streams are seeded identically for both layouts, so two
    builds of the same point differ only in page organisation.
    """
    database = point.workload.build(include_s=include_s,
                                    layout_style=layout_style)
    if with_index:
        point.workload.create_selection_index(database)
    return database
