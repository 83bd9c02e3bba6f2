"""Experiment runner: the one measurement discipline behind every number.

The paper's method is one query measured in isolation, repeatably.  Every
figure, table and artifact here is therefore a :class:`Cell` -- a
frozen description of *what* to measure (dataset, page layout, system, query
or suite or transaction mix, session knobs, warm-up) -- handed to
:meth:`ExperimentRunner.measure`, which does the same four things for all of
them:

1. **build once** per (dataset, layout[, record size]) and take the
   address-space checkpoint (plus, for TPC-C, whose mix updates records in
   place, a raw-page data checkpoint) right after the build;
2. **restore** the checkpoint(s), so the session's transient allocations
   (code layout, workspace) land where they would against a fresh build;
3. construct the :class:`~repro.engine.session.Session` and **execute**;
4. **cache** the result under the cell.

Step 2 makes a cell fresh-build-identical and independent of which cells
ran before it.

Scale and warm-up policy
------------------------
The default configuration runs the microbenchmark at 1/200 of the paper's
row counts (R = 6,000 hundred-byte rows = ~600 KB, still larger than the
512 KB L2) and measures a single cold-cache execution per query
(``warmup_runs=0``).  The paper warms its caches with repeated runs, which is
harmless at full scale because every query's working set dwarfs the L2; at
reduced scale a warm-up run would park the indexed selection's (10% of R)
working set inside the L2 and erase exactly the effect the paper reports, so
the runner measures the first execution instead.  The substitution is
recorded in DESIGN.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from ..analysis.breakdown import ExecutionBreakdown
from ..analysis.metrics import QueryMetrics
from ..engine.database import Database
from ..engine.session import QueryResult, Session
from ..hardware.counters import EventCounters
from ..hardware.os_interference import OSInterferenceConfig
from ..hardware.specs import PENTIUM_II_XEON, ProcessorSpec
from ..query.plans import ExecutionConfig
from ..systems.profile import SystemProfile
from ..systems.vendors import ALL_SYSTEMS, oltp_variant, system_by_key
from ..workloads.micro import MicroWorkload, MicroWorkloadConfig
from ..workloads.sweeps import RECORD_SIZE_POINTS, SELECTIVITY_POINTS
from ..workloads.tpcc import TPCCConfig, TPCCWorkload
from ..workloads.tpcd import TPCDConfig, TPCDWorkload

#: The three microbenchmark query kinds, using the paper's abbreviations.
QUERY_KINDS = ("SRS", "IRS", "SJ")

#: Systems measured for the TPC-D comparison (the paper ran A, B and D).
TPCD_SYSTEMS = ("A", "B", "D")

#: Every query a micro cell can run: the paper's three plus the skewed
#: 3-conjunct selection (``ACS``), the planner-wrong skewed join (``AJS``)
#: and the over-budget join (``SJB``).  ``(workload, selectivity, offset)``.
MICRO_QUERIES: Dict[str, Callable] = {
    "SRS": lambda w, selectivity, offset:
        w.sequential_range_selection(selectivity, offset),
    "IRS": lambda w, selectivity, offset:
        w.indexed_range_selection(selectivity, offset),
    "SJ": lambda w, selectivity, offset: w.sequential_join(),
    "ACS": lambda w, selectivity, offset: w.skewed_conjunct_selection(),
    "AJS": lambda w, selectivity, offset: w.skewed_join(),
    "SJB": lambda w, selectivity, offset: w.over_budget_join(),
}

DATASETS = ("micro", "tpcd", "tpcc")


@dataclass(frozen=True)
class Cell:
    """One measurement on the warmed grid (hashable: it is the cache key).

    ``dataset`` picks what is built -- ``micro`` (R + S + selection index;
    with ``record_size`` set, that record size's own R-only build),
    ``tpcd`` or ``tpcc`` -- and thereby what runs: a micro ``query`` at
    ``selectivity``, the 17-query TPC-D suite, or the TPC-C transaction mix
    (OLTP profile variant, configured transaction count, 10% warm-up).
    ``warmup_offset`` warms up with the same query kind over a key window
    shifted by that fraction of the domain instead of with the measured
    query itself.

    ``knobs`` are the cell's overrides of the session's execution knobs
    (:class:`~repro.query.plans.ExecutionConfig` fields): give a mapping,
    it is held as sorted ``(name, value)`` pairs.  A knob left out -- or
    given as ``None`` -- keeps ``ExecutionConfig``'s default.
    """

    dataset: str = "micro"
    layout: str = "nsm"
    system: str = "B"
    query: str = "SRS"
    selectivity: Optional[float] = None
    record_size: Optional[int] = None
    warmup_runs: int = 0
    warmup_offset: Optional[float] = None
    knobs: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "knobs", tuple(sorted(
            (name, value) for name, value in dict(self.knobs).items()
            if value is not None)))
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}; "
                             f"expected one of {DATASETS}")
        if self.query not in MICRO_QUERIES:
            raise ValueError(f"unknown query kind {self.query!r}; "
                             f"expected one of {tuple(MICRO_QUERIES)}")
        object.__setattr__(self, "system", self.system.upper())


#: The adaptivity experiment's three workloads, as ``(cell fields, knobs)``;
#: the decision switch named here is enabled for every non-``off`` mode, so
#: ``static`` is the control arm (adaptive charging, planner decisions).
#:
#: * ``ACS`` -- skewed-conjunct selection: runtime conjunct reordering;
#: * ``AJS`` -- skewed join (build side pinned to the 30x larger R, a
#:   stale-statistics misestimate): runtime join-side selection; one warm-up
#:   run populates the collector's cardinalities, the regime where greedy
#:   flips *before* any build work is wasted;
#: * ``ABS`` -- 50% selection with a deliberately too-small configured
#:   vector: runtime batch sizing walks the bounded ladder from observed
#:   L1D pressure.
ADAPTIVE_KINDS: Dict[str, Tuple[Dict, Dict]] = {
    "ACS": ({"query": "ACS"}, {}),
    "AJS": ({"query": "AJS", "warmup_runs": 1}, {"adaptive_joins": True}),
    "ABS": ({"query": "SRS", "selectivity": 0.5},
            {"adaptive_batching": True, "batch_size": 32}),
}


def adaptive_cell(kind: str, layout: str, adaptivity: str,
                  system: str = "B") -> Cell:
    """The ``kind`` adaptivity workload under one mode (vectorized engine)."""
    fields, knobs = ADAPTIVE_KINDS[kind]
    knobs = dict(knobs, engine="vectorized", adaptivity=adaptivity)
    if adaptivity == "off":
        knobs.update(adaptive_joins=None, adaptive_batching=None)
    return Cell(layout=layout, system=system, knobs=knobs, **fields)


#: The over-budget join's memory budgets, as multiples of the build side's
#: footprint (:attr:`MicroWorkloadConfig.s_bytes`).  ``SJB-inf`` runs with
#: no budget, the structural bypass: its cycles and rows equal the plain
#: vectorized ``SJ`` cell's.  Finite budgets take the grace/hybrid spilling
#: path through the buffer pool's backing store.
BUDGET_KINDS: Dict[str, Optional[float]] = {
    "SJB-inf": None, "SJB-2x": 2.0, "SJB-1x": 1.0, "SJB-0.5x": 0.5}


def budget_cell(kind: str, layout: str, s_bytes: int) -> Cell:
    """The ``kind`` memory-budget join (vectorized engine, System B)."""
    factor = BUDGET_KINDS[kind]
    budget = None if factor is None else max(int(factor * s_bytes), 1)
    return Cell(layout=layout, query="SJB", knobs={
        "engine": "vectorized", "memory_budget_bytes": budget})


def _env_scale(default: float) -> float:
    """Allow ``REPRO_BENCH_SCALE`` to shrink/grow the benchmark workloads."""
    value = os.environ.get("REPRO_BENCH_SCALE")
    if not value:
        return default
    return float(value) * default


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration shared by every experiment."""

    micro: MicroWorkloadConfig = field(default_factory=lambda: MicroWorkloadConfig(
        scale=_env_scale(MicroWorkloadConfig().scale)))
    tpcd: TPCDConfig = field(default_factory=lambda: TPCDConfig(
        lineitem_rows=max(int(_env_scale(1.0) * 5_000), 500),
        orders_rows=500, part_rows=200, supplier_rows=50))
    tpcc: TPCCConfig = field(default_factory=lambda: TPCCConfig(
        scale=_env_scale(TPCCConfig().scale)))
    spec: ProcessorSpec = PENTIUM_II_XEON
    warmup_runs: int = 0
    selectivity: float = 0.10
    os_interference: bool = True
    tpcc_transactions: int = 120
    selectivity_points: Tuple[float, ...] = SELECTIVITY_POINTS
    record_size_points: Tuple[int, ...] = RECORD_SIZE_POINTS
    record_size_systems: Tuple[str, ...] = ("C", "D")
    #: Retired: every measurement runs in one process.  Accepted only as 1
    #: until no caller passes them; nothing reads them.
    parallelism: int = 1
    grid_workers: int = 1

    def __post_init__(self) -> None:
        for name in ("parallelism", "grid_workers"):
            if getattr(self, name) != 1:
                raise ValueError(f"{name} is retired: measurements run in one "
                                 f"process, so only {name}=1 is accepted")

    def os_config(self) -> Optional[OSInterferenceConfig]:
        return OSInterferenceConfig() if self.os_interference else None


@dataclass
class TPCCResult:
    """Measurement of one system's TPC-C run."""

    system: str
    counters: EventCounters
    breakdown: ExecutionBreakdown
    metrics: QueryMetrics
    transactions: int


class Build(NamedTuple):
    """One warmed dataset build plus what restores it to fresh-build state."""

    database: Database
    workload: Union[MicroWorkload, TPCDWorkload, TPCCWorkload]
    #: Address-space checkpoint taken right after the build.
    checkpoint: Dict[str, int]
    #: Raw page bytes, for datasets whose workload updates records in place
    #: (TPC-C); ``None`` for read-only datasets.
    data: Optional[Dict]


class ExperimentRunner:
    """Lazily builds, measures and caches every cell the figures need."""

    def __init__(self, config: Optional[ExperimentConfig] = None) -> None:
        self.config = config or ExperimentConfig()
        self._micro_workload: Optional[MicroWorkload] = None
        self._tpcd_workload: Optional[TPCDWorkload] = None
        self._builds: Dict[Tuple[str, str, Optional[int]], Build] = {}
        self._results: Dict[Cell, Union[QueryResult, TPCCResult]] = {}

    # ----------------------------------------------------------- workloads
    @property
    def micro_workload(self) -> MicroWorkload:
        if self._micro_workload is None:
            self._micro_workload = MicroWorkload(self.config.micro)
        return self._micro_workload

    @property
    def tpcd_workload(self) -> TPCDWorkload:
        if self._tpcd_workload is None:
            self._tpcd_workload = TPCDWorkload(self.config.tpcd)
        return self._tpcd_workload

    def systems(self) -> Tuple[SystemProfile, ...]:
        return ALL_SYSTEMS

    # -------------------------------------------------------------- builds
    def build(self, cell: Cell) -> Build:
        """The warmed build ``cell`` measures against, built exactly once."""
        key = (cell.dataset, cell.layout, cell.record_size)
        cached = self._builds.get(key)
        if cached is None:
            data = None
            if cell.dataset == "micro":
                if cell.record_size is None:
                    workload = self.micro_workload
                    database = workload.build(layout_style=cell.layout)
                else:
                    # Each record-size sweep point is its own R-only build.
                    workload = MicroWorkload(replace(
                        self.config.micro, record_size=cell.record_size))
                    database = workload.build(include_s=False,
                                              layout_style=cell.layout)
                workload.create_selection_index(database)
            elif cell.dataset == "tpcd":
                workload = self.tpcd_workload
                database = workload.build(layout_style=cell.layout)
            else:
                workload = TPCCWorkload(self.config.tpcc)
                database = workload.build(layout_style=cell.layout)
            checkpoint = database.address_space.checkpoint()
            if cell.dataset == "tpcc":
                # Slot directories and indexes are untouched by the mix's
                # absolute-value updates, so page bytes are sufficient.
                data = database.data_checkpoint()
            cached = self._builds[key] = Build(database, workload,
                                               checkpoint, data)
        return cached

    def grid_database(self, layout: str) -> Tuple[Database, Dict[str, int]]:
        """The warmed microbenchmark build for one layout + its checkpoint."""
        build = self.build(Cell(layout=layout))
        return build.database, build.checkpoint

    def tpcd_grid_database(self, layout: str) -> Tuple[Database, Dict[str, int]]:
        """The warmed TPC-D build for one layout + its checkpoint."""
        build = self.build(Cell(dataset="tpcd", layout=layout))
        return build.database, build.checkpoint

    def tpcc_grid_database(self, layout: str
                           ) -> Tuple[Database, TPCCWorkload, Dict[str, int], Dict]:
        """The warmed TPC-C build for one layout + both its checkpoints."""
        return self.build(Cell(dataset="tpcc", layout=layout))

    # --------------------------------------------------------- measurement
    def session(self, cell: Cell) -> Session:
        """A measurement session for ``cell`` against fresh-build state.

        The build is rolled back to its post-build checkpoint(s) first, so
        simulated counts cannot depend on how many cells ran before.
        """
        build = self.build(cell)
        build.database.address_space.restore(build.checkpoint)
        if build.data is not None:
            build.database.data_restore(build.data)
        profile = system_by_key(cell.system)
        if cell.dataset == "tpcc":
            profile = oltp_variant(profile)
        execution = ExecutionConfig(**dict(cell.knobs))
        return Session(build.database, profile, spec=self.config.spec,
                       os_interference=self.config.os_config(),
                       execution=execution)

    def execute(self, cell: Cell, session: Session
                ) -> Union[QueryResult, TPCCResult]:
        """Run what ``cell`` describes on a session from :meth:`session`."""
        workload = self.build(cell).workload
        if cell.dataset == "tpcd":
            return session.execute_suite(workload.queries(), warmup_runs=0,
                                         label="TPC-D")
        if cell.dataset == "tpcc":
            transactions = self.config.tpcc_transactions
            counters, breakdown, metrics, executed = workload.run(
                session, transactions=transactions,
                warmup_transactions=max(transactions // 10, 5))
            return TPCCResult(system=cell.system, counters=counters,
                              breakdown=breakdown, metrics=metrics,
                              transactions=executed)
        make_query = MICRO_QUERIES[cell.query]
        warmup_query = None
        if cell.warmup_offset is not None:
            warmup_query = make_query(workload, cell.selectivity,
                                      cell.warmup_offset)
        return session.execute(make_query(workload, cell.selectivity, 0.0),
                               warmup_runs=cell.warmup_runs,
                               warmup_query=warmup_query)

    def measure(self, cell: Cell) -> Union[QueryResult, TPCCResult]:
        """Measure ``cell`` once (restore, session, execute) and cache it."""
        cached = self._results.get(cell)
        if cached is None:
            with self.session(cell) as session:
                cached = self._results[cell] = self.execute(cell, session)
        return cached

    # ------------------------------------------------------ cell constructors
    def micro_result(self, system_key: str, kind: str,
                     selectivity: Optional[float] = None,
                     record_size: Optional[int] = None,
                     engine: str = "tuple",
                     layout: str = "nsm") -> Optional[QueryResult]:
        """Measure one (system, query kind) point of the microbenchmark.

        Returns ``None`` for System A's indexed range selection: A's
        optimiser does not use the index, so -- exactly as in Figure 5.1 --
        there is no IRS measurement for it.  ``engine`` selects the
        tuple-at-a-time executor (what the paper's systems do) or the
        vectorized batch executor for the engine-ablation experiment;
        ``layout`` the page layout (default NSM, the paper's).
        """
        if record_size == self.config.micro.record_size:
            record_size = None
        cell = Cell(layout=layout, system=system_key, query=kind,
                    knobs={"engine": engine},
                    selectivity=(self.config.selectivity if selectivity is None
                                 else selectivity),
                    record_size=record_size,
                    warmup_runs=self.config.warmup_runs)
        if kind == "IRS":
            if not system_by_key(system_key).uses_index_for_range_selection:
                return None
            # Warm the index-selection code paths and inner index nodes with a
            # probe over a *disjoint* key window, so the measured window's heap
            # records stay cold (as they are at the paper's full scale, where
            # 10% of R is ~23x the L2 capacity).
            cell = replace(cell, warmup_runs=max(cell.warmup_runs, 1),
                           warmup_offset=1.0)
        return self.measure(cell)

    def selectivity_series(self, system_key: str = "D", kind: str = "SRS",
                           selectivities: Optional[Sequence[float]] = None,
                           layout: str = "nsm") -> Dict[float, QueryResult]:
        """Measurements across the selectivity sweep (Figure 5.4 right)."""
        selectivities = self.config.selectivity_points if selectivities is None else selectivities
        out: Dict[float, QueryResult] = {}
        for selectivity in selectivities:
            result = self.micro_result(system_key, kind, selectivity=selectivity,
                                       layout=layout)
            if result is not None:
                out[selectivity] = result
        return out

    def record_size_series(self, systems: Optional[Sequence[str]] = None,
                           record_sizes: Optional[Sequence[int]] = None,
                           layout: str = "nsm"
                           ) -> Dict[Tuple[str, int], QueryResult]:
        """Sequential-selection measurements across record sizes (Section 5.2)."""
        systems = self.config.record_size_systems if systems is None else systems
        record_sizes = self.config.record_size_points if record_sizes is None else record_sizes
        return {(system, size): self.micro_result(system, "SRS", record_size=size,
                                                  layout=layout)
                for system in systems for size in record_sizes}

    def tpcd_grid_result(self, layout: str, system_key: str = "B",
                         **knobs) -> QueryResult:
        """The 17-query TPC-D suite (averaged, label ``"TPC-D"``), one
        engine-matrix arm: vectorized unless ``knobs`` say otherwise, joins
        adaptive whenever ``adaptivity`` is on.  Counts are identical across
        kernel backends by design; engines differ (that is the ablation).
        """
        knobs = {"engine": "vectorized", **knobs}
        if knobs.get("adaptivity", "off") != "off":
            knobs.setdefault("adaptive_joins", True)
        return self.measure(Cell(dataset="tpcd", layout=layout,
                                 system=system_key, knobs=knobs))

    def tpcc_grid_result(self, layout: str, system_key: str = "B",
                         **knobs) -> TPCCResult:
        """The TPC-C mix, one engine-matrix arm (vectorized unless
        ``knobs`` say otherwise): every arm measures the freshly built table
        contents no matter which update-heavy arms ran before it."""
        return self.measure(Cell(
            dataset="tpcc", layout=layout, system=system_key,
            knobs={"engine": "vectorized", **knobs}))

    def grid_session(self, layout: str, system_key: str = "B",
                     **knobs) -> Session:
        """A checkpoint-restored session against the microbenchmark build,
        for callers that drive their own queries (see :meth:`session`);
        ``knobs`` as in :class:`Cell`."""
        return self.session(Cell(layout=layout, system=system_key,
                                 knobs=knobs))

    def serving_server(self, layout: str, *, system_key: str = "B",
                       max_concurrency: int = 8,
                       plan_cache: bool = True,
                       result_cache: bool = True,
                       shared_scans: bool = True,
                       **knobs):
        """A serving :class:`~repro.serving.server.Server` over the cached
        grid build for ``layout``; ``knobs`` (``None`` = default) are the
        server's execution knobs.

        The server restores the build's checkpoint before every query it
        serves, so — like :meth:`session` — serving cells measure against
        fresh-build-identical state regardless of what ran before.  With
        ``max_concurrency=1`` and all three layers disabled the server
        degenerates to back-to-back solo sessions (the bench's serial
        serving baseline).
        """
        from ..serving import Server
        database, checkpoint = self.grid_database(layout)
        return Server(database, checkpoint, system_by_key(system_key),
                      spec=self.config.spec,
                      os_interference=self.config.os_config(),
                      max_concurrency=max_concurrency,
                      plan_cache=plan_cache, result_cache=result_cache,
                      shared_scans=shared_scans,
                      **{name: value for name, value in knobs.items()
                         if value is not None})

    # -------------------------------------------------------------- helpers
    def selected_records(self, selectivity: Optional[float] = None) -> int:
        """Ground-truth count of records a range selection qualifies."""
        return self.micro_workload.expected_selected_rows(selectivity)

    def r_rows(self) -> int:
        return self.config.micro.r_rows
