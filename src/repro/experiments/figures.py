"""Reproductions of every table and figure in the paper's evaluation.

Each function measures (through a shared :class:`~repro.experiments.runner.
ExperimentRunner`) and returns a :class:`FigureResult` holding the structured
data plus a text rendering in the spirit of the original chart.  The
benchmark harness under ``benchmarks/`` calls one function per figure and
asserts the qualitative claims the paper attaches to it.

Every measured figure takes the page ``layout`` it is measured under
(default ``"nsm"``, the layout of the paper's systems); the name and the
rendered titles carry it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..analysis.breakdown import MEMORY_COMPONENTS
from ..analysis.metrics import cpi_breakdown
from ..analysis.report import format_key_values, format_stacked_bars, format_table
from ..hardware.specs import PENTIUM_II_XEON, ProcessorSpec
from ..workloads.serving import (ServingTraceConfig, build_trace,
                                run_open_loop)
from .runner import (BUDGET_KINDS, ExperimentRunner, QUERY_KINDS,
                     TPCD_SYSTEMS, adaptive_cell, budget_cell)

#: The serving table's arms: the trace served at these concurrencies, the
#: serving layers (result cache, plan cache, shared scans) on above 1.
SERVING_ARMS = {"SRV-serial": 1, "SRV-8": 8}

#: Labels used in the figures, matching the paper's legends.
GROUP_LABELS = ("Computation", "Memory stalls", "Branch mispredictions", "Resource stalls")
MEMORY_LABELS = ("L1 D-stalls", "L1 I-stalls", "L2 D-stalls", "L2 I-stalls", "ITLB stalls")
QUERY_TITLES = {"SRS": "10% Sequential Range Selection",
                "IRS": "10% Indexed Range Selection",
                "SJ": "Join"}


@dataclass
class FigureResult:
    """Structured data plus a text rendering for one reproduced figure/table."""

    name: str
    title: str
    data: Dict
    text: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


# ---------------------------------------------------------------------------
# Tables 4.1 and 4.2 (platform configuration and measurement method)
# ---------------------------------------------------------------------------
def table_4_1(spec: ProcessorSpec = PENTIUM_II_XEON) -> FigureResult:
    """Table 4.1: cache characteristics of the simulated platform."""
    data = spec.table_4_1()
    rows = list(next(iter(data.values())).keys())
    text = format_table("Table 4.1: Pentium II Xeon cache characteristics",
                        rows, list(data.keys()),
                        {column: dict(values) for column, values in data.items()},
                        formatter=str)
    return FigureResult(name="table_4_1", title="Cache characteristics", data=data, text=text)


def table_4_2() -> FigureResult:
    """Table 4.2: how each stall-time component is measured."""
    from ..analysis.breakdown import TABLE_4_2 as methods
    data = {m.component: {"description": m.description, "method": m.method} for m in methods}
    lines = ["Table 4.2: Method of measuring each stall time component",
             "=" * 56]
    for method in methods:
        lines.append(f"{method.component:<7}{method.description:<38}{method.method}")
    return FigureResult(name="table_4_2", title="Measurement methods", data=data,
                        text="\n".join(lines))


# ---------------------------------------------------------------------------
# Figures 5.1 / 5.2: execution time and memory stall breakdowns
# ---------------------------------------------------------------------------
def _tag(layout: str) -> str:
    """Title tag naming the page layout a figure was measured under."""
    return f" [{layout.upper()}]"


def _breakdown_figure(runner: ExperimentRunner, layout: str, number: str,
                      title: str, labels: Sequence[str],
                      shares_of: Callable) -> FigureResult:
    """``{query: {system: {label: share}}}`` over the eleven Figure 5.1 cells."""
    data: Dict[str, Dict[str, Dict[str, float]]] = {}
    sections = []
    for kind in QUERY_KINDS:
        per_system: Dict[str, Dict[str, float]] = {}
        for profile in runner.systems():
            result = runner.micro_result(profile.key, kind, layout=layout)
            if result is None:
                continue
            per_system[profile.key] = dict(zip(labels, shares_of(result.breakdown)))
        data[kind] = per_system
        sections.append(format_table(
            f"Figure {number}{_tag(layout)} ({QUERY_TITLES[kind]}): "
            f"{title.lower()}",
            list(labels), list(per_system.keys()), per_system))
    return FigureResult(name=f"figure_{number.replace('.', '_')}_{layout}",
                        title=title, data=data, text="\n\n".join(sections))


def figure_5_1(runner: ExperimentRunner, layout: str = "nsm") -> FigureResult:
    """Execution-time breakdown (TC / TM / TB / TR) per system and query."""
    def shares_of(breakdown):
        shares = breakdown.shares()
        return [shares[group]
                for group in ("computation", "memory", "branch", "resource")]
    return _breakdown_figure(runner, layout, "5.1",
                             "Query execution time breakdown", GROUP_LABELS,
                             shares_of)


def figure_5_2(runner: ExperimentRunner, layout: str = "nsm") -> FigureResult:
    """Contributions of the five memory components to the memory stall time."""
    def shares_of(breakdown):
        shares = breakdown.memory_shares()
        return [shares[component] for component in MEMORY_COMPONENTS]
    return _breakdown_figure(runner, layout, "5.2",
                             "Memory stall time breakdown", MEMORY_LABELS,
                             shares_of)


# ---------------------------------------------------------------------------
# Figure 5.3: instructions retired per record
# ---------------------------------------------------------------------------
def figure_5_3(runner: ExperimentRunner,
               layout: str = "nsm") -> FigureResult:
    """Instructions retired per record for each system and query.

    Following the paper's definitions: the sequential selection and the join
    divide by the number of records in R; the indexed selection divides by
    the number of *selected* records.
    """
    r_rows = runner.r_rows()
    selected = runner.selected_records()
    data: Dict[str, Dict[str, float]] = {}
    for profile in runner.systems():
        per_query: Dict[str, float] = {}
        for kind in QUERY_KINDS:
            result = runner.micro_result(profile.key, kind, layout=layout)
            if result is None:
                continue
            instructions = result.counters.get("INST_RETIRED")
            divisor = selected if kind == "IRS" else r_rows
            per_query[kind] = instructions / max(divisor, 1)
        data[profile.key] = per_query
    text = format_table(f"Figure 5.3{_tag(layout)}: Instructions retired per record",
                        list(QUERY_KINDS), list(data.keys()),
                        data, formatter=lambda v: f"{v:,.0f}")
    return FigureResult(name=f"figure_5_3_{layout}",
                        title="Instructions retired per record",
                        data=data, text=text)


# ---------------------------------------------------------------------------
# Figure 5.4: branch misprediction rates; TB and TL1I vs selectivity
# ---------------------------------------------------------------------------
def figure_5_4_left(runner: ExperimentRunner,
                    layout: str = "nsm") -> FigureResult:
    """Branch misprediction rates per system and query."""
    data: Dict[str, Dict[str, float]] = {}
    for profile in runner.systems():
        per_query: Dict[str, float] = {}
        for kind in QUERY_KINDS:
            result = runner.micro_result(profile.key, kind, layout=layout)
            if result is None:
                continue
            per_query[kind] = result.metrics.branch_misprediction_rate
        data[profile.key] = per_query
    text = format_table(f"Figure 5.4 (left){_tag(layout)}: branch misprediction rates",
                        list(QUERY_KINDS), list(data.keys()), data)
    return FigureResult(name=f"figure_5_4_left_{layout}",
                        title="Branch misprediction rates",
                        data=data, text=text)


def figure_5_4_right(runner: ExperimentRunner, system_key: str = "D",
                     layout: str = "nsm") -> FigureResult:
    """TB and TL1I (as % of execution time) versus selectivity for one system."""
    series = runner.selectivity_series(system_key, "SRS", layout=layout)
    data: Dict[str, Dict[str, float]] = {}
    for selectivity, result in sorted(series.items()):
        shares = result.breakdown.component_shares()
        data[f"{selectivity:.0%}"] = {
            "Branch mispred. stalls": shares["TB"],
            "L1 I-cache stalls": shares["TL1I"],
        }
    text = format_table(
        f"Figure 5.4 (right){_tag(layout)}: System {system_key} sequential selection -- "
        f"TB and TL1I vs selectivity",
        ["Branch mispred. stalls", "L1 I-cache stalls"], list(data.keys()), data)
    return FigureResult(name=f"figure_5_4_right_{layout}",
                        title="Branch and L1I stalls vs selectivity",
                        data=data, text=text)


# ---------------------------------------------------------------------------
# Figure 5.5: TDEP and TFU contributions
# ---------------------------------------------------------------------------
def figure_5_5(runner: ExperimentRunner,
               layout: str = "nsm") -> FigureResult:
    """Dependency and functional-unit stall contributions to execution time."""
    data: Dict[str, Dict[str, Dict[str, float]]] = {}
    sections = []
    for component, label in (("TDEP", "TDEP"), ("TFU", "TFU")):
        per_system: Dict[str, Dict[str, float]] = {}
        for profile in runner.systems():
            per_query: Dict[str, float] = {}
            for kind in QUERY_KINDS:
                result = runner.micro_result(profile.key, kind, layout=layout)
                if result is None:
                    continue
                per_query[kind] = result.breakdown.component_shares()[component]
            per_system[profile.key] = per_query
        data[label] = per_system
        sections.append(format_table(
            f"Figure 5.5{_tag(layout)}: {label} contribution to execution time",
            list(QUERY_KINDS), list(per_system.keys()), per_system))
    return FigureResult(name=f"figure_5_5_{layout}", title="Resource stall split",
                        data=data, text="\n\n".join(sections))


# ---------------------------------------------------------------------------
# Figures 5.6 / 5.7: microbenchmark versus TPC-D
# ---------------------------------------------------------------------------
def figure_5_6(runner: ExperimentRunner,
               systems: Sequence[str] = TPCD_SYSTEMS,
               layout: str = "nsm") -> FigureResult:
    """Clocks-per-instruction breakdown: 10% sequential selection vs TPC-D."""
    data: Dict[str, Dict[str, Dict[str, float]]] = {"SRS": {}, "TPC-D": {}}
    for system in systems:
        srs = runner.micro_result(system, "SRS", layout=layout)
        assert srs is not None
        tpcd = runner.tpcd_grid_result(layout, system_key=system, engine="tuple")
        data["SRS"][system] = cpi_breakdown(srs.breakdown, srs.counters.get("INST_RETIRED"))
        data["TPC-D"][system] = cpi_breakdown(tpcd.breakdown, tpcd.counters.get("INST_RETIRED"))
    rows = ["computation", "memory", "branch", "resource", "total"]
    tag = _tag(layout)
    sections = [
        format_table(f"Figure 5.6 (left){tag}: CPI breakdown, 10% sequential selection",
                     rows, list(data["SRS"].keys()), data["SRS"],
                     formatter=lambda v: f"{v:.2f}"),
        format_table(f"Figure 5.6 (right){tag}: CPI breakdown, TPC-D average",
                     rows, list(data["TPC-D"].keys()), data["TPC-D"],
                     formatter=lambda v: f"{v:.2f}"),
    ]
    return FigureResult(name=f"figure_5_6_{layout}",
                        title="CPI breakdown, micro vs TPC-D",
                        data=data, text="\n\n".join(sections))


def figure_5_7(runner: ExperimentRunner,
               systems: Sequence[str] = TPCD_SYSTEMS,
               layout: str = "nsm") -> FigureResult:
    """Cache-related stall breakdown: 10% sequential selection vs TPC-D."""
    cache_components = ("TL1D", "TL1I", "TL2D", "TL2I")
    labels = dict(zip(cache_components, ("L1 D-stalls", "L1 I-stalls",
                                         "L2 D-stalls", "L2 I-stalls")))
    data: Dict[str, Dict[str, Dict[str, float]]] = {"SRS": {}, "TPC-D": {}}
    for system in systems:
        for workload_name, result in (
                ("SRS", runner.micro_result(system, "SRS", layout=layout)),
                ("TPC-D", runner.tpcd_grid_result(layout, system_key=system,
                                                  engine="tuple"))):
            assert result is not None
            components = result.breakdown.components
            total = sum(components[name] for name in cache_components)
            data[workload_name][system] = {
                labels[name]: (components[name] / total if total else 0.0)
                for name in cache_components}
    tag = _tag(layout)
    sections = [
        format_table(f"Figure 5.7 (left){tag}: cache-related stalls, 10% sequential selection",
                     list(labels.values()), list(data["SRS"].keys()), data["SRS"]),
        format_table(f"Figure 5.7 (right){tag}: cache-related stalls, TPC-D average",
                     list(labels.values()), list(data["TPC-D"].keys()), data["TPC-D"]),
    ]
    return FigureResult(name=f"figure_5_7_{layout}",
                        title="Cache stalls, micro vs TPC-D",
                        data=data, text="\n\n".join(sections))


# ---------------------------------------------------------------------------
# Section 5.5 text: TPC-C observations
# ---------------------------------------------------------------------------
def tpcc_summary(runner: ExperimentRunner,
                 systems: Optional[Sequence[str]] = None,
                 layout: str = "nsm") -> FigureResult:
    """Section 5.5's TPC-C observations: CPI, memory-stall share, L2 dominance
    (tuple engine, as the paper's systems)."""
    systems = [p.key for p in runner.systems()] if systems is None else list(systems)
    data: Dict[str, Dict[str, float]] = {}
    for system in systems:
        result = runner.tpcc_grid_result(layout, system_key=system,
                                         engine="tuple")
        shares = result.breakdown.shares()
        memory_shares = result.breakdown.memory_shares()
        data[system] = {
            "CPI": result.metrics.cpi,
            "memory stall share": shares["memory"],
            "L2 share of memory stalls": memory_shares["TL2D"] + memory_shares["TL2I"],
            "resource stall share": shares["resource"],
        }
    text = format_table(f"Section 5.5{_tag(layout)}: TPC-C workload characteristics",
                        ["CPI", "memory stall share", "L2 share of memory stalls",
                         "resource stall share"],
                        list(data.keys()), data, formatter=lambda v: f"{v:6.2f}")
    return FigureResult(name=f"tpcc_summary_{layout}", title="TPC-C observations",
                        data=data, text=text)


# ---------------------------------------------------------------------------
# Section 5.2 text: record size sweep
# ---------------------------------------------------------------------------
def record_size_sweep(runner: ExperimentRunner,
                      layout: str = "nsm") -> FigureResult:
    """TL2D, L1I misses and cycles per record as the record size grows."""
    series = runner.record_size_series(layout=layout)
    data: Dict[str, Dict[str, Dict[str, float]]] = {}
    for (system, size), result in sorted(series.items()):
        records = max(result.counters.get("RECORDS_PROCESSED"), 1)
        per_record = result.breakdown.per_record(records)
        data.setdefault(system, {})[f"{size}B"] = {
            "TL2D cycles/record": per_record["TL2D"],
            "L1I misses/record": result.counters.get("IFU_IFETCH_MISS") / records,
            "cycles/record": per_record["total"],
        }
    sections = []
    for system, columns in data.items():
        sections.append(format_table(
            f"Section 5.2{_tag(layout)}: record-size sweep, System {system} sequential selection",
            ["TL2D cycles/record", "L1I misses/record", "cycles/record"],
            list(columns.keys()), columns, formatter=lambda v: f"{v:,.1f}"))
    return FigureResult(name=f"record_size_sweep_{layout}", title="Record size sweep",
                        data=data, text="\n\n".join(sections))


# ---------------------------------------------------------------------------
# TPC workloads under the modern engine matrix (layouts x engines)
# ---------------------------------------------------------------------------
def tpcd_matrix(runner: ExperimentRunner,
                layouts: Sequence[str] = ("nsm", "pax"),
                engines: Sequence[str] = ("tuple", "vectorized"),
                system_key: str = "B") -> FigureResult:
    """TPC-D suite across the modern engine matrix, on the warmed grid.

    Every arm shares one warmed build per layout (checkpoint-restored), so
    the matrix isolates exactly the engine/layout axes: the paper's NSM +
    tuple arm is the baseline, PAX moves the data stalls, vectorization
    moves the instruction/branch stalls.
    """
    data: Dict[str, Dict[str, Dict[str, float]]] = {}
    sections = []
    metric_rows = ["cycles", "CPI", "memory stall share",
                   "instructions", "routine invocations"]
    for layout in layouts:
        per_arm: Dict[str, Dict[str, float]] = {}
        for engine in engines:
            result = runner.tpcd_grid_result(layout, system_key=system_key,
                                             engine=engine)
            per_arm[engine] = {
                "cycles": float(result.breakdown.total_cycles),
                "CPI": result.metrics.cpi,
                "memory stall share": result.breakdown.shares()["memory"],
                "instructions": float(result.counters.get("INST_RETIRED")),
                "routine invocations": float(result.total_routine_invocations),
            }
        data[layout] = per_arm
        sections.append(format_table(
            f"TPC-D matrix ({layout.upper()}): 17-query average, System {system_key}",
            metric_rows, list(per_arm.keys()), per_arm,
            formatter=lambda v: f"{v:,.2f}"))
    return FigureResult(name="tpcd_matrix",
                        title="TPC-D under the modern engine matrix",
                        data=data, text="\n\n".join(sections))


def tpcc_matrix(runner: ExperimentRunner,
                layouts: Sequence[str] = ("nsm", "pax"),
                engines: Sequence[str] = ("tuple", "vectorized"),
                system_key: str = "B") -> FigureResult:
    """TPC-C mix across the modern engine matrix, on the warmed grid.

    The update-heavy mix runs against one warmed build per layout with
    *both* the address-space checkpoint and the data checkpoint restored
    before every arm, so arms are fresh-build-identical despite the
    in-place record updates.
    """
    data: Dict[str, Dict[str, Dict[str, float]]] = {}
    sections = []
    metric_rows = ["cycles", "CPI", "memory stall share",
                   "L2 share of memory stalls", "transactions"]
    for layout in layouts:
        per_arm: Dict[str, Dict[str, float]] = {}
        for engine in engines:
            result = runner.tpcc_grid_result(layout, system_key=system_key,
                                             engine=engine)
            shares = result.breakdown.shares()
            memory_shares = result.breakdown.memory_shares()
            per_arm[engine] = {
                "cycles": float(result.breakdown.total_cycles),
                "CPI": result.metrics.cpi,
                "memory stall share": shares["memory"],
                "L2 share of memory stalls":
                    memory_shares["TL2D"] + memory_shares["TL2I"],
                "transactions": float(result.transactions),
            }
        data[layout] = per_arm
        sections.append(format_table(
            f"TPC-C matrix ({layout.upper()}): transaction mix, System {system_key}",
            metric_rows, list(per_arm.keys()), per_arm,
            formatter=lambda v: f"{v:,.2f}"))
    return FigureResult(name="tpcc_matrix",
                        title="TPC-C under the modern engine matrix",
                        data=data, text="\n\n".join(sections))


# ---------------------------------------------------------------------------
# Engine ablation: tuple-at-a-time vs vectorized batch execution
# ---------------------------------------------------------------------------
def engine_ablation(runner: ExperimentRunner, layout: str = "nsm",
                    systems: Sequence[str] = ("B", "D"),
                    kinds: Sequence[str] = QUERY_KINDS) -> FigureResult:
    """Stall breakdown of the same queries under both execution engines.

    The paper attributes the dominant stall components (L1 I-cache misses,
    branch mispredictions, part of the computation itself) to per-tuple
    interpretation overhead.  Re-running the Figure 5.1 queries with the
    vectorized engine quantifies that attribution: the batch engine invokes
    each executor routine once per batch instead of once per record, so its
    routine-invocation count, computation time and instruction-stall time
    all drop while the data-stall components (a property of the data
    layout, not the iteration model) remain.
    """
    data: Dict[str, Dict[str, Dict[str, float]]] = {}
    sections = []
    for kind in kinds:
        per_case: Dict[str, Dict[str, float]] = {}
        for system in systems:
            for engine in ("tuple", "vectorized"):
                result = runner.micro_result(system, kind, engine=engine,
                                             layout=layout)
                if result is None:
                    continue
                components = result.breakdown.components
                per_case[f"{system}/{engine}"] = {
                    "routine invocations": float(result.total_routine_invocations),
                    "computation cycles": components["TC"],
                    "L1 I-stall cycles": components["TL1I"],
                    "branch stall cycles": components["TB"],
                    "L2 D-stall cycles": components["TL2D"],
                    "total cycles": result.breakdown.total_cycles,
                }
        data[kind] = per_case
        sections.append(format_table(
            f"Engine ablation{_tag(layout)} ({QUERY_TITLES[kind]}): "
            f"tuple vs vectorized",
            ["routine invocations", "computation cycles", "L1 I-stall cycles",
             "branch stall cycles", "L2 D-stall cycles", "total cycles"],
            list(per_case.keys()), per_case, formatter=lambda v: f"{v:,.0f}"))
    return FigureResult(name=f"engine_ablation_{layout}",
                        title="Tuple vs vectorized execution",
                        data=data, text="\n\n".join(sections))


# ---------------------------------------------------------------------------
# Adaptivity: runtime decisions measured against the planner-frozen control arm
# ---------------------------------------------------------------------------
def _adaptive_figure(runner: ExperimentRunner, kind: str, name: str, title: str,
                     heading: str, layouts: Sequence[str], modes: Sequence[str],
                     metrics: Dict[str, Callable],
                     reductions: Dict[str, Sequence[str]]) -> FigureResult:
    """One adaptivity workload under every mode and layout.

    ``metrics`` maps a row label to ``result -> value``; ``reductions`` maps a
    label to the metric rows whose sum greedy reduces relative to ``static``
    (the control arm: adaptive charging, planner decisions), recorded per
    layout as the pseudo-mode ``"greedy vs static"``.
    """
    data: Dict[str, Dict[str, Dict[str, float]]] = {}
    sections = []
    for layout in layouts:
        per_mode: Dict[str, Dict[str, float]] = {}
        for mode in modes:
            result = runner.measure(adaptive_cell(kind, layout, mode))
            per_mode[mode] = {label: float(metric(result))
                              for label, metric in metrics.items()}
        sections.append(format_table(
            f"{title} ({layout.upper()}): {heading}, vectorized engine",
            list(metrics), list(per_mode.keys()), per_mode,
            formatter=lambda v: f"{v:,.0f}"))
        if "static" in per_mode and "greedy" in per_mode:
            static, greedy = per_mode["static"], per_mode["greedy"]
            versus = {
                label: 1.0 - (sum(greedy[row] for row in rows)
                              / max(sum(static[row] for row in rows), 1.0))
                for label, rows in reductions.items()}
            sections.append(format_key_values(
                f"{title} ({layout.upper()}): greedy vs static", versus))
            per_mode["greedy vs static"] = versus
        data[layout] = per_mode
    return FigureResult(name=name, title=title, data=data,
                        text="\n\n".join(sections))


def figure_adaptivity(runner: ExperimentRunner,
                      layouts: Sequence[str] = ("nsm", "pax"),
                      modes: Sequence[str] = ("off", "static", "greedy",
                                              "epsilon")) -> FigureResult:
    """Branch-misprediction and cycle effect of adaptive conjunct ordering.

    Runs the skewed-conjunct selection (a 3-conjunct filter written in the
    worst static order: ~90% pass, then a 50/50 coin flip, then the ~5%
    selective conjunct) on the vectorized engine under every adaptivity
    mode and both page layouts.  ``static`` vs ``greedy`` isolates the
    ordering effect under identical charging: the greedy policy learns
    within the first batches to evaluate the selective conjunct first, so
    the unpredictable 50/50 branch executes over ~5% of the rows instead of
    ~90% -- the misprediction reduction the paper's branch analysis
    (Section 5.3) predicts, plus the short-circuit cycle saving.
    """
    return _adaptive_figure(
        runner, "ACS", "figure_adaptivity", "Adaptivity",
        "skewed 3-conjunct selection", layouts, modes,
        metrics={
            "total cycles": lambda r: r.breakdown.total_cycles,
            "branch mispredictions":
                lambda r: r.counters.get("BR_MISS_PRED_RETIRED"),
            "branch stall cycles": lambda r: r.breakdown.components["TB"],
            "branches retired": lambda r: r.counters.get("BR_INST_RETIRED"),
            "predicate invocations":
                lambda r: r.routine_invocations.get("predicate", 0),
            "result rows": lambda r: len(r.rows),
        },
        reductions={"misprediction reduction": ("branch mispredictions",),
                    "cycle reduction": ("total cycles",)})


def figure_adaptive_joins(runner: ExperimentRunner,
                          layouts: Sequence[str] = ("nsm", "pax"),
                          modes: Sequence[str] = ("off", "static", "greedy")
                          ) -> FigureResult:
    """Cycle and memory-stall effect of adaptive hash-join side selection.

    Runs the skewed join -- the plan pins the hash build side to R, the 30x
    larger relation, simulating a stale-statistics misestimate -- under
    every adaptivity mode and both page layouts.  ``static`` is the
    cycle-identical control arm (adaptive charging, but the policy never
    flips), so ``static`` vs ``greedy`` isolates the side-selection effect:
    the greedy policy observes the warm-up run's cardinalities and builds
    on S instead, shrinking the hash table from the R working set to the S
    working set.  The win shows up exactly where the paper's memory
    analysis (Section 5.2) says table size matters: L1/L2 data stalls from
    the build's random-probe traffic, not instruction or branch behaviour.
    """
    return _adaptive_figure(
        runner, "AJS", "figure_adaptive_joins", "Adaptive joins",
        "skewed build-side misestimate", layouts, modes,
        metrics={
            "total cycles": lambda r: r.breakdown.total_cycles,
            "L1 D-stall cycles": lambda r: r.breakdown.components["TL1D"],
            "L2 D-stall cycles": lambda r: r.breakdown.components["TL2D"],
            "data memory refs": lambda r: r.counters.get("DATA_MEM_REFS"),
            "branch stall cycles": lambda r: r.breakdown.components["TB"],
            "result rows": lambda r: len(r.rows),
        },
        reductions={"cycle reduction": ("total cycles",),
                    "data-stall reduction": ("L1 D-stall cycles",
                                             "L2 D-stall cycles")})


def figure_adaptive_batching(runner: ExperimentRunner,
                             layouts: Sequence[str] = ("nsm", "pax"),
                             modes: Sequence[str] = ("off", "static", "greedy")
                             ) -> FigureResult:
    """Branch and cycle effect of adaptive batch sizing.

    Runs the 50% sequential selection from a deliberately too-small
    configured vector (32 rows) under every adaptivity mode and both page
    layouts.  ``static`` keeps the configured size under adaptive charging;
    ``greedy`` walks the bounded ladder of vector sizes from the observed
    L1D pressure per rung, so fewer, longer batches pay the per-batch
    routine and branch overhead.
    """
    return _adaptive_figure(
        runner, "ABS", "figure_adaptive_batching", "Adaptive batching",
        "50% selection from a 32-row vector", layouts, modes,
        metrics={
            "total cycles": lambda r: r.breakdown.total_cycles,
            "branch mispredictions":
                lambda r: r.counters.get("BR_MISS_PRED_RETIRED"),
            "branch stall cycles": lambda r: r.breakdown.components["TB"],
            "L1 D-stall cycles": lambda r: r.breakdown.components["TL1D"],
            "routine invocations": lambda r: r.total_routine_invocations,
            "result rows": lambda r: len(r.rows),
        },
        reductions={"misprediction reduction": ("branch mispredictions",),
                    "cycle reduction": ("total cycles",)})


# ---------------------------------------------------------------------------
# The join under a memory budget; the serving layer's counts
# ---------------------------------------------------------------------------
def join_budget(runner: ExperimentRunner, layout: str = "nsm") -> FigureResult:
    """The join under budgets of infinity, 2x, 1x and 0.5x its build side.

    Each point is one serial vectorized session (:func:`budget_cell`); the
    charged page I/O is read off the session's context.  Budgets at or
    above the build side keep the hybrid join resident (no I/O); below it
    the grace/hybrid path spills partitions through the buffer pool's
    backing store.  Result rows are identical at every budget.
    """
    s_bytes = runner.config.micro.s_bytes
    data: Dict[str, Dict[str, object]] = {}
    for kind in BUDGET_KINDS:
        cell = budget_cell(kind, layout, s_bytes)
        with runner.session(cell) as session:
            result = runner.execute(cell, session)
            budget = session.execution.memory_budget_bytes
            io_stats = dict(session.context.io_stats)
        data[kind] = {
            "cycles": result.breakdown.total_cycles,
            "rows": len(result.rows),
            "budget bytes": "inf" if budget is None else budget,
            "page reads": io_stats["page_reads"],
            "page writes": io_stats["page_writes"],
        }
    text = format_table(
        f"Join under a memory budget{_tag(layout)}: vectorized engine, "
        f"System B", list(next(iter(data.values()))), list(data), data,
        formatter=str)
    return FigureResult(name=f"join_budget_{layout}",
                        title="Join under a memory budget", data=data,
                        text=text)


def serving_counts(runner: ExperimentRunner,
                   layout: str = "nsm") -> FigureResult:
    """The open-loop mixed trace served back to back and at concurrency 8.

    ``SRV-serial`` serves the 48-query trace one query a round with the
    result cache, plan cache and shared scans off (each query's counts are
    a solo session's); ``SRV-8`` serves it eight a round with all three on.
    Only simulated counts and cache events are recorded: the rounds'
    wall-clock throughput and latency are the host benchmark's business.
    """
    trace = build_trace(runner.micro_workload, ServingTraceConfig())
    data: Dict[str, Dict[str, int]] = {}
    for kind, concurrency in SERVING_ARMS.items():
        layers = concurrency > 1
        server = runner.serving_server(
            layout, max_concurrency=concurrency, plan_cache=layers,
            result_cache=layers, shared_scans=layers)
        report = run_open_loop(server, trace)
        data[kind] = {
            "total cycles": report.total_cycles,
            "rows": report.total_rows,
            "queries": report.queries,
            "result-cache hits": report.stats["result_cache_hits"],
            "shared-scan reuses": report.stats["shared_scan_reuses"],
        }
    text = format_table(
        f"Serving counts{_tag(layout)}: {ServingTraceConfig().queries}-query "
        f"open-loop trace", list(next(iter(data.values()))), list(data), data,
        formatter=lambda v: f"{v:,}")
    return FigureResult(name=f"serving_counts_{layout}",
                        title="Serving counts", data=data, text=text)


# ---------------------------------------------------------------------------
# Headline claims (Section 1 bullets)
# ---------------------------------------------------------------------------
def headline_claims(runner: ExperimentRunner) -> FigureResult:
    """The paper's introduction bullets, recomputed from the measurements."""
    stall_shares: List[float] = []
    l1i_l2d_shares: List[float] = []
    branch_resource_shares: List[float] = []
    for profile in runner.systems():
        for kind in QUERY_KINDS:
            result = runner.micro_result(profile.key, kind)
            if result is None:
                continue
            shares = result.breakdown.shares()
            stall_shares.append(1.0 - shares["computation"])
            memory = result.breakdown.memory_shares()
            l1i_l2d_shares.append(memory["TL1I"] + memory["TL2D"])
            branch_resource_shares.append(shares["branch"])
    data = {
        "average stall share of execution time": sum(stall_shares) / len(stall_shares),
        "minimum stall share": min(stall_shares),
        "average (TL1I+TL2D) share of memory stalls": sum(l1i_l2d_shares) / len(l1i_l2d_shares),
        "minimum (TL1I+TL2D) share of memory stalls": min(l1i_l2d_shares),
        "average branch misprediction share": sum(branch_resource_shares) / len(branch_resource_shares),
    }
    text = format_key_values("Section 1: headline claims recomputed", data)
    return FigureResult(name="headline_claims", title="Headline claims", data=data, text=text)
