"""The reproduction artifact: every figure and table as data files.

This module is the measurement side of the three-command artifact pipeline
(``scripts/run_artifact.py``)::

    run_all  -- measure every figure/table once, persist raw JSON
    csv      -- derive one CSV per figure/table, verify all are non-empty
    plot     -- render PNG charts when matplotlib is installed (optional)
    diff     -- compare two CSV directories cell by cell (the count gate)

Everything measures through one shared :class:`ExperimentRunner`, so the
whole artifact costs one pass over the workloads: the microbenchmark grid
figures (5.1--5.5) per page layout, the record-size and selectivity sweeps
per layout, the TPC-D and TPC-C workloads under the modern engine matrix
(tuple vs vectorized, optional adaptivity arm), the engine
ablation, the three adaptivity experiments, the join under a memory budget,
the serving layer's counts, and the two configuration tables (4.1/4.2).

Scale presets pick the dataset sizes: ``ci`` (seconds; its CSVs are
committed under ``benchmarks/baselines/artifact_ci/`` and CI diffs every
run against them), ``small`` (a quick local run) and ``full`` (the repo's
default reduced-paper scale, still env-scalable through
``REPRO_BENCH_SCALE``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from ..analysis import artifact_io
from ..workloads.micro import MicroWorkloadConfig
from ..workloads.tpcc import TPCCConfig
from ..workloads.tpcd import TPCDConfig
from . import figures
from .runner import ExperimentConfig, ExperimentRunner

#: Page layouts every per-layout artifact covers.
LAYOUTS: Tuple[str, ...] = ("nsm", "pax")


class ArtifactError(RuntimeError):
    """A pipeline stage could not produce (or verify) its outputs."""


@dataclass(frozen=True)
class ArtifactOptions:
    """Cross-cutting knobs of the artifact run (the optional matrix arms)."""

    adaptivity: bool = False


@dataclass(frozen=True)
class ArtifactSpec:
    """One artifact: a name, its CSV schema, and how to measure it.

    ``columns`` names the flattened key path plus the trailing value
    column; its length minus one is the nesting depth of the data the
    builder returns.
    """

    name: str
    title: str
    columns: Tuple[str, ...]
    build: Callable[[ExperimentRunner, ArtifactOptions], Dict]


# ---------------------------------------------------------------------- scale
def config_for_scale(scale: str) -> ExperimentConfig:
    """The :class:`ExperimentConfig` behind one scale preset."""
    if scale == "ci":
        return ExperimentConfig(
            micro=MicroWorkloadConfig(scale=1 / 2000),
            tpcd=TPCDConfig(lineitem_rows=400, orders_rows=80,
                            part_rows=40, supplier_rows=20),
            tpcc=TPCCConfig(scale=0.004),
            tpcc_transactions=12,
            record_size_points=(48, 100),
            selectivity_points=(0.0, 0.1, 0.5),
        )
    if scale == "small":
        return ExperimentConfig(
            micro=MicroWorkloadConfig(scale=1 / 500),
            tpcd=TPCDConfig(lineitem_rows=2500, orders_rows=400,
                            part_rows=150, supplier_rows=40),
            tpcc=TPCCConfig(scale=0.02),
            tpcc_transactions=60,
        )
    if scale == "full":
        return ExperimentConfig()
    raise ArtifactError(f"unknown scale preset {scale!r}; "
                        f"expected one of: ci, small, full")


# ------------------------------------------------------------------- builders
def _per_layout(figure_fn) -> Callable[[ExperimentRunner, ArtifactOptions], Dict]:
    """Compose a single-layout figure across :data:`LAYOUTS`."""
    def build(runner: ExperimentRunner, options: ArtifactOptions) -> Dict:
        return {layout: figure_fn(runner, layout=layout).data
                for layout in LAYOUTS}
    return build


def _selectivity_sweep(runner: ExperimentRunner,
                       options: ArtifactOptions) -> Dict:
    """Full selectivity sweep per layout (System D sequential selection)."""
    data: Dict[str, Dict[str, Dict[str, float]]] = {}
    for layout in LAYOUTS:
        series = runner.selectivity_series(layout=layout)
        per_point: Dict[str, Dict[str, float]] = {}
        for selectivity, result in sorted(series.items()):
            shares = result.breakdown.component_shares()
            per_point[f"{selectivity:.2f}"] = {
                "cycles": float(result.breakdown.total_cycles),
                "CPI": result.metrics.cpi,
                "branch misprediction rate":
                    result.metrics.branch_misprediction_rate,
                "branch stall share": shares["TB"],
                "L1I stall share": shares["TL1I"],
                "rows": float(len(result.rows)),
            }
        data[layout] = per_point
    return data


def _tpcd_matrix(runner: ExperimentRunner, options: ArtifactOptions) -> Dict:
    data = figures.tpcd_matrix(runner).data
    if options.adaptivity:
        for layout in LAYOUTS:
            result = runner.tpcd_grid_result(layout, engine="vectorized",
                                             adaptivity="greedy")
            data[layout]["vectorized/adaptive"] = {
                "cycles": float(result.breakdown.total_cycles),
                "CPI": result.metrics.cpi,
                "memory stall share": result.breakdown.shares()["memory"],
                "instructions": float(result.counters.get("INST_RETIRED")),
                "routine invocations": float(result.total_routine_invocations),
            }
    return data


def _simple(figure_fn) -> Callable[[ExperimentRunner, ArtifactOptions], Dict]:
    def build(runner: ExperimentRunner, options: ArtifactOptions) -> Dict:
        return figure_fn(runner).data
    return build


#: Every artifact the pipeline produces, in paper order.
REGISTRY: Tuple[ArtifactSpec, ...] = (
    ArtifactSpec("table_4_1", "Cache characteristics",
                 ("cache level", "characteristic", "value"),
                 lambda runner, options: figures.table_4_1(runner.config.spec).data),
    ArtifactSpec("table_4_2", "Measurement methods",
                 ("component", "field", "value"),
                 lambda runner, options: figures.table_4_2().data),
    ArtifactSpec("figure_5_1", "Execution time breakdown",
                 ("layout", "query", "system", "component", "share"),
                 _per_layout(figures.figure_5_1)),
    ArtifactSpec("figure_5_2", "Memory stall breakdown",
                 ("layout", "query", "system", "component", "share"),
                 _per_layout(figures.figure_5_2)),
    ArtifactSpec("figure_5_3", "Instructions retired per record",
                 ("layout", "system", "query", "instructions_per_record"),
                 _per_layout(figures.figure_5_3)),
    ArtifactSpec("figure_5_4_left", "Branch misprediction rates",
                 ("layout", "system", "query", "misprediction_rate"),
                 _per_layout(figures.figure_5_4_left)),
    ArtifactSpec("figure_5_4_right", "Branch and L1I stalls vs selectivity",
                 ("layout", "selectivity", "component", "share"),
                 _per_layout(figures.figure_5_4_right)),
    ArtifactSpec("figure_5_5", "Resource stall split",
                 ("layout", "component", "system", "query", "share"),
                 _per_layout(figures.figure_5_5)),
    ArtifactSpec("figure_5_6", "CPI breakdown, micro vs TPC-D",
                 ("layout", "workload", "system", "component", "cpi"),
                 _per_layout(figures.figure_5_6)),
    ArtifactSpec("figure_5_7", "Cache stalls, micro vs TPC-D",
                 ("layout", "workload", "system", "component", "share"),
                 _per_layout(figures.figure_5_7)),
    ArtifactSpec("tpcc_summary", "Section 5.5 TPC-C observations",
                 ("layout", "system", "metric", "value"),
                 _per_layout(figures.tpcc_summary)),
    ArtifactSpec("record_size_sweep", "Section 5.2 record-size sweep",
                 ("layout", "system", "record_size", "metric", "value"),
                 _per_layout(figures.record_size_sweep)),
    ArtifactSpec("selectivity_sweep", "Selectivity sweep (System D, SRS)",
                 ("layout", "selectivity", "metric", "value"),
                 _selectivity_sweep),
    ArtifactSpec("tpcd_matrix", "TPC-D under the modern engine matrix",
                 ("layout", "arm", "metric", "value"), _tpcd_matrix),
    ArtifactSpec("tpcc_matrix", "TPC-C under the modern engine matrix",
                 ("layout", "arm", "metric", "value"),
                 _simple(figures.tpcc_matrix)),
    ArtifactSpec("engine_ablation", "Tuple vs vectorized execution",
                 ("layout", "query", "arm", "metric", "value"),
                 _per_layout(figures.engine_ablation)),
    ArtifactSpec("figure_adaptivity", "Adaptive conjunct reordering",
                 ("layout", "mode", "metric", "value"),
                 _simple(figures.figure_adaptivity)),
    ArtifactSpec("figure_adaptive_joins", "Adaptive join-side selection",
                 ("layout", "mode", "metric", "value"),
                 _simple(figures.figure_adaptive_joins)),
    ArtifactSpec("figure_adaptive_batching", "Adaptive batch sizing",
                 ("layout", "mode", "metric", "value"),
                 _simple(figures.figure_adaptive_batching)),
    ArtifactSpec("join_budget", "Join under a memory budget",
                 ("layout", "budget", "metric", "value"),
                 _per_layout(figures.join_budget)),
    ArtifactSpec("serving_counts", "Serving counts, serial vs concurrency 8",
                 ("layout", "arm", "metric", "value"),
                 _per_layout(figures.serving_counts)),
    ArtifactSpec("headline_claims", "Section 1 headline claims",
                 ("claim", "value"), _simple(figures.headline_claims)),
)


def spec_by_name(name: str) -> ArtifactSpec:
    for spec in REGISTRY:
        if spec.name == name:
            return spec
    raise ArtifactError(f"unknown artifact {name!r}")


# --------------------------------------------------------------------- stages
def raw_path(out_dir: Path) -> Path:
    return out_dir / "raw" / "measurements.json"


def run_all(out_dir: Path, scale: str = "full",
            options: ArtifactOptions = ArtifactOptions(),
            echo=print) -> Path:
    """Stage 1: measure every artifact and persist the raw JSON."""
    runner = ExperimentRunner(config_for_scale(scale))
    raw: Dict[str, Dict] = {}
    for spec in REGISTRY:
        echo(f"[artifact] measuring {spec.name} ...")
        data = spec.build(runner, options)
        if not data:
            raise ArtifactError(f"artifact {spec.name} produced no data")
        raw[spec.name] = {"title": spec.title, "columns": list(spec.columns),
                          "scale": scale, "data": data}
    path = raw_path(out_dir)
    artifact_io.write_raw(path, raw)
    echo(f"[artifact] wrote {path} ({len(raw)} artifacts)")
    return path


def emit_csvs(out_dir: Path, echo=print) -> List[Path]:
    """Stage 2: derive one CSV per artifact from the raw JSON and verify."""
    path = raw_path(out_dir)
    if not path.exists():
        raise ArtifactError(f"{path} not found -- run the run_all stage first")
    raw = artifact_io.read_raw(path)
    missing = [spec.name for spec in REGISTRY if spec.name not in raw]
    if missing:
        raise ArtifactError(f"raw measurements incomplete, missing: {missing}")
    written: List[Path] = []
    for spec in REGISTRY:
        rows = artifact_io.flatten(raw[spec.name]["data"], len(spec.columns) - 1)
        if not rows:
            raise ArtifactError(f"artifact {spec.name} flattened to zero rows")
        csv_path = out_dir / "csv" / f"{spec.name}.csv"
        artifact_io.write_csv(csv_path, spec.columns, rows)
        written.append(csv_path)
        echo(f"[artifact] wrote {csv_path} ({len(rows)} rows)")
    empty = [str(p) for p in written if p.stat().st_size == 0]
    if empty:
        raise ArtifactError(f"empty CSVs: {empty}")
    return written


def diff_csvs(before: Path, after: Path) -> List[str]:
    """The count gate: every difference between two CSV directories.

    Both directories must exist and ``before`` (the baseline) must hold at
    least one CSV.  A CSV on one side only is a difference, and so is every
    line :func:`~repro.analysis.artifact_io.diff_table` reports for a CSV
    on both; an empty list means the two sets are identical.
    """
    for directory in (before, after):
        if not directory.is_dir():
            raise ArtifactError(f"{directory} is not a directory")
    names = {path.name for path in before.glob("*.csv")}
    other_names = {path.name for path in after.glob("*.csv")}
    if not names:
        raise ArtifactError(f"{before} holds no CSVs to compare against")
    lines = [f"{name}: missing from {after}"
             for name in sorted(names - other_names)]
    lines += [f"{name}: not in {before}" for name in sorted(other_names - names)]
    for name in sorted(names & other_names):
        lines += artifact_io.diff_table(
            Path(name).stem, artifact_io.read_csv(before / name),
            artifact_io.read_csv(after / name))
    return lines


def render_plots(out_dir: Path, echo=print) -> List[Path]:
    """Stage 3 (optional): render PNG charts from the raw JSON."""
    path = raw_path(out_dir)
    if not path.exists():
        raise ArtifactError(f"{path} not found -- run the run_all stage first")
    if not artifact_io.matplotlib_available():
        echo("[artifact] matplotlib not installed -- skipping plots "
             "(CSVs are the canonical artifact)")
        return []
    raw = artifact_io.read_raw(path)
    rendered: List[Path] = []
    for spec in REGISTRY:  # pragma: no cover - needs matplotlib
        if spec.name not in raw:
            continue
        rows = artifact_io.flatten(raw[spec.name]["data"], len(spec.columns) - 1)
        png = out_dir / "plots" / f"{spec.name}.png"
        if artifact_io.render_plot(spec.name, spec.title, spec.columns, rows, png):
            rendered.append(png)
            echo(f"[artifact] wrote {png}")
    return rendered  # pragma: no cover - needs matplotlib
