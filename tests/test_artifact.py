"""End-to-end tests for the reproduction artifact and its count gate.

Drives the full pipeline (:mod:`repro.experiments.artifact`) at the CI
scale preset into a temporary directory -- exactly what the ``count-gate``
CI job and ``scripts/run_artifact.py all --scale ci`` do -- and pins the
contract each stage provides:

* ``run_all`` measures every registered artifact and persists raw JSON;
* ``csv`` derives one non-empty CSV per artifact (the canonical outputs),
  failing loudly on missing or incomplete raw data;
* ``plot`` is a graceful no-op without matplotlib (never an error);
* ``diff`` finds no difference against the committed ``--scale ci``
  baseline (``benchmarks/baselines/artifact_ci/``), and fails on any
  changed value, header, row or file.

The measurement pass is module-scoped: one CI-scale run (~seconds)
backs every assertion.
"""

from __future__ import annotations

import csv
import json
import shutil
import threading
from pathlib import Path

import pytest

from repro.analysis import artifact_io
from repro.experiments import artifact
from repro.experiments.artifact import (ArtifactError, LAYOUTS, REGISTRY,
                                        config_for_scale,
                                        diff_csvs, emit_csvs, render_plots,
                                        run_all, raw_path, spec_by_name)
from repro.experiments.runner import ExperimentRunner, budget_cell

SILENT = lambda *args, **kwargs: None  # noqa: E731 - quiet echo for tests

#: The committed ``--scale ci`` CSVs: the count gate's baseline.
BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines" / "artifact_ci"


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    """One CI-scale run_all + csv pass shared by the module's tests."""
    out = tmp_path_factory.mktemp("artifact")
    run_all(out, scale="ci", echo=SILENT)
    emit_csvs(out, echo=SILENT)
    return out


def expected_csvs(out_dir: Path):
    return [out_dir / "csv" / f"{spec.name}.csv" for spec in REGISTRY]


def csv_rows(out_dir: Path, name: str):
    """``{key path: value}`` of one CSV of a run."""
    _, rows = artifact_io.read_csv(out_dir / "csv" / f"{name}.csv")
    return {tuple(row[:-1]): row[-1] for row in rows}


# --------------------------------------------------------------- count gate
def test_ci_run_matches_the_committed_baseline(artifact_dir):
    """The count gate in tier-1: every simulated count of the ci artifact
    equals the committed baseline's.  A designed count change regenerates
    the baseline (``run_artifact.py all --scale ci``, copy ``csv/*.csv``)
    in the same change and names every cell that moved."""
    assert diff_csvs(BASELINE, artifact_dir / "csv") == []


def test_the_baseline_holds_one_csv_per_registered_artifact():
    assert sorted(path.name for path in BASELINE.glob("*.csv")) == sorted(
        f"{spec.name}.csv" for spec in REGISTRY)


@pytest.mark.parametrize("name", [spec.name for spec in REGISTRY])
def test_ci_table_matches_the_committed_baseline(artifact_dir, name):
    """The gate one table at a time, so a failure names the table."""
    csv_name = f"{name}.csv"
    assert artifact_io.diff_table(
        name, artifact_io.read_csv(BASELINE / csv_name),
        artifact_io.read_csv(artifact_dir / "csv" / csv_name)) == []


@pytest.fixture
def baseline_copy(tmp_path):
    copy = tmp_path / "csv"
    shutil.copytree(BASELINE, copy)
    return copy


def rewrite(path: Path, edit) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def test_diff_of_identical_directories_is_empty(baseline_copy):
    assert diff_csvs(BASELINE, baseline_copy) == []


def test_diff_names_the_artifact_row_and_column_of_a_changed_value(
        baseline_copy):
    def bump(rows):
        row = rows.index(["nsm", "SJB-0.5x", "page writes", "182"])
        rows[row][-1] = "183"
    rewrite(baseline_copy / "join_budget.csv", bump)
    assert diff_csvs(BASELINE, baseline_copy) == [
        "join_budget [nsm, SJB-0.5x, page writes] value: 182 -> 183 (+1)"]


@pytest.mark.parametrize("name", [spec.name for spec in REGISTRY])
def test_diff_names_a_changed_value_in_every_table(baseline_copy, name):
    """Every table's key width is read from its own rows: one changed value
    in the middle of any table is one line naming its full key path."""
    changed = {}

    def edit(rows):
        row = rows[1 + (len(rows) - 1) // 2]
        changed.update(header=rows[0], key=row[:-1], old=row[-1])
        row[-1] += "x"
    rewrite(baseline_copy / f"{name}.csv", edit)
    key, old = ", ".join(changed["key"]), changed["old"]
    assert diff_csvs(BASELINE, baseline_copy) == [
        f"{name} [{key}] {changed['header'][-1]}: {old} -> {old}x"]


def test_diff_reports_a_float_delta(baseline_copy):
    def bump(rows):
        rows[1][-1] = str(float(rows[1][-1]) + 0.5)
    rewrite(baseline_copy / "join_budget.csv", bump)
    (line,) = diff_csvs(BASELINE, baseline_copy)
    assert line.endswith("(+0.5)")


def test_diff_fails_on_a_missing_or_extra_csv(baseline_copy):
    (baseline_copy / "serving_counts.csv").rename(baseline_copy / "extra.csv")
    assert diff_csvs(BASELINE, baseline_copy) == [
        f"serving_counts.csv: missing from {baseline_copy}",
        f"extra.csv: not in {BASELINE}"]


def test_diff_fails_on_a_missing_row(baseline_copy):
    rewrite(baseline_copy / "join_budget.csv", lambda rows: rows.pop())
    assert diff_csvs(BASELINE, baseline_copy) == [
        "join_budget [pax, SJB-0.5x, page writes]: row missing"]


def test_diff_fails_on_an_extra_row(baseline_copy):
    rewrite(baseline_copy / "join_budget.csv",
            lambda rows: rows.append(["pax", "SJB-0.1x", "cycles", "1"]))
    assert diff_csvs(BASELINE, baseline_copy) == [
        "join_budget [pax, SJB-0.1x, cycles]: extra row"]


def test_diff_fails_on_a_duplicated_row(baseline_copy):
    rewrite(baseline_copy / "join_budget.csv",
            lambda rows: rows.append(list(rows[1])))
    assert diff_csvs(BASELINE, baseline_copy) == [
        "join_budget: duplicate row keys after"]


def test_diff_fails_on_a_changed_header(baseline_copy):
    def rename(rows):
        rows[0][-1] = "count"
    rewrite(baseline_copy / "serving_counts.csv", rename)
    (line,) = diff_csvs(BASELINE, baseline_copy)
    assert line.startswith("serving_counts: header")


def test_diff_fails_on_reordered_rows(baseline_copy):
    def swap(rows):
        rows[1], rows[2] = rows[2], rows[1]
    rewrite(baseline_copy / "serving_counts.csv", swap)
    assert diff_csvs(BASELINE, baseline_copy) == [
        "serving_counts: rows in a different order"]


def test_diff_refuses_a_missing_directory_or_an_empty_baseline(tmp_path):
    with pytest.raises(ArtifactError, match="not a directory"):
        diff_csvs(tmp_path / "absent", BASELINE)
    with pytest.raises(ArtifactError, match="no CSVs"):
        diff_csvs(tmp_path, BASELINE)


# ----------------------------------------------------------- the new tables
def test_join_budget_spills_only_below_the_build_size(artifact_dir):
    rows = csv_rows(artifact_dir, "join_budget")
    for layout in LAYOUTS:
        assert int(rows[(layout, "SJB-0.5x", "page writes")]) > 0
        for kind in ("SJB-inf", "SJB-2x", "SJB-1x"):
            assert rows[(layout, kind, "page writes")] == "0"
            assert rows[(layout, kind, "page reads")] == "0"


def test_serving_hits_every_repeat_from_the_result_cache(artifact_dir):
    rows = csv_rows(artifact_dir, "serving_counts")
    for layout in LAYOUTS:
        assert rows[(layout, "SRV-8", "result-cache hits")] == "43"
        assert rows[(layout, "SRV-serial", "result-cache hits")] == "0"
        assert (rows[(layout, "SRV-8", "rows")]
                == rows[(layout, "SRV-serial", "rows")])


def test_unbudgeted_join_is_the_plain_join():
    """``memory_budget_bytes=None`` is a structural bypass: the ``SJB-inf``
    cell equals the plain vectorized ``SJ`` cell in rows and counters."""
    runner = ExperimentRunner(config_for_scale("ci"))
    for layout in LAYOUTS:
        budgeted = runner.measure(
            budget_cell("SJB-inf", layout, runner.config.micro.s_bytes))
        plain = runner.micro_result("B", "SJ", engine="vectorized",
                                    layout=layout)
        assert budgeted.rows == plain.rows
        assert budgeted.counters.as_dict() == plain.counters.as_dict()


def test_budgeted_join_without_spills_rebatches_its_output():
    """Pinned, not fixed: a budget the build side fits in (``SJB-2x``,
    ``SJB-1x``) costs fewer cycles than no budget (``SJB-inf``, the plain
    join) though neither spills -- 642,503 against 658,872 at ``ci`` on
    NSM.  Rows, page I/O and every other routine's invocations are equal;
    the whole difference is the output schedule.  The plain join emits one
    joined batch per probe batch with a match (8); the budgeted path
    collects every pair and emits them ``batch_size`` at a time
    (``_emit_pairs``: 3), so ``join_output`` and ``agg_update`` each run 5
    fewer interpreted invocations.  The budgeted side departs from the
    streaming join its docstring says it reproduces; mending it moves
    counts, so this test changes with that fix."""
    runner = ExperimentRunner(config_for_scale("ci"))
    measured = {}
    for kind in ("SJB-inf", "SJB-2x", "SJB-1x"):
        cell = budget_cell(kind, "nsm", runner.config.micro.s_bytes)
        session = runner.session(cell)
        result = runner.execute(cell, session)
        context = session.context
        measured[kind] = (result.rows, dict(context.op_invocations),
                          dict(context.io_stats))
    plain_rows, plain_calls, plain_io = measured["SJB-inf"]
    assert not plain_io["page_reads"] and not plain_io["page_writes"]
    for kind in ("SJB-2x", "SJB-1x"):
        rows, calls, io = measured[kind]
        assert rows == plain_rows and io == plain_io
        differing = {name: (plain_calls.get(name), calls.get(name))
                     for name in set(plain_calls) | set(calls)
                     if plain_calls.get(name) != calls.get(name)}
        assert differing == {"join_output": (8, 3), "agg_update": (8, 3)}


def test_counts_do_not_depend_on_host_load(artifact_dir, tmp_path):
    """A second run beside a busy loop writes identical CSVs: the serving
    table's admission rounds follow wall-clock service times, its counts
    must not."""
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    busy = threading.Thread(target=spin, daemon=True)
    busy.start()
    try:
        run_all(tmp_path, scale="ci", echo=SILENT)
    finally:
        stop.set()
        busy.join(timeout=10)
    assert not busy.is_alive()
    emit_csvs(tmp_path, echo=SILENT)
    assert diff_csvs(artifact_dir / "csv", tmp_path / "csv") == []


# ----------------------------------------------------------------- pipeline
def test_raw_measurements_cover_every_registered_artifact(artifact_dir):
    raw = artifact_io.read_raw(raw_path(artifact_dir))
    assert sorted(raw) == sorted(spec.name for spec in REGISTRY)
    for spec in REGISTRY:
        entry = raw[spec.name]
        assert entry["title"] == spec.title
        assert entry["columns"] == list(spec.columns)
        assert entry["scale"] == "ci"
        assert entry["data"], f"{spec.name} measured no data"


def test_every_expected_csv_exists_and_is_non_empty(artifact_dir):
    paths = expected_csvs(artifact_dir)
    assert len(paths) == len(REGISTRY)
    for path in paths:
        assert path.exists(), f"missing {path.name}"
        assert path.stat().st_size > 0, f"empty {path.name}"


def test_csvs_carry_headers_and_data_rows(artifact_dir):
    for spec in REGISTRY:
        with open(artifact_dir / "csv" / f"{spec.name}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(spec.columns), f"{spec.name} header mismatch"
        assert len(rows) > 1, f"{spec.name} has no data rows"
        assert all(len(row) == len(spec.columns) for row in rows[1:]), \
            f"{spec.name} has ragged rows"


def test_per_layout_artifacts_cover_both_layouts(artifact_dir):
    raw = artifact_io.read_raw(raw_path(artifact_dir))
    for name in ("figure_5_3", "figure_5_6", "tpcc_summary",
                 "record_size_sweep", "selectivity_sweep",
                 "tpcd_matrix", "tpcc_matrix", "engine_ablation",
                 "figure_adaptive_batching", "join_budget", "serving_counts"):
        assert sorted(raw[name]["data"]) == ["nsm", "pax"], \
            f"{name} missing a layout"


def test_plot_stage_is_graceful_without_matplotlib(artifact_dir):
    if artifact_io.matplotlib_available():
        pytest.skip("matplotlib installed; the no-op path is untestable")
    messages = []
    rendered = render_plots(artifact_dir, echo=messages.append)
    assert rendered == []
    assert any("matplotlib" in message for message in messages)
    assert not (artifact_dir / "plots").exists()


def test_csv_stage_is_rederivable_from_raw(artifact_dir, tmp_path):
    """csv re-runs from persisted raw JSON alone (stage separability)."""
    other = tmp_path / "rederived"
    other.mkdir()
    (other / "raw").mkdir()
    raw = raw_path(artifact_dir).read_text()
    raw_path(other).write_text(raw)
    written = emit_csvs(other, echo=SILENT)
    for path, original in zip(written, expected_csvs(artifact_dir)):
        assert path.read_text() == original.read_text()


# -------------------------------------------------------------- error paths
def test_csv_stage_requires_raw_measurements(tmp_path):
    with pytest.raises(ArtifactError, match="run_all"):
        emit_csvs(tmp_path, echo=SILENT)


def test_plot_stage_requires_raw_measurements(tmp_path):
    with pytest.raises(ArtifactError, match="run_all"):
        render_plots(tmp_path, echo=SILENT)


def test_csv_stage_rejects_incomplete_raw(artifact_dir, tmp_path):
    raw = json.loads(raw_path(artifact_dir).read_text())
    del raw["figure_5_1"]
    (tmp_path / "raw").mkdir()
    raw_path(tmp_path).write_text(json.dumps(raw))
    with pytest.raises(ArtifactError, match="figure_5_1"):
        emit_csvs(tmp_path, echo=SILENT)


def test_unknown_scale_preset_is_an_artifact_error():
    with pytest.raises(ArtifactError, match="unknown scale"):
        config_for_scale("huge")


def test_unknown_spec_name_is_an_artifact_error():
    with pytest.raises(ArtifactError, match="unknown artifact"):
        spec_by_name("figure_9_9")


# ------------------------------------------------------------------ helpers
def test_flatten_rejects_depth_mismatches():
    with pytest.raises(ValueError, match="deeper"):
        artifact_io.flatten({"a": {"b": 1}}, depth=1)
    with pytest.raises(ValueError, match="shallower"):
        artifact_io.flatten({"a": 1}, depth=2)


def test_flatten_preserves_insertion_order():
    data = {"z": {"second": 2, "first": 1}, "a": {"x": 3}}
    assert artifact_io.flatten(data, depth=2) == [
        ("z", "second", 2), ("z", "first", 1), ("a", "x", 3)]


def test_registry_names_are_unique():
    names = [spec.name for spec in REGISTRY]
    assert len(names) == len(set(names))
