"""Tests of the benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest bench -q

Every workload runs at its ``--smoke`` size in a subprocess, exactly as the
driver would start it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import spans  # noqa: E402
import workloads  # noqa: E402

RUN = os.path.join(HERE, "run.py")
COMPARE = os.path.join(HERE, "compare.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def run_bench(*arguments: str) -> dict:
    done = subprocess.run([sys.executable, RUN, *arguments], check=True,
                          capture_output=True, text=True, timeout=180)
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_json_names_the_workloads_the_code_defines():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb",
        "sim_cycles"}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_declared_metric(workload, trace):
    result = run_bench("--workload", workload, "--smoke",
                       "--trace", str(trace))
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: cell["unit"] for name, cell in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in section}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if not trace:
        assert all(cell["value"] > 0 for cell in result["metrics"].values())


@pytest.mark.parametrize("factory", (workloads.PaperTuple,
                                     workloads.ServeRepeat))
def test_self_times_add_up_and_wrapped_attributes_come_back(factory):
    targets = spans.boundary_targets()
    originals = [vars(target)[attr] for _, target, attr, _ in targets]
    workload = factory(smoke=True)
    workload.setup()
    recorder = spans.Recorder()
    workload.spans = recorder
    with spans.tracing(recorder):
        assert any(vars(target)[attr] is not original
                   for (_, target, attr, _), original
                   in zip(targets, originals))
        result = workload.run_pass(0)
    assert all(record.seconds is not None for record in result.ops)

    accounts = recorder.op_accounts()
    assert accounts
    for root_seconds, self_seconds in accounts.values():
        assert self_seconds == pytest.approx(root_seconds, rel=0.01)
    layers_seen = {name.split(":", 1)[0] for name in recorder.name_totals()}
    assert {"hardware.construct", "engine.session_init"} <= layers_seen

    for (_, target, attr, _), original in zip(targets, originals):
        assert vars(target)[attr] is original


@pytest.mark.parametrize("factory", (workloads.TpcMix, workloads.ServeFresh,
                                     workloads.ServeRepeat))
def test_the_seed_decides_the_generated_inputs(factory):
    def inputs(seed: int) -> bytes:
        workload = factory(seed, smoke=True)
        workload.setup()
        return workload.inputs().encode()

    assert inputs(11) == inputs(11)
    assert inputs(11) != inputs(12)


@pytest.fixture(scope="module")
def results_file(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("bench") / "A.json")
    run_bench("--workload", "serve_repeat", "--smoke", "--out", path)
    return path


def test_a_corrupted_pin_is_a_failed_op(tmp_path):
    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)
    pins = expected["workloads"]["serve_repeat"]
    pins[sorted(pins)[0]][0] ^= 1
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    result = run_bench("--workload", "serve_repeat", "--smoke",
                       "--expected", str(corrupted))
    assert result["failed"] > 0 and not result["correct"]


def test_compare_passes_equal_runs_and_flags_a_breach(results_file, tmp_path):
    def compare(other: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, COMPARE, results_file, other],
                              capture_output=True, text=True)

    same = compare(results_file)
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout

    with open(results_file) as handle:
        slower = json.load(handle)
    cell = slower["runs"][0]["workloads"]["serve_repeat"]["end_to_end"]
    cell["metrics"]["ops_per_s"]["value"] *= 0.5
    path = tmp_path / "B.json"
    path.write_text(json.dumps(slower))
    breach = compare(str(path))
    assert breach.returncode == 1
    assert "regressed" in breach.stdout

    cell["metrics"]["ops_per_s"]["value"] /= 0.5
    cell["failed"] += 1
    path.write_text(json.dumps(slower))
    assert compare(str(path)).returncode == 1
