"""Integration tests: the paper's qualitative claims at reduced (test) scale.

The full quantitative reproduction runs in ``benchmarks/`` at the calibrated
benchmark scale; these integration tests assert the claims that already hold
at a much smaller scale (so the unit-test suite stays fast) and exercise the
whole stack -- workload, planner, executor, simulated hardware, breakdown --
end to end.
"""

import pytest

from repro.engine import Session
from repro.experiments import ExperimentConfig, ExperimentRunner
from repro.systems import ALL_SYSTEMS, SYSTEM_A, SYSTEM_B
from repro.workloads import MicroWorkloadConfig, TPCCConfig, TPCDConfig

#: A slightly larger scale than the unit tests (R = ~1,500 rows, 150 KB) so
#: that cache effects are visible but the suite stays quick.
INTEGRATION_SCALE = 1.0 / 800.0


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    config = ExperimentConfig(
        micro=MicroWorkloadConfig(scale=INTEGRATION_SCALE),
        tpcd=TPCDConfig(lineitem_rows=600, orders_rows=60, part_rows=30, supplier_rows=10),
        tpcc=TPCCConfig(scale=1 / 150, users=10),
        tpcc_transactions=12,
    )
    return ExperimentRunner(config)


class TestCrossSystemConsistency:
    def test_all_systems_compute_the_same_answers(self, runner):
        """The four 'vendors' differ in how they execute, never in what they return."""
        for kind in ("SRS", "SJ"):
            answers = []
            for profile in ALL_SYSTEMS:
                result = runner.micro_result(profile.key, kind)
                answers.append(result.scalar)
            assert all(answer == pytest.approx(answers[0]) for answer in answers)

    def test_indexed_and_sequential_selection_agree(self, runner):
        srs = runner.micro_result("B", "SRS")
        irs = runner.micro_result("B", "IRS")
        assert srs.scalar == pytest.approx(irs.scalar)

    def test_join_aggregate_matches_ground_truth(self, runner):
        workload = runner.micro_workload
        s_keys = {a1 for a1, _, _ in workload.generate_s_rows()}
        matching = [a3 for _, a2, a3 in workload.generate_r_rows() if a2 in s_keys]
        expected = sum(matching) / len(matching)
        assert runner.micro_result("C", "SJ").scalar == pytest.approx(expected)


class TestPaperQualitativeClaims:
    def test_computation_is_less_than_half_of_execution_time(self, runner):
        for profile in ALL_SYSTEMS:
            for kind in ("SRS", "IRS", "SJ"):
                result = runner.micro_result(profile.key, kind)
                if result is None:
                    continue
                assert result.breakdown.shares()["computation"] < 0.55, (
                    f"{profile.key}/{kind}: computation share unexpectedly high")

    def test_l1d_l2i_itlb_are_minor_memory_components(self, runner):
        for profile in ALL_SYSTEMS:
            result = runner.micro_result(profile.key, "SRS")
            memory = result.breakdown.memory_shares()
            # At this reduced scale the first (cold) pass over the code pool
            # contributes compulsory L2 instruction misses, so the TL2I share
            # of TM is visible here; the benchmark-scale run drives it to the
            # paper's "insignificant" level.
            assert memory["TL2I"] < 0.25
            assert memory["TITLB"] < 0.10
            # L1 D-cache stalls are insignificant relative to execution time
            # (at this reduced scale they can be a visible *fraction of TM*
            # only because TL2D shrinks with the dataset).
            l1d_of_total = (result.breakdown.components["TL1D"]
                            / result.breakdown.estimated_total)
            assert l1d_of_total < 0.08

    def test_l1d_miss_rate_stays_small(self, runner):
        """The paper reports ~2% L1 D-cache miss rates, never above 4%."""
        for profile in ALL_SYSTEMS:
            for kind in ("SRS", "SJ"):
                result = runner.micro_result(profile.key, kind)
                assert result.metrics.l1d_miss_rate < 0.05

    def test_system_a_retires_fewest_instructions_per_record_on_srs(self, runner):
        per_record = {p.key: runner.micro_result(p.key, "SRS").metrics.instructions_per_record
                      for p in ALL_SYSTEMS}
        assert per_record["A"] == min(per_record.values())

    def test_system_a_has_highest_resource_stall_share(self, runner):
        shares = {p.key: runner.micro_result(p.key, "SRS").breakdown.shares()["resource"]
                  for p in ALL_SYSTEMS}
        assert shares["A"] == max(shares.values())

    def test_system_b_has_fewest_l2_data_misses_per_record(self, runner):
        misses = {p.key: runner.micro_result(p.key, "SRS").metrics.l2_data_misses_per_record
                  for p in ALL_SYSTEMS}
        assert misses["B"] == min(misses.values())

    def test_branch_fraction_is_about_twenty_percent(self, runner):
        for profile in ALL_SYSTEMS:
            result = runner.micro_result(profile.key, "SRS")
            assert 0.15 <= result.metrics.branch_fraction <= 0.25

    def test_btb_misses_about_half_the_time(self, runner):
        for profile in ALL_SYSTEMS:
            result = runner.micro_result(profile.key, "SRS")
            assert 0.35 <= result.metrics.btb_miss_rate <= 0.70

    def test_workload_is_latency_bound_not_bandwidth_bound(self, runner):
        for profile in ALL_SYSTEMS:
            result = runner.micro_result(profile.key, "SRS")
            assert result.metrics.memory_bandwidth_utilisation < 1.0 / 3.0

    def test_branch_and_l1i_stalls_rise_with_selectivity(self, runner):
        series = runner.selectivity_series("D", "SRS", selectivities=(0.0, 0.5))
        low = series[0.0].breakdown.component_shares()
        high = series[0.5].breakdown.component_shares()
        assert high["TB"] > low["TB"]

    def test_tpcc_has_higher_cpi_than_the_microbenchmark(self, runner):
        srs_cpi = runner.micro_result("B", "SRS").metrics.cpi
        tpcc_cpi = runner.tpcc_grid_result("nsm", "B", engine="tuple").metrics.cpi
        assert tpcc_cpi > srs_cpi

    def test_tpcc_memory_stalls_dominated_by_l2(self, runner):
        tpcc = runner.tpcc_grid_result("nsm", "B", engine="tuple")
        memory = tpcc.breakdown.memory_shares()
        assert memory["TL2D"] + memory["TL2I"] > memory["TL1D"] + memory["TL1I"]


class TestMeasurementConsistency:
    def test_counter_snapshot_is_reproducible_for_identical_runs(self, runner):
        """Two fresh sessions measuring the same query agree on the counters.

        The instruction-stream and branch counters are exactly reproducible;
        the cache-dependent counters (and therefore the cycle total) may vary
        marginally because each session lays its code and workspace out at
        fresh addresses in the shared simulated address space, which perturbs
        conflict misses slightly.
        """
        workload = runner.micro_workload
        database, _ = runner.grid_database("nsm")
        query = workload.sequential_range_selection(0.10)
        first = Session(database, SYSTEM_B, os_interference=None).execute(query, warmup_runs=0)
        second = Session(database, SYSTEM_B, os_interference=None).execute(query, warmup_runs=0)
        for event in ("INST_RETIRED", "UOPS_RETIRED", "DATA_MEM_REFS", "BR_INST_RETIRED",
                      "RECORDS_PROCESSED", "IFU_IFETCH"):
            assert first.counters.get(event) == second.counters.get(event), event
        assert first.counters.get("CPU_CLK_UNHALTED") == pytest.approx(
            second.counters.get("CPU_CLK_UNHALTED"), rel=0.01)

    def test_breakdown_components_bound_measured_cycles(self, runner):
        """Component estimates are upper bounds: their sum >= measured cycles."""
        for profile in (SYSTEM_A, SYSTEM_B):
            result = runner.micro_result(profile.key, "SRS")
            assert result.breakdown.estimated_total >= result.breakdown.total_cycles

    def test_instructions_per_record_close_to_profile_prediction(self, runner):
        """Simulated instruction counts agree with the analytical path model."""
        profile = SYSTEM_B
        result = runner.micro_result("B", "SRS")
        workload = runner.micro_workload
        rows = workload.config.r_rows
        selected = workload.expected_selected_rows(0.10)
        records_per_page = runner.grid_database("nsm")[0].table("R").heap.records_per_page
        predicted = profile.path_instructions({
            "scan_next": 1.0,
            "predicate": 1.0,
            "agg_update": selected / rows,
            "page_boundary": 1.0 / records_per_page,
        })
        measured = result.metrics.instructions_per_record
        assert measured == pytest.approx(predicted, rel=0.15)
