"""Tests for the experiment runner and figure reproductions (small scale).

These tests verify the *plumbing* of the experiment harness -- caching, figure
structure, labels, text rendering -- on tiny datasets.  The quantitative
"shape" claims of the paper are asserted by the benchmarks, which run at the
calibrated benchmark scale.
"""

import pytest

from repro.experiments import (ExperimentConfig, ExperimentRunner, figure_5_1,
                               figure_5_2, figure_5_3, figure_5_4_left,
                               figure_5_4_right, figure_5_5, figure_5_6, figure_5_7,
                               headline_claims, record_size_sweep, table_4_1, table_4_2,
                               tpcc_summary)
from repro.experiments.runner import QUERY_KINDS
from repro.systems import ALL_SYSTEMS
from repro.workloads import MicroWorkloadConfig, TPCCConfig, TPCDConfig

from test_sweep_properties import measured_in_order

CONFIG = ExperimentConfig(
    micro=MicroWorkloadConfig(scale=1 / 2000, minimum_r_rows=600),
    tpcd=TPCDConfig(lineitem_rows=400, orders_rows=40, part_rows=20, supplier_rows=10),
    tpcc=TPCCConfig(scale=1 / 300, users=4),
    tpcc_transactions=8,
    selectivity_points=(0.0, 0.10, 0.50),
    record_size_points=(20, 100),
    record_size_systems=("C",),
)


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    return ExperimentRunner(CONFIG)


class TestRunner:
    def test_results_are_cached(self, runner):
        first = runner.micro_result("B", "SRS")
        second = runner.micro_result("B", "SRS")
        assert first is second

    def test_system_a_irs_is_none(self, runner):
        assert runner.micro_result("A", "IRS") is None
        assert runner.micro_result("B", "IRS") is not None

    def test_unknown_kind_rejected(self, runner):
        with pytest.raises(ValueError):
            runner.micro_result("B", "XYZ")

    def test_query_answers_match_ground_truth(self, runner):
        result = runner.micro_result("C", "SRS")
        expected = runner.micro_workload.expected_average(runner.config.selectivity)
        assert result.scalar == pytest.approx(expected)

    def test_selectivity_series_keys(self, runner):
        series = runner.selectivity_series("D", "SRS")
        assert set(series) == {0.0, 0.10, 0.50}

    def test_record_size_series_uses_separate_databases(self, runner):
        series = runner.record_size_series()
        assert set(series) == {("C", 20), ("C", 100)}
        sizes = {size: result.counters.get("RECORDS_PROCESSED")
                 for (_, size), result in series.items()}
        assert sizes[20] == sizes[100]          # same row count, different record size

    def test_tpcd_and_tpcc_results(self, runner):
        tpcd = runner.tpcd_grid_result("nsm", "B", engine="tuple")
        assert tpcd.queries_in_unit == 17
        tpcc = runner.tpcc_grid_result("nsm", "B", engine="tuple")
        assert tpcc.transactions == 8
        assert tpcc.metrics.cpi > 0

    def test_default_results_independent_of_measurement_order(self):
        """The eleven Figure 5.1 cells through the default call, in paper
        order and in reverse, on two fresh runners: equal cell by cell."""
        cells = [(profile.key, kind) for kind in QUERY_KINDS
                 for profile in ALL_SYSTEMS
                 if kind != "IRS" or profile.uses_index_for_range_selection]
        assert len(cells) == 11

        def measure(runner, cell):
            result = runner.micro_result(*cell)
            return result.rows, result.counters.as_dict()
        assert (measured_in_order(CONFIG, cells, measure)
                == measured_in_order(CONFIG, cells[::-1], measure))


class TestFigures:
    def test_table_4_1_and_4_2(self):
        t41 = table_4_1()
        assert "512KB" in t41.text and "4-way" in t41.text
        t42 = table_4_2()
        assert "17 cycles" in t42.text and "TL2D" in t42.text

    def test_figure_5_1_structure(self, runner):
        figure = figure_5_1(runner)
        assert set(figure.data) == {"SRS", "IRS", "SJ"}
        assert set(figure.data["SRS"]) == {"A", "B", "C", "D"}
        assert set(figure.data["IRS"]) == {"B", "C", "D"}            # A excluded
        for shares in figure.data["SRS"].values():
            assert sum(shares.values()) == pytest.approx(1.0)
        assert "Figure 5.1" in figure.text

    def test_figure_5_2_structure(self, runner):
        figure = figure_5_2(runner)
        for kind in ("SRS", "IRS", "SJ"):
            for shares in figure.data[kind].values():
                assert sum(shares.values()) == pytest.approx(1.0)
        assert "L1 I-stalls" in figure.text

    def test_figure_5_3_divisors(self, runner):
        figure = figure_5_3(runner)
        srs_b = figure.data["B"]["SRS"]
        irs_b = figure.data["B"]["IRS"]
        # IRS is normalised by *selected* records, so it is much larger than
        # the per-R-record SRS value at 10% selectivity.
        assert irs_b > srs_b
        assert "A" in figure.data and "IRS" not in figure.data["A"]

    def test_figure_5_4(self, runner):
        left = figure_5_4_left(runner)
        assert 0.0 < left.data["C"]["SRS"] < 0.5
        right = figure_5_4_right(runner, system_key="D")
        assert set(right.data) == {"0%", "10%", "50%"}
        for shares in right.data.values():
            assert set(shares) == {"Branch mispred. stalls", "L1 I-cache stalls"}

    def test_figure_5_5(self, runner):
        figure = figure_5_5(runner)
        assert set(figure.data) == {"TDEP", "TFU"}
        assert figure.data["TDEP"]["B"]["SRS"] > 0

    def test_figure_5_6_and_5_7(self, runner):
        f6 = figure_5_6(runner, systems=("A", "B"))
        assert set(f6.data["SRS"]) == {"A", "B"}
        for cpi in f6.data["SRS"].values():
            assert cpi["total"] > 0
        f7 = figure_5_7(runner, systems=("A", "B"))
        for shares in f7.data["TPC-D"].values():
            assert sum(shares.values()) == pytest.approx(1.0)

    def test_tpcc_summary(self, runner):
        figure = tpcc_summary(runner, systems=("B",))
        assert figure.data["B"]["CPI"] > 0
        assert 0.0 < figure.data["B"]["memory stall share"] < 1.0

    def test_record_size_sweep(self, runner):
        figure = record_size_sweep(runner)
        assert set(figure.data) == {"C"}
        assert set(figure.data["C"]) == {"20B", "100B"}

    def test_headline_claims(self, runner):
        figure = headline_claims(runner)
        assert 0.0 < figure.data["average stall share of execution time"] < 1.0
        assert 0.0 < figure.data["average (TL1I+TL2D) share of memory stalls"] <= 1.0
