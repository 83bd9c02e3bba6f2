"""Tests for the execution-time breakdown framework, metrics and report rendering."""

import pytest

from repro.analysis import (COMPONENTS, ExecutionBreakdown, GROUPS, MEMORY_COMPONENTS,
                            TABLE_4_2, compute_metrics, cpi_breakdown)
from repro.analysis.breakdown import BreakdownError
from repro.analysis.report import (format_key_values, format_percentage,
                                   format_stacked_bars, format_table)
from repro.hardware import EventCounters, PENTIUM_II_XEON


def sample_counters(**overrides) -> EventCounters:
    base = {
        "CPU_CLK_UNHALTED": 10_000,
        "INST_RETIRED": 6_000,
        "UOPS_RETIRED": 8_100,
        "DATA_MEM_REFS": 3_000,
        "DCU_LINES_IN": 60,
        "IFU_IFETCH": 900,
        "IFU_IFETCH_MISS": 90,
        "IFU_MEM_STALL": 900,
        "ILD_STALL": 150,
        "L2_DATA_RQSTS": 60,
        "L2_DATA_MISS": 30,
        "L2_IFETCH": 90,
        "L2_IFETCH_MISS": 2,
        "ITLB_MISS": 3,
        "DTLB_MISS": 10,
        "BR_INST_RETIRED": 1_200,
        "BR_MISS_PRED_RETIRED": 60,
        "BTB_MISSES": 600,
        "PARTIAL_RAT_STALLS": 700,
        "FU_CONTENTION_STALLS": 300,
        "RESOURCE_STALLS": 1_150,
        "BUS_TRAN_MEM": 40,
        "RECORDS_PROCESSED": 100,
    }
    base.update(overrides)
    return EventCounters.from_dict(base)


class TestExecutionBreakdown:
    def test_table_4_2_formulae(self):
        breakdown = ExecutionBreakdown.from_counters(sample_counters(), PENTIUM_II_XEON)
        c = breakdown.components
        assert c["TC"] == pytest.approx(8_100 / 3)
        assert c["TL1D"] == pytest.approx((60 - 30) * 4)
        assert c["TL1I"] == 900
        assert c["TL2D"] == pytest.approx(30 * 65)
        assert c["TL2I"] == pytest.approx(2 * 65)
        assert c["TITLB"] == pytest.approx(3 * 32)
        assert c["TB"] == pytest.approx(60 * 17)
        assert c["TDEP"] == 700
        assert c["TFU"] == 300
        assert c["TILD"] == 150
        assert c["TDTLB"] == 0.0          # not measured, as in the paper

    def test_dtlb_optionally_included(self):
        breakdown = ExecutionBreakdown.from_counters(sample_counters(), include_dtlb=True)
        assert breakdown.components["TDTLB"] == pytest.approx(10 * 32)

    def test_group_shares_sum_to_one(self):
        breakdown = ExecutionBreakdown.from_counters(sample_counters())
        shares = breakdown.shares()
        assert set(shares) == set(GROUPS)
        assert sum(shares.values()) == pytest.approx(1.0)
        memory_shares = breakdown.memory_shares()
        assert set(memory_shares) == set(MEMORY_COMPONENTS)
        assert sum(memory_shares.values()) == pytest.approx(1.0)

    def test_component_taxonomy_is_complete(self):
        assert set(COMPONENTS) == {"TC", "TL1D", "TL1I", "TL2D", "TL2I", "TDTLB",
                                   "TITLB", "TB", "TFU", "TDEP", "TILD"}
        assert {m.component for m in TABLE_4_2} == set(COMPONENTS) | {"TOVL"}

    def test_aggregate_properties(self):
        # Use a cycle total below the component sum (as in real measurements,
        # where the per-component estimates are upper bounds).
        breakdown = ExecutionBreakdown.from_counters(sample_counters(CPU_CLK_UNHALTED=7_000))
        assert breakdown.memory == pytest.approx(
            breakdown.components["TL1D"] + breakdown.components["TL1I"]
            + breakdown.components["TL2D"] + breakdown.components["TL2I"]
            + breakdown.components["TITLB"])
        assert breakdown.resource == pytest.approx(700 + 300 + 150)
        assert breakdown.stall == pytest.approx(breakdown.memory + breakdown.branch
                                                + breakdown.resource)
        assert breakdown.estimated_total >= breakdown.total_cycles
        assert breakdown.overlap == pytest.approx(breakdown.estimated_total
                                                  - breakdown.total_cycles)

    def test_per_record(self):
        breakdown = ExecutionBreakdown.from_counters(sample_counters())
        per_record = breakdown.per_record()
        assert per_record["total"] == pytest.approx(100.0)
        assert per_record["TC"] == pytest.approx(27.0)
        with pytest.raises(BreakdownError):
            breakdown.per_record(0)

    def test_merge_and_average(self):
        one = ExecutionBreakdown.from_counters(sample_counters())
        two = ExecutionBreakdown.from_counters(sample_counters(CPU_CLK_UNHALTED=20_000))
        merged = one.merged_with(two)
        assert merged.total_cycles == pytest.approx(30_000)
        assert merged.components["TB"] == pytest.approx(2 * 60 * 17)
        averaged = ExecutionBreakdown.average([one, two], label="avg")
        assert averaged.total_cycles == pytest.approx(30_000)
        with pytest.raises(BreakdownError):
            ExecutionBreakdown.average([])

    def test_missing_cycles_rejected(self):
        with pytest.raises(BreakdownError):
            ExecutionBreakdown.from_counters(EventCounters())

    def test_average_of_empty_iterable_message(self):
        with pytest.raises(BreakdownError, match="zero breakdowns"):
            ExecutionBreakdown.average(iter(()))

    def test_average_of_one_is_identity(self):
        one = ExecutionBreakdown.from_counters(sample_counters())
        averaged = ExecutionBreakdown.average([one])
        assert averaged.total_cycles == pytest.approx(one.total_cycles)
        for name, value in one.components.items():
            assert averaged.components[name] == pytest.approx(value)

    def test_merged_with_keeps_component_taxonomy(self):
        one = ExecutionBreakdown.from_counters(sample_counters())
        two = ExecutionBreakdown.from_counters(
            sample_counters(CPU_CLK_UNHALTED=20_000))
        merged = one.merged_with(two)
        assert set(merged.components) == set(one.components)
        for name in one.components:
            assert merged.components[name] == pytest.approx(
                one.components[name] + two.components[name])
        # Merging is order-independent on the numbers.
        flipped = two.merged_with(one)
        assert flipped.total_cycles == pytest.approx(merged.total_cycles)

    def test_per_record_zero_records_message(self):
        counters = sample_counters(RECORDS_PROCESSED=0)
        breakdown = ExecutionBreakdown.from_counters(counters)
        with pytest.raises(BreakdownError, match="no records"):
            breakdown.per_record()


class TestMetrics:
    def test_rate_metrics(self):
        metrics = compute_metrics(sample_counters())
        assert metrics.cpi == pytest.approx(10_000 / 6_000)
        assert metrics.instructions_per_record == pytest.approx(60.0)
        assert metrics.l1d_miss_rate == pytest.approx(60 / 3_000)
        assert metrics.l2_data_miss_rate == pytest.approx(0.5)
        assert metrics.branch_fraction == pytest.approx(0.2)
        assert metrics.branch_misprediction_rate == pytest.approx(0.05)
        assert metrics.btb_miss_rate == pytest.approx(0.5)
        assert 0.0 <= metrics.memory_bandwidth_utilisation <= 1.0

    def test_zero_denominators_do_not_crash(self):
        metrics = compute_metrics(EventCounters.from_dict({"CPU_CLK_UNHALTED": 10}))
        assert metrics.cpi == 0.0
        assert metrics.l1d_miss_rate == 0.0

    def test_cpi_breakdown_sums_to_measured_cpi(self):
        breakdown = ExecutionBreakdown.from_counters(sample_counters())
        cpi = cpi_breakdown(breakdown, instructions=6_000)
        partial = cpi["computation"] + cpi["memory"] + cpi["branch"] + cpi["resource"]
        assert partial == pytest.approx(cpi["total"])
        assert cpi["total"] == pytest.approx(10_000 / 6_000)
        with pytest.raises(ValueError):
            cpi_breakdown(breakdown, instructions=0)

    def test_metrics_as_dict_round_trip(self):
        metrics = compute_metrics(sample_counters())
        exported = metrics.as_dict()
        assert exported["cpi"] == metrics.cpi
        assert "l2_data_misses_per_record" in exported


class TestReportRendering:
    def test_format_table_includes_all_cells_and_dashes(self):
        text = format_table("Demo", ["r1", "r2"], ["A", "B"],
                            {"A": {"r1": 0.5, "r2": 0.25}, "B": {"r1": 1.0}})
        assert "Demo" in text and "50.0%" in text and "100.0%" in text
        assert "-" in text          # B/r2 missing

    def test_format_stacked_bars_normalises(self):
        text = format_stacked_bars("Bars", {"A": {"x": 3.0, "y": 1.0}}, ("x", "y"), width=40)
        assert "legend" in text and "|" in text

    def test_format_key_values(self):
        assert "cpi" in format_key_values("T", {"cpi": 1.234})

    def test_format_percentage(self):
        assert format_percentage(0.5).strip() == "50.0%"

    def test_format_table_custom_formatter_and_row_header(self):
        text = format_table("Cycles", ["scan"], ["B"],
                            {"B": {"scan": 1234.0}},
                            formatter=lambda v: f"{v:,.0f}",
                            row_header="operator")
        assert "1,234" in text
        # Header width accounts for the row-header label.
        assert text.splitlines()[3].startswith("scan")

    def test_format_table_none_cell_renders_dash(self):
        text = format_table("T", ["r"], ["A"], {"A": {"r": None}})
        assert text.splitlines()[-1].strip().endswith("-")

    def test_format_stacked_bars_empty_series_renders_empty_marker(self):
        text = format_stacked_bars("Bars", {"A": {"x": 0.0, "y": 0.0}},
                                   ("x", "y"))
        assert "(empty)" in text

    def test_format_stacked_bars_width_is_clipped(self):
        text = format_stacked_bars("Bars", {"A": {"x": 1.0, "y": 1.0}},
                                   ("x", "y"), width=10)
        bar_line = text.splitlines()[-1]
        inner = bar_line.split("|")[1]
        assert len(inner) == 10

    def test_format_key_values_empty_mapping_raises(self):
        with pytest.raises(ValueError):
            format_key_values("T", {})

    def test_format_key_values_mixed_types(self):
        text = format_key_values("T", {"cycles": 1234567, "cpi": 1.5,
                                       "layout": "pax"})
        assert "1234567" in text and "1.500" in text and "pax" in text
