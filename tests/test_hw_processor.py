"""Tests for the simulated processor, cycle model, memory model and OS interference."""

import pytest

from repro.hardware import (CycleModel, EventCounters, MainMemory, MemorySpec,
                            OSInterference, OSInterferenceConfig, OverlapModel,
                            PENTIUM_II_XEON, SimulatedProcessor)


class TestProcessorCounters:
    def test_data_read_updates_cache_and_tlb_counters(self, processor):
        processor.data_read(0x2000_0000, 4)
        counters = processor.counters
        assert counters.get("DATA_MEM_REFS") == 1
        assert counters.get("DCU_LINES_IN") == 1
        assert counters.get("L2_DATA_MISS") == 1
        assert counters.get("DTLB_MISS") == 1
        processor.data_read(0x2000_0000, 4)
        assert counters.get("DATA_MEM_REFS") == 2
        assert counters.get("DCU_LINES_IN") == 1        # second access hits

    def test_fetch_code_counts_lines_and_misses(self, processor):
        lines = (0x0800_0000, 0x0800_0020, 0x0800_0040)
        processor.fetch_code(lines)
        counters = processor.counters
        assert counters.get("IFU_IFETCH") == 3
        assert counters.get("IFU_IFETCH_MISS") == 3
        assert counters.get("L2_IFETCH_MISS") == 3
        assert counters.get("ITLB_MISS") == 1           # all three lines share a page
        processor.fetch_code(lines)
        assert counters.get("IFU_IFETCH_MISS") == 3     # warm now

    def test_retire_applies_default_uop_expansion(self, processor):
        processor.retire(1000)
        expected = round(1000 * PENTIUM_II_XEON.pipeline.uops_per_instruction)
        assert processor.counters.get("UOPS_RETIRED") == expected

    def test_branch_counters(self, processor):
        processor.branch(0x100, taken=True)
        processor.branch(0x100, taken=True)
        counters = processor.counters
        assert counters.get("BR_INST_RETIRED") == 2
        assert counters.get("BR_TAKEN_RETIRED") == 2
        assert counters.get("BTB_MISSES") >= 1

    def test_count_branches_bulk(self, processor):
        processor.count_branches(100, taken=60, mispredictions=5, btb_misses=50)
        counters = processor.counters
        assert counters.get("BR_INST_RETIRED") == 100
        assert counters.get("BR_MISS_PRED_RETIRED") == 5
        assert counters.get("BTB_MISSES") == 50

    def test_resource_stalls_accumulate(self, processor):
        processor.add_resource_stalls(10, 5, 2)
        counters = processor.counters
        assert counters.get("PARTIAL_RAT_STALLS") == 10
        assert counters.get("FU_CONTENTION_STALLS") == 5
        assert counters.get("ILD_STALL") == 2
        assert counters.get("RESOURCE_STALLS") == 17

    def test_finalize_produces_cycles_and_is_idempotent(self, processor):
        processor.fetch_code((0x0800_0000,))
        processor.retire(300)
        processor.data_read(0x2000_0000)
        first = processor.finalize()
        second = processor.finalize()
        assert first.get("CPU_CLK_UNHALTED") == second.get("CPU_CLK_UNHALTED") > 0
        assert first.get("L2_LINES_IN") == second.get("L2_LINES_IN")

    def test_reset_clears_everything(self, processor):
        processor.data_read(0x2000_0000)
        processor.retire(10)
        processor.finalize()
        processor.reset()
        assert processor.counters.get("INST_RETIRED") == 0
        assert processor.caches.l1d.resident_lines() == 0

    def test_reset_counters_keeps_cache_contents(self, processor):
        processor.data_read(0x2000_0000)
        processor.reset_counters()
        assert processor.counters.get("DCU_LINES_IN") == 0
        # The line is still resident: re-reading it does not miss.
        processor.data_read(0x2000_0000)
        assert processor.counters.get("DCU_LINES_IN") == 0


class TestCycleModel:
    def test_breakdown_matches_table_4_2_formulae(self):
        counters = EventCounters.from_dict({
            "UOPS_RETIRED": 3000, "DCU_LINES_IN": 10, "L2_DATA_MISS": 4,
            "L2_IFETCH_MISS": 2, "IFU_MEM_STALL": 120, "ITLB_MISS": 1,
            "DTLB_MISS": 3, "BR_MISS_PRED_RETIRED": 6,
            "PARTIAL_RAT_STALLS": 50, "FU_CONTENTION_STALLS": 20, "ILD_STALL": 10,
        })
        model = CycleModel(PENTIUM_II_XEON, OverlapModel(0, 0, 0, 0))
        breakdown = model.assemble(counters)
        assert breakdown.computation == pytest.approx(1000.0)
        assert breakdown.l1d == pytest.approx((10 - 4) * 4)
        assert breakdown.l2d == pytest.approx(4 * 65)
        assert breakdown.l2i == pytest.approx(2 * 65)
        assert breakdown.l1i == pytest.approx(120)
        assert breakdown.itlb == pytest.approx(32)
        assert breakdown.branch == pytest.approx(6 * 17)
        assert breakdown.resource == pytest.approx(80)
        assert breakdown.overlap == 0
        assert breakdown.total == pytest.approx(breakdown.computation + breakdown.memory
                                                + breakdown.dtlb + breakdown.branch
                                                + breakdown.resource)

    def test_overlap_reduces_total_but_not_components(self):
        counters = EventCounters.from_dict({"UOPS_RETIRED": 300, "DCU_LINES_IN": 100,
                                            "L2_DATA_MISS": 50})
        plain = CycleModel(PENTIUM_II_XEON, OverlapModel(0, 0, 0, 0)).assemble(counters)
        overlapped = CycleModel(PENTIUM_II_XEON).assemble(counters)
        assert overlapped.total < plain.total
        assert overlapped.l2d == plain.l2d

    def test_total_never_below_computation(self):
        counters = EventCounters.from_dict({"UOPS_RETIRED": 3000})
        breakdown = CycleModel(PENTIUM_II_XEON,
                               OverlapModel(1.0, 1.0, 1.0, 1.0)).assemble(counters)
        assert breakdown.total >= breakdown.computation

    def test_overlap_model_validates_fractions(self):
        with pytest.raises(ValueError):
            OverlapModel(l1d_hidden_fraction=1.5)


class TestMainMemory:
    def test_fill_latency_and_traffic(self):
        memory = MainMemory(MemorySpec(latency_cycles=65), line_bytes=32)
        assert memory.fill(3) == 195
        memory.writeback(2)
        assert memory.stats.bytes_transferred == 5 * 32
        assert memory.stats.reads == 3

    def test_bandwidth_utilisation_and_latency_bound(self):
        memory = MainMemory(MemorySpec(latency_cycles=65,
                                       peak_bandwidth_bytes_per_cycle=2.0))
        memory.fill(10)   # 320 bytes
        assert memory.bandwidth_utilisation(1000) == pytest.approx(0.16)
        assert memory.is_latency_bound(1000)
        assert not memory.is_latency_bound(100)


class TestOSInterference:
    @staticmethod
    def model(config: OSInterferenceConfig) -> OSInterference:
        """A model over a fresh processor's clock members."""
        return OSInterference(config, SimulatedProcessor()._native_state)

    def test_interrupt_fires_every_interval(self):
        model = self.model(OSInterferenceConfig(interval_instructions=1000))
        assert model.note_instructions(999) == 0
        assert model.note_instructions(1) == 1
        assert model.note_instructions(2500) == 2
        assert model.interrupts == 3

    def test_disabled_model_never_fires(self):
        model = self.model(OSInterferenceConfig(enabled=False))
        assert model.note_instructions(10_000_000) == 0

    def test_processor_applies_interrupt_effects(self):
        config = OSInterferenceConfig(interval_instructions=1_000, l1i_flush_fraction=1.0)
        processor = SimulatedProcessor(os_interference=config)
        lines = tuple(0x0800_0000 + i * 32 for i in range(16))
        processor.fetch_code(lines)
        assert processor.counters.get("IFU_IFETCH_MISS") == 16
        processor.retire(2_000)                      # crosses the interrupt threshold
        processor.fetch_code(lines)                  # code was flushed -> misses again
        assert processor.counters.get("IFU_IFETCH_MISS") == 32
        assert processor.counters.get("OS_INTERRUPTS") == 0            # user bank untouched
        assert processor.counters.get("OS_INTERRUPTS", "SUP") == 2     # kernel bank counts them
