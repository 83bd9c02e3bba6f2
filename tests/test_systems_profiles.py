"""Tests for the system profiles of the four commercial DBMSs."""

import pytest

from repro.systems import (ALL_SYSTEMS, BASE_COSTS, OPERATION_NAMES, OperationCost,
                           ProfileError, SYSTEM_A, SYSTEM_B, SYSTEM_C, SYSTEM_D,
                           SystemProfile, system_by_key)
from repro.systems.profile import ACCESS_FIELDS_ONLY, ACCESS_FULL_RECORD, BranchSiteSpec
from repro.systems.vendors import oltp_variant


class TestProfileStructure:
    def test_four_systems_with_unique_keys(self):
        keys = [profile.key for profile in ALL_SYSTEMS]
        assert keys == ["A", "B", "C", "D"]

    def test_every_profile_defines_every_operation(self):
        for profile in ALL_SYSTEMS:
            for operation in OPERATION_NAMES:
                cost = profile.cost(operation)
                assert cost.instructions > 0
                assert cost.code_bytes > 0

    def test_system_by_key_lookup(self):
        assert system_by_key("b") is not None
        assert system_by_key("B").key == "B"
        with pytest.raises(KeyError):
            system_by_key("Z")

    def test_missing_operation_cost_rejected(self):
        costs = {name: BASE_COSTS[name] for name in OPERATION_NAMES if name != "scan_next"}
        with pytest.raises(ProfileError):
            SystemProfile(key="X", name="X", description="", uses_index_for_range_selection=True,
                          index_selectivity_threshold=0.2,
                          record_access_style=ACCESS_FULL_RECORD, workspace_bytes=1024,
                          costs=costs)

    @pytest.mark.parametrize("stride", [1024, 4096])
    def test_workspace_stride_must_be_smaller_than_the_workspace(self, stride):
        """A cyclic touch needs room to cycle: a stride of the whole
        workspace or more is rejected when the profile is built."""
        message = "workspace_touch_stride must be smaller than workspace_bytes"
        with pytest.raises(ProfileError, match=message):
            SystemProfile(key="X", name="X", description="", uses_index_for_range_selection=True,
                          index_selectivity_threshold=0.2,
                          record_access_style=ACCESS_FULL_RECORD, workspace_bytes=1024,
                          workspace_touch_stride=stride, costs=dict(BASE_COSTS))
        with pytest.raises(ProfileError, match=message):
            SYSTEM_B.with_overrides(workspace_bytes=1024, workspace_touch_stride=stride)
        with pytest.raises(ProfileError, match=message):
            SYSTEM_B.with_overrides(workspace_bytes=SYSTEM_B.workspace_touch_stride)
        for profile in ALL_SYSTEMS + tuple(map(oltp_variant, ALL_SYSTEMS)):
            assert profile.workspace_touch_stride < profile.workspace_bytes

    def test_invalid_branch_kind_rejected(self):
        with pytest.raises(ProfileError):
            BranchSiteSpec(name="x", kind="banana")

    def test_negative_cost_rejected(self):
        with pytest.raises(ProfileError):
            OperationCost(instructions=-1, code_bytes=10)

    def test_unknown_cost_lookup_rejected(self):
        with pytest.raises(ProfileError):
            SYSTEM_A.cost("no_such_operation")


class TestPaperCharacterisation:
    """The observable properties the paper attributes to each system."""

    def test_system_a_does_not_use_the_index(self):
        assert SYSTEM_A.uses_index_for_range_selection is False
        assert all(profile.uses_index_for_range_selection
                   for profile in (SYSTEM_B, SYSTEM_C, SYSTEM_D))

    def test_system_a_has_the_shortest_scan_path(self):
        scan_instructions = {p.key: p.cost("scan_next").instructions for p in ALL_SYSTEMS}
        assert scan_instructions["A"] == min(scan_instructions.values())

    def test_system_b_touches_only_referenced_fields(self):
        assert SYSTEM_B.record_access_style == ACCESS_FIELDS_ONLY
        assert all(profile.record_access_style == ACCESS_FULL_RECORD
                   for profile in (SYSTEM_A, SYSTEM_C, SYSTEM_D))

    def test_system_b_working_set_exceeds_l1d_but_fits_l2(self):
        assert 16 * 1024 < SYSTEM_B.workspace_bytes < 512 * 1024

    def test_system_c_has_the_largest_cold_code_per_scan_record(self):
        cold = {p.key: p.cost("scan_next").cold_code_bytes for p in ALL_SYSTEMS}
        assert cold["C"] == max(cold.values())
        assert cold["A"] == min(cold.values())

    def test_system_d_join_path_is_the_heaviest(self):
        probe = {p.key: p.cost("hash_probe").instructions for p in ALL_SYSTEMS}
        assert probe["D"] == max(probe.values())

    def test_system_a_range_selection_fu_dominates_dep(self):
        cost = SYSTEM_A.cost("scan_next")
        assert cost.fu_stall_cycles > cost.dependency_stall_cycles
        for profile in (SYSTEM_B, SYSTEM_C, SYSTEM_D):
            other = profile.cost("scan_next")
            assert other.dependency_stall_cycles > other.fu_stall_cycles

    def test_cold_pools_fit_inside_l2(self):
        for profile in ALL_SYSTEMS:
            assert 16 * 1024 < profile.cold_code_pool_bytes <= 512 * 1024

    def test_branch_fraction_near_twenty_percent(self):
        for profile in ALL_SYSTEMS:
            assert 0.15 <= profile.branch_fraction <= 0.25


class TestProfileHelpers:
    def test_scaled_cost_scales_each_dimension(self):
        base = BASE_COSTS["scan_next"]
        scaled = base.scaled(path_factor=2.0, footprint_factor=0.5, stall_factor=3.0,
                             cold_factor=1.0)
        assert scaled.instructions == base.instructions * 2
        assert scaled.code_bytes == base.code_bytes // 2
        assert scaled.cold_code_bytes == base.cold_code_bytes
        assert scaled.dependency_stall_cycles == pytest.approx(base.dependency_stall_cycles * 3)

    def test_path_instructions_and_footprint(self):
        expected = (SYSTEM_B.cost("scan_next").instructions
                    + 0.1 * SYSTEM_B.cost("agg_update").instructions)
        assert SYSTEM_B.path_instructions({"scan_next": 1, "agg_update": 0.1}) == pytest.approx(expected)
        footprint = SYSTEM_B.path_code_bytes(("scan_next", "scan_next", "predicate"))
        assert footprint == (SYSTEM_B.cost("scan_next").code_bytes
                             + SYSTEM_B.cost("predicate").code_bytes)

    def test_with_overrides(self):
        variant = SYSTEM_C.with_overrides(workspace_bytes=1024)
        assert variant.workspace_bytes == 1024
        assert variant.costs == SYSTEM_C.costs

    def test_oltp_variant_enlarges_code_and_data_working_sets(self):
        for profile in ALL_SYSTEMS:
            oltp = oltp_variant(profile)
            assert oltp.cold_code_pool_bytes > 512 * 1024
            assert oltp.workspace_bytes > 1024 * 1024
            assert oltp.key == profile.key
            # Path lengths are inherited; resource-stall cycles are scaled up
            # (transaction management contention), instruction counts are not.
            for operation in OPERATION_NAMES:
                assert oltp.cost(operation).instructions == profile.cost(operation).instructions
                assert (oltp.cost(operation).dependency_stall_cycles
                        > profile.cost(operation).dependency_stall_cycles)
