"""Tests for the hardware event-counter register file."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.counters import (EVENT_DESCRIPTIONS, EVENT_NAMES, EventCounters,
                                     MODE_SUP, MODE_USER, UnknownEventError)


class TestEventVocabulary:
    def test_every_event_has_a_description(self):
        assert set(EVENT_NAMES) == set(EVENT_DESCRIPTIONS)
        assert all(EVENT_DESCRIPTIONS[name] for name in EVENT_NAMES)

    def test_core_paper_events_present(self):
        for event in ("CPU_CLK_UNHALTED", "INST_RETIRED", "UOPS_RETIRED",
                      "IFU_MEM_STALL", "L2_DATA_MISS", "BR_MISS_PRED_RETIRED",
                      "ITLB_MISS", "PARTIAL_RAT_STALLS", "ILD_STALL"):
            assert event in EVENT_DESCRIPTIONS


class TestEventCounters:
    def test_add_and_get(self):
        counters = EventCounters()
        counters.add("INST_RETIRED", 100)
        counters.add("INST_RETIRED", 50)
        assert counters.get("INST_RETIRED") == 150
        assert counters["INST_RETIRED"] == 150

    def test_modes_are_independent(self):
        counters = EventCounters()
        counters.add("INST_RETIRED", 10, MODE_USER)
        counters.add("INST_RETIRED", 3, MODE_SUP)
        assert counters.get("INST_RETIRED", MODE_USER) == 10
        assert counters.get("INST_RETIRED", MODE_SUP) == 3
        assert counters.total("INST_RETIRED") == 13

    def test_unknown_event_rejected(self):
        counters = EventCounters()
        with pytest.raises(UnknownEventError):
            counters.add("NOT_AN_EVENT", 1)
        with pytest.raises(UnknownEventError):
            counters.get("NOT_AN_EVENT")

    def test_unknown_mode_rejected(self):
        counters = EventCounters()
        with pytest.raises(ValueError):
            counters.add("INST_RETIRED", 1, "KERNELish")

    def test_snapshot_is_independent(self):
        counters = EventCounters()
        counters.add("INST_RETIRED", 5)
        snap = counters.snapshot()
        counters.add("INST_RETIRED", 5)
        assert snap.get("INST_RETIRED") == 5
        assert counters.get("INST_RETIRED") == 10

    def test_diff(self):
        counters = EventCounters()
        counters.add("INST_RETIRED", 5)
        earlier = counters.snapshot()
        counters.add("INST_RETIRED", 7)
        counters.add("DATA_MEM_REFS", 2)
        delta = counters.diff(earlier)
        assert delta.get("INST_RETIRED") == 7
        assert delta.get("DATA_MEM_REFS") == 2
        assert delta.get("UOPS_RETIRED") == 0

    def test_merge(self):
        a = EventCounters.from_dict({"INST_RETIRED": 5})
        b = EventCounters.from_dict({"INST_RETIRED": 3, "DATA_MEM_REFS": 1})
        merged = a.merged_with(b)
        assert merged.get("INST_RETIRED") == 8
        assert merged.get("DATA_MEM_REFS") == 1
        # inputs untouched
        assert a.get("INST_RETIRED") == 5

    def test_scaled(self):
        counters = EventCounters.from_dict({"INST_RETIRED": 10})
        assert counters.scaled(0.5).get("INST_RETIRED") == 5

    def test_as_dict_has_every_event(self):
        counters = EventCounters()
        counters.add("INST_RETIRED", 1)
        exported = counters.as_dict()
        assert set(exported) == set(EVENT_NAMES)
        assert exported["INST_RETIRED"] == 1
        assert exported["UOPS_RETIRED"] == 0

    def test_from_dict_validates_events(self):
        with pytest.raises(UnknownEventError):
            EventCounters.from_dict({"BOGUS": 1})

    def test_events_with_counts_iterates_in_stable_order(self):
        counters = EventCounters()
        counters.add("INST_RETIRED", 2, MODE_USER)
        counters.add("INST_RETIRED", 1, MODE_SUP)
        rows = list(counters.events_with_counts())
        assert [row[0] for row in rows] == list(EVENT_NAMES)
        row = dict((name, (u, s)) for name, u, s in rows)
        assert row["INST_RETIRED"] == (2, 1)

    def test_reset(self):
        counters = EventCounters.from_dict({"INST_RETIRED": 5}, {"INST_RETIRED": 2})
        counters.reset()
        assert counters.total("INST_RETIRED") == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.dictionaries(
    st.sampled_from(("INST_RETIRED", "DATA_MEM_REFS", "DCU_LINES_IN",
                     "L2_DATA_MISS", "BR_MISS_PRED_RETIRED")),
    st.integers(min_value=0, max_value=10_000), max_size=5),
    min_size=1, max_size=6),
    st.randoms())
def test_event_counters_merge_commutes(parts, rnd):
    counter_parts = [EventCounters.from_dict(part) for part in parts]
    shuffled = list(counter_parts)
    rnd.shuffle(shuffled)
    merged = EventCounters()
    for counters in shuffled:
        merged.merge(counters)
    for event in {event for part in parts for event in part}:
        assert merged.get(event) == sum(part.get(event, 0) for part in parts)
