"""Tests for the non-clustered B+-tree index."""

import random

import pytest

from repro.index.btree import BTreeError, BTreeIndex
from repro.storage.address_space import AddressSpace
from repro.storage.page import RecordId


def make_index(**kwargs) -> BTreeIndex:
    return BTreeIndex("test_idx", AddressSpace(), **kwargs)


def rid(i: int) -> RecordId:
    return RecordId(i // 100, i % 100)


class TestInsertSearch:
    def test_insert_and_exact_search(self):
        index = make_index(leaf_capacity=4, internal_capacity=4)
        for i in range(100):
            index.insert(i, rid(i))
        for i in (0, 17, 55, 99):
            assert index.search(i) == [rid(i)]
        assert index.search(1000) == []
        index.check_invariants()

    def test_duplicate_keys_supported(self):
        index = make_index(leaf_capacity=4, internal_capacity=4)
        for i in range(30):
            index.insert(i % 5, rid(i))
        assert len(index.search(3)) == 6
        index.check_invariants()

    def test_unique_index_rejects_duplicates(self):
        index = make_index(unique=True)
        index.insert(1, rid(1))
        with pytest.raises(BTreeError):
            index.insert(1, rid(2))

    def test_height_grows_with_inserts(self):
        index = make_index(leaf_capacity=4, internal_capacity=4)
        for i in range(200):
            index.insert(i, rid(i))
        assert index.height >= 3
        assert index.entry_count == 200
        index.check_invariants()

    def test_random_insert_order_stays_sorted(self):
        index = make_index(leaf_capacity=8, internal_capacity=8)
        keys = list(range(500))
        random.Random(5).shuffle(keys)
        for key in keys:
            index.insert(key, rid(key))
        assert index.keys_in_order() == sorted(keys)
        index.check_invariants()


class TestBulkLoad:
    def test_bulk_load_builds_searchable_tree(self):
        index = make_index(leaf_capacity=16, internal_capacity=16)
        index.bulk_load((i % 40, rid(i)) for i in range(1000))
        index.check_invariants()
        assert index.entry_count == 1000
        assert len(index.search(7)) == 25

    def test_bulk_load_requires_empty_index(self):
        index = make_index()
        index.insert(1, rid(1))
        with pytest.raises(BTreeError):
            index.bulk_load([(2, rid(2))])

    def test_bulk_load_unique_duplicate_rejected(self):
        index = make_index(unique=True)
        with pytest.raises(BTreeError):
            index.bulk_load([(1, rid(1)), (1, rid(2))])

    def test_bulk_load_empty_input(self):
        index = make_index()
        index.bulk_load([])
        assert len(index) == 0
        assert index.search(1) == []

    def test_insert_after_bulk_load(self):
        index = make_index(leaf_capacity=8, internal_capacity=8)
        index.bulk_load((i, rid(i)) for i in range(100))
        index.insert(1000, rid(1000))
        assert index.search(1000) == [rid(1000)]
        index.check_invariants()


class TestRangeSearch:
    def test_range_bounds_inclusive_exclusive(self):
        index = make_index()
        index.bulk_load((i, rid(i)) for i in range(20))
        keys = [m.key for m in index.range_search(5, 10, include_low=True, include_high=False)]
        assert keys == [5, 6, 7, 8, 9]
        keys = [m.key for m in index.range_search(5, 10, include_low=False, include_high=True)]
        assert keys == [6, 7, 8, 9, 10]

    def test_unbounded_range_returns_everything_in_order(self):
        index = make_index(leaf_capacity=4, internal_capacity=4)
        index.bulk_load((i, rid(i)) for i in range(50))
        keys = [m.key for m in index.range_search(None, None)]
        assert keys == list(range(50))

    def test_range_with_duplicates(self):
        index = make_index()
        index.bulk_load((i % 3, rid(i)) for i in range(30))
        matches = list(index.range_search(1, 1, include_low=True, include_high=True))
        assert len(matches) == 10
        assert all(m.key == 1 for m in matches)

    def test_empty_range(self):
        index = make_index()
        index.bulk_load((i * 10, rid(i)) for i in range(10))
        assert list(index.range_search(41, 49, include_low=True, include_high=True)) == []

    def test_match_entry_addresses_lie_in_index_region(self):
        space = AddressSpace()
        index = BTreeIndex("idx", space)
        index.bulk_load((i, rid(i)) for i in range(100))
        for match in index.range_search(10, 20):
            assert space.region_of(match.entry_address) == "index"


class TestDescend:
    def test_descend_visits_height_nodes_ending_at_leaf(self):
        index = make_index(leaf_capacity=4, internal_capacity=4)
        index.bulk_load((i, rid(i)) for i in range(200))
        steps = index.descend(57)
        assert len(steps) == index.height
        assert steps[-1].is_leaf
        assert all(not step.is_leaf for step in steps[:-1])

    def test_descend_single_leaf_tree(self):
        index = make_index()
        index.insert(1, rid(1))
        steps = index.descend(1)
        assert len(steps) == 1 and steps[0].is_leaf


class TestDelete:
    def test_delete_specific_rid(self):
        index = make_index()
        index.insert(5, rid(1))
        index.insert(5, rid(2))
        removed = index.delete(5, rid(1))
        assert removed == 1
        assert index.search(5) == [rid(2)]

    def test_delete_all_under_key(self):
        index = make_index(leaf_capacity=4, internal_capacity=4)
        index.bulk_load((i % 5, rid(i)) for i in range(50))
        removed = index.delete(2)
        assert removed == 10
        assert index.search(2) == []
        assert len(index) == 40

    def test_delete_missing_key_is_noop(self):
        index = make_index()
        index.bulk_load((i, rid(i)) for i in range(10))
        assert index.delete(99) == 0
        assert len(index) == 10


class TestKeyBounds:
    def test_empty_index_has_no_bounds(self):
        index = make_index()
        assert index.key_bounds() is None
        index.bulk_load([])
        assert index.key_bounds() is None

    def test_bounds_are_first_and_last_key(self):
        index = make_index(leaf_capacity=4, internal_capacity=4)
        index.bulk_load((i % 37 + 5, rid(i)) for i in range(200))
        assert index.height > 2
        assert index.key_bounds() == (5, 41)
        index.insert(2, rid(900))
        index.insert(99, rid(901))
        assert index.key_bounds() == (2, 99)

    def test_bounds_step_over_leaves_emptied_at_either_end(self):
        index = make_index(leaf_capacity=4, internal_capacity=4)
        index.bulk_load((i, rid(i)) for i in range(100))
        for key in list(range(0, 30)) + list(range(60, 100)):
            assert index.delete(key) == 1
        # Lazy deletion: the emptied leaves are still linked at both ends.
        assert index.node_count > 25 and len(index) == 30
        assert index.key_bounds() == (30, 59)
        for key in range(30, 60):
            index.delete(key)
        assert index.key_bounds() is None
        index.insert(7, rid(7))
        assert index.key_bounds() == (7, 7)
        index.check_invariants()
