"""Property-based tests (hypothesis) for the core data structures and invariants."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.execution import ExecutionContext, execute_plan
from repro.hardware import SimulatedProcessor
from repro.hardware.cache import Cache, PORT_DATA_READ, PORT_DATA_WRITE
from repro.hardware.branch import BranchPredictor
from repro.hardware.specs import BranchSpec, CacheSpec, TLBSpec
from repro.hardware.tlb import TLB
from repro.index.btree import BTreeIndex
from repro.query import ExecutionConfig
from repro.query.expressions import range_predicate
from repro.query.plans import IndexRangeScanPlan, SeqScanPlan
from repro.storage import Catalog, microbenchmark_schema
from repro.storage.address_space import AddressSpace
from repro.storage.page import PaxPage, RecordId, SlottedPage
from repro.storage.schema import Column, ColumnType, RecordLayout, Schema
from repro.systems import SYSTEM_B

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

SCAN_SETTINGS = settings(max_examples=25, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# Cache invariants
# ---------------------------------------------------------------------------
@SETTINGS
@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300),
       ways=st.sampled_from([1, 2, 4]))
def test_cache_miss_count_bounded_and_capacity_respected(addresses, ways):
    cache = Cache(CacheSpec(name="p", size_bytes=2048, line_bytes=32, associativity=ways))
    misses = sum(cache.access(addr, PORT_DATA_READ) for addr in addresses)
    distinct_lines = len({addr >> 5 for addr in addresses})
    assert misses >= distinct_lines or misses == len(addresses)
    assert distinct_lines <= misses <= len(addresses)
    assert cache.resident_lines() <= cache.spec.num_lines
    assert cache.stats.total_accesses == len(addresses)


@SETTINGS
@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=200))
def test_cache_repeating_same_sequence_second_pass_never_misses_if_it_fits(addresses):
    cache = Cache(CacheSpec(name="p", size_bytes=64 * 1024, line_bytes=32, associativity=4))
    for addr in addresses:
        cache.access(addr, PORT_DATA_READ)
    before = cache.stats.total_misses
    for addr in addresses:
        cache.access(addr, PORT_DATA_READ)
    # 64 KB of cache versus <= 64 KB of touched addresses: everything fits.
    assert cache.stats.total_misses == before


@SETTINGS
@given(writes=st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=1, max_size=200))
def test_writebacks_never_exceed_dirty_line_installs(writes):
    cache = Cache(CacheSpec(name="p", size_bytes=1024, line_bytes=32, associativity=2))
    for addr in writes:
        cache.access(addr, PORT_DATA_WRITE, write=True)
    assert cache.stats.writebacks <= cache.stats.misses[PORT_DATA_WRITE]


# ---------------------------------------------------------------------------
# TLB and branch predictor invariants
# ---------------------------------------------------------------------------
@SETTINGS
@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 24), min_size=1, max_size=200))
def test_tlb_misses_bounded_by_distinct_pages(addresses):
    tlb = TLB(TLBSpec(name="p", entries=8, page_bytes=4096))
    misses = sum(tlb.access(addr) for addr in addresses)
    distinct_pages = len({addr >> 12 for addr in addresses})
    assert distinct_pages <= misses <= len(addresses)
    assert tlb.resident_pages() <= 8


@SETTINGS
@given(outcomes=st.lists(st.booleans(), min_size=1, max_size=400))
def test_branch_stats_are_consistent(outcomes):
    predictor = BranchPredictor(BranchSpec())
    for taken in outcomes:
        predictor.execute(0x1234, taken, backward=True)
    stats = predictor.stats
    assert stats.branches == len(outcomes)
    assert stats.taken == sum(outcomes)
    assert 0 <= stats.mispredictions <= stats.branches
    assert stats.btb_hits + stats.btb_misses == stats.branches


@SETTINGS
@given(outcomes=st.lists(st.booleans(), min_size=64, max_size=400))
def test_constant_branch_is_learned(outcomes):
    """After warm-up, an always-taken branch should almost never mispredict."""
    predictor = BranchPredictor(BranchSpec())
    for _ in range(8):
        predictor.execute(0x40, True, backward=True)
    mispredictions = sum(predictor.execute(0x40, True, backward=True) for _ in outcomes)
    assert mispredictions == 0


# ---------------------------------------------------------------------------
# Record layout round-trip
# ---------------------------------------------------------------------------
@SETTINGS
@given(values=st.tuples(st.integers(-2**31, 2**31 - 1),
                        st.integers(-2**31, 2**31 - 1),
                        st.integers(-2**31, 2**31 - 1)),
       padding=st.integers(min_value=0, max_value=188))
def test_record_encode_decode_roundtrip(values, padding):
    schema = Schema.of(Column("a1"), Column("a2"), Column("a3"))
    layout = RecordLayout.build(schema, record_size=12 + padding)
    data = layout.encode(values)
    assert len(data) == 12 + padding
    assert layout.decode(data) == values
    for name, expected in zip(("a1", "a2", "a3"), values):
        assert layout.decode_column(data, name) == expected


# ---------------------------------------------------------------------------
# Slotted page invariants
# ---------------------------------------------------------------------------
@SETTINGS
@given(sizes=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=60))
def test_slotted_page_never_corrupts_existing_records(sizes):
    page = SlottedPage(0, 0x2000_0000, page_size=4096)
    stored = {}
    for i, size in enumerate(sizes):
        payload = bytes([i % 256]) * size
        if not page.has_room_for(size):
            break
        slot = page.insert(payload)
        stored[slot] = payload
    for slot, payload in stored.items():
        assert page.record_bytes(slot) == payload
    assert page.live_records == len(stored)


# ---------------------------------------------------------------------------
# B+-tree invariants
# ---------------------------------------------------------------------------
@SETTINGS
@given(keys=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=300))
def test_btree_insert_preserves_sorted_order_and_membership(keys):
    index = BTreeIndex("p", AddressSpace(), leaf_capacity=8, internal_capacity=8)
    for position, key in enumerate(keys):
        index.insert(key, RecordId(0, position))
    index.check_invariants()
    assert index.keys_in_order() == sorted(keys)
    for key in set(keys):
        assert len(index.search(key)) == keys.count(key)


@SETTINGS
@given(keys=st.lists(st.integers(min_value=0, max_value=5_000), min_size=1, max_size=300),
       low=st.integers(min_value=0, max_value=5_000),
       width=st.integers(min_value=0, max_value=1_000))
def test_btree_range_search_matches_filter(keys, low, width):
    high = low + width
    index = BTreeIndex("p", AddressSpace(), leaf_capacity=16, internal_capacity=16)
    index.bulk_load((key, RecordId(0, position)) for position, key in enumerate(keys))
    found = [m.key for m in index.range_search(low, high, include_low=True, include_high=True)]
    assert found == sorted(k for k in keys if low <= k <= high)


@SETTINGS
@given(keys=st.sets(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
def test_btree_delete_removes_exactly_the_key(keys):
    keys = sorted(keys)
    index = BTreeIndex("p", AddressSpace(), leaf_capacity=8, internal_capacity=8)
    index.bulk_load((key, RecordId(0, i)) for i, key in enumerate(keys))
    victim = keys[len(keys) // 2]
    assert index.delete(victim) == 1
    assert index.search(victim) == []
    assert len(index) == len(keys) - 1
    survivors = [k for k in keys if k != victim]
    assert index.keys_in_order() == survivors


_KEY = st.integers(min_value=0, max_value=40)
_BTREE_STEP = st.one_of(
    st.tuples(st.just("insert"), _KEY),
    st.tuples(st.just("delete"), _KEY),              # every entry under the key
    st.tuples(st.just("delete_one"), _KEY),          # one duplicate of the key
    st.tuples(st.just("drain_low"), st.integers(1, 12)),   # empties left leaves
    st.tuples(st.just("drain_high"), st.integers(1, 12)),  # empties right leaves
    st.tuples(st.just("clear"), st.just(0)),
    st.tuples(st.just("bulk_load"), st.lists(_KEY, max_size=40)))


@SETTINGS
@given(initial=st.lists(_KEY, max_size=60),
       steps=st.lists(_BTREE_STEP, max_size=40))
def test_btree_key_bounds_are_the_extremes_of_the_live_keys(initial, steps):
    """Deletion is lazy (emptied leaves stay linked): the two descents must
    step over them, at either end, down to an index emptied entirely."""
    index = BTreeIndex("p", AddressSpace(), leaf_capacity=4, internal_capacity=4)
    next_rid = iter(range(10_000))
    live = {}  # rid -> key

    def add(keys, bulk):
        entries = [(key, RecordId(0, next(next_rid))) for key in keys]
        if bulk:
            index.bulk_load(entries)
        else:
            for key, rid in entries:
                index.insert(key, rid)
        live.update((rid, key) for key, rid in entries)

    def remove(rids):
        for rid in rids:
            assert index.delete(live.pop(rid), rid) == 1

    def check():
        keys = index.keys_in_order()
        assert sorted(live.values()) == keys
        assert index.key_bounds() == ((keys[0], keys[-1]) if keys else None)
        index.check_invariants()

    add(initial, bulk=True)
    check()
    for action, argument in steps:
        by_key = sorted(live, key=lambda rid: (live[rid], rid.slot))
        if action == "insert":
            add([argument], bulk=False)
        elif action == "delete":
            doomed = [rid for rid in by_key if live[rid] == argument]
            assert index.delete(argument) == len(doomed)
            for rid in doomed:
                del live[rid]
        elif action == "delete_one":
            remove([rid for rid in by_key if live[rid] == argument][:1])
        elif action == "drain_low":
            remove(by_key[:argument])
        elif action == "drain_high":
            remove(by_key[-argument:])
        elif action == "clear":
            remove(by_key)
        elif not live:                      # bulk_load needs an empty index
            add(argument, bulk=True)
        check()


# ---------------------------------------------------------------------------
# Predicate semantics match the planner's bounds
# ---------------------------------------------------------------------------
@SETTINGS
@given(values=st.lists(st.integers(min_value=0, max_value=1_000), min_size=1, max_size=200),
       low=st.integers(min_value=-10, max_value=1_000),
       width=st.integers(min_value=0, max_value=500))
def test_range_predicate_agrees_with_python_filter(values, low, width):
    high = low + width
    predicate = range_predicate("a2", low, high)
    selected = [v for v in values if predicate.evaluate({"a2": v})]
    assert selected == [v for v in values if low < v < high]


# ---------------------------------------------------------------------------
# Vectorized batch boundaries never change the row stream
# ---------------------------------------------------------------------------
def _scan_catalog(rows=240, seed=1999) -> Catalog:
    import random
    catalog = Catalog()
    schema, _ = microbenchmark_schema(100, "R")
    table = catalog.create_table("R", schema, record_size=100)
    rng = random.Random(seed)
    table.insert_many(*schema.transpose(
        (i, rng.randint(0, 100), rng.randint(0, 1000)) for i in range(rows)))
    catalog.create_index("R", "a2")
    return catalog


#: Shared dataset: the examples vary predicate and batch geometry, not data.
_SCAN_CATALOG = _scan_catalog()


def _run_engines(plan, batch_size):
    rows = {}
    for engine in ("tuple", "vectorized"):
        ctx = ExecutionContext(
            SimulatedProcessor(os_interference=None), SYSTEM_B,
            _SCAN_CATALOG.address_space,
            execution=ExecutionConfig(engine=engine, batch_size=batch_size))
        rows[engine] = execute_plan(plan, _SCAN_CATALOG, ctx)
    return rows


@SCAN_SETTINGS
@given(low=st.integers(min_value=-10, max_value=100),
       width=st.integers(min_value=0, max_value=110),
       batch_size=st.integers(min_value=1, max_value=300))
def test_vectorized_seq_scan_never_drops_duplicates_or_reorders(low, width, batch_size):
    """Whatever the predicate selectivity and batch geometry, the vectorized
    scan must emit exactly the tuple engine's ordered row stream."""
    plan = SeqScanPlan(table="R", predicate=range_predicate("a2", low, low + width))
    rows = _run_engines(plan, batch_size)
    assert rows["vectorized"] == rows["tuple"]
    # And the stream is the ground-truth filter over storage order.
    table = _SCAN_CATALOG.table("R")
    expected = [a2 for _, a2, _ in (table.heap.read_values(e.rid)
                                    for e in table.heap.scan())
                if low < a2 < low + width]
    assert [row["a2"] for row in rows["tuple"]] == expected


@SCAN_SETTINGS
@given(low=st.integers(min_value=0, max_value=100),
       width=st.integers(min_value=0, max_value=60),
       batch_size=st.integers(min_value=1, max_value=300))
def test_vectorized_index_scan_matches_tuple_row_stream(low, width, batch_size):
    plan = IndexRangeScanPlan(table="R", column="a2", low=low, high=low + width,
                              include_low=True, include_high=True)
    rows = _run_engines(plan, batch_size)
    assert rows["vectorized"] == rows["tuple"]
    produced = [row["a2"] for row in rows["tuple"]]
    assert produced == sorted(produced)  # index order preserved across batches


@SETTINGS
@given(values=st.lists(st.tuples(st.integers(-2**31, 2**31 - 1),
                                 st.integers(-2**31, 2**31 - 1),
                                 st.integers(-2**31, 2**31 - 1)),
                       min_size=1, max_size=60),
       padding=st.integers(min_value=0, max_value=88))
def test_pax_page_roundtrips_any_records(values, padding):
    schema = Schema.of(Column("a1"), Column("a2"), Column("a3"))
    layout = RecordLayout.build(schema, record_size=12 + padding)
    page = PaxPage(0, 0x4000_0000, layout, page_size=8192)
    stored = {}
    for row in values:
        if not page.has_room_for(layout.record_size):
            break
        stored[page.insert(layout.encode(row))] = row
    for slot, row in stored.items():
        assert layout.decode(page.record_bytes(slot)) == row
    for name in ("a1", "a2", "a3"):
        index = schema.index_of(name)
        slots = sorted(stored)
        assert page.column_values(name, slots) == [stored[s][index] for s in slots]


# ---------------------------------------------------------------------------
# Address space invariants
# ---------------------------------------------------------------------------
@SETTINGS
@given(requests=st.lists(st.tuples(st.sampled_from(["heap", "index", "workspace", "code"]),
                                   st.integers(min_value=1, max_value=10_000)),
                         min_size=1, max_size=100))
def test_address_space_allocations_never_overlap(requests):
    space = AddressSpace()
    allocations = []
    for region, size in requests:
        base = space.allocate(region, size)
        allocations.append((base, size, region))
        assert space.region_of(base) == region
    allocations.sort()
    for (b1, s1, _), (b2, _, _) in zip(allocations, allocations[1:]):
        assert b1 + s1 <= b2
