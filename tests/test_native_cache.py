"""Differential tests: the native hardware automata vs. the reference machine.

``Cache``, ``TLB`` and ``BranchPredictor`` hold a ``_cachesim`` state object
and call into it for every method.  The contract is total: the native
automaton must leave the exact same state (per-set MRU order, dirty lines;
LRU page order; BTB tags, histories and pattern tables) and produce the
exact same statistics and return values as the pure-Python reference
machine (``reference_machine.py``), for any interleaving of operations.
These tests replay random traces through both implementations and compare
everything, through ``snapshot()`` -- the canonical shape both sides return.

The oracle is *constructed* on the reference machine (the
``reference_machine`` fixture of ``conftest.py``): an automaton's state is
built at construction and never mixed, so an object built inside the block
is pure Python for life.
"""

import math

import pytest

from hypothesis import given, settings, strategies as st

import reference_machine as reference
import repro.hardware.cache as cache_mod
from repro.hardware.branch import BranchPredictor
from repro.hardware.cache import (Cache, CacheHierarchy, PORT_DATA_READ,
                                  PORT_DATA_WRITE, PORT_INSTRUCTION)
from repro.hardware.specs import BranchSpec, CacheSpec, PENTIUM_II_XEON, TLBSpec
from repro.hardware.tlb import TLB


def tiny_hierarchy() -> CacheHierarchy:
    """A deliberately tiny hierarchy so random traces cause heavy eviction."""
    l1d = CacheSpec(name="l1d", size_bytes=512, line_bytes=32, associativity=2,
                    write_back=True)
    l1i = CacheSpec(name="l1i", size_bytes=512, line_bytes=32, associativity=2,
                    write_back=False)
    l2 = CacheSpec(name="l2", size_bytes=2048, line_bytes=32, associativity=4,
                   write_back=True)
    return CacheHierarchy(l1d, l1i, l2)


def full_state(cache: Cache):
    sets, dirty = cache.snapshot()
    return sets, dirty, dict(cache.stats.as_dict())


def hierarchy_state(hier: CacheHierarchy):
    return tuple(full_state(c) for c in (hier.l1d, hier.l1i, hier.l2))


def build_pair(reference_machine, factory):
    """``(native, oracle)`` from one factory; the oracle holds no C state."""
    native = factory()
    with reference_machine():
        oracle = factory()
    return native, oracle


def hierarchy_pair(reference_machine, factory=tiny_hierarchy):
    native, oracle = build_pair(reference_machine, factory)
    for cache in (native.l1d, native.l1i, native.l2):
        assert type(cache._native) is cache_mod._NATIVE.CacheState
    for cache in (oracle.l1d, oracle.l1i, oracle.l2):
        assert type(cache._native) is reference.CacheState
    return native, oracle


# One trace step: (op, *args).  Addresses are kept small so sets collide.
_addr = st.integers(min_value=0, max_value=1 << 14)
_step = st.one_of(
    st.tuples(st.just("access"), _addr, st.sampled_from([PORT_DATA_READ, PORT_DATA_WRITE]),
              st.integers(min_value=1, max_value=64), st.booleans()),
    st.tuples(st.just("strided"), _addr, st.integers(min_value=1, max_value=96),
              st.integers(min_value=1, max_value=40),
              st.integers(min_value=1, max_value=16), st.booleans()),
    st.tuples(st.just("lines"), _addr, st.integers(min_value=1, max_value=4),
              st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("invalidate"), st.floats(min_value=0.0, max_value=1.0)),
)


def replay(hier: CacheHierarchy, trace, data_cache=None) -> list:
    """Run a trace against a hierarchy, returning every miss count observed.

    Data-port steps go to ``data_cache`` (default: the L1D).
    """
    data = hier.l1d if data_cache is None else data_cache
    observed = []
    for step in trace:
        op = step[0]
        if op == "access":
            _, addr, port, size, write = step
            observed.append(data.access(addr, port, size=size, write=write))
        elif op == "strided":
            _, addr, stride, count, size, write = step
            port = PORT_DATA_WRITE if write else PORT_DATA_READ
            observed.append(
                data.access_strided(addr, stride, count, size, port, write=write))
        elif op == "lines":
            _, start, step_lines, count = step
            addrs = range(start, start + count * step_lines * 32, step_lines * 32)
            observed.append(hier.l1i.access_lines(addrs, PORT_INSTRUCTION))
        elif op == "invalidate":
            _, fraction = step
            observed.append(data.invalidate_fraction(fraction))
    return observed


@settings(max_examples=120, deadline=None)
@given(st.lists(_step, min_size=1, max_size=60))
def test_native_trace_matches_pure_python(reference_machine, trace):
    native_hier, oracle_hier = hierarchy_pair(reference_machine)
    assert replay(native_hier, trace) == replay(oracle_hier, trace)
    assert hierarchy_state(native_hier) == hierarchy_state(oracle_hier)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 16),
       st.integers(min_value=1, max_value=128),
       st.integers(min_value=1, max_value=200),
       st.integers(min_value=1, max_value=32),
       st.booleans())
def test_native_strided_matches_elementwise(reference_machine, addr, stride, count,
                                            size, write):
    """Bulk strided access equals ``count`` individual accesses, natively too."""
    port = PORT_DATA_WRITE if write else PORT_DATA_READ
    bulk, loop = hierarchy_pair(reference_machine)
    bulk_misses = bulk.l1d.access_strided(addr, stride, count, size, port, write=write)
    loop_misses = sum(loop.l1d.access(addr + i * stride, port, size=size, write=write)
                      for i in range(count))
    assert bulk_misses == loop_misses
    assert hierarchy_state(bulk) == hierarchy_state(loop)


def test_native_pentium_profile_smoke(reference_machine):
    """The real Pentium II Xeon profile agrees natively and on the reference."""
    def run(hier):
        for i in range(0, 4096, 8):
            hier.l1d.access(i * 13 % 65536, PORT_DATA_READ, size=8)
            if i % 3 == 0:
                hier.l1d.access(i * 7 % 65536, PORT_DATA_WRITE, size=8, write=True)
        hier.l1i.access_lines(range(0, 128 * 32, 32), PORT_INSTRUCTION)
        return hierarchy_state(hier)

    native, oracle = hierarchy_pair(
        reference_machine, lambda: CacheHierarchy(PENTIUM_II_XEON.l1d, PENTIUM_II_XEON.l1i,
                                            PENTIUM_II_XEON.l2))
    assert run(native) == run(oracle)


@settings(max_examples=80, deadline=None)
@given(st.lists(_step, min_size=1, max_size=60))
def test_write_through_l1_over_write_back_l2(reference_machine, trace):
    """Data traffic through the write-through L1 (the ``l1i`` spec) forwards
    every write miss, and every eviction of a line dirtied by a write hit,
    to the write-back L2 on its write port."""
    native_hier, oracle_hier = hierarchy_pair(reference_machine)
    assert (replay(native_hier, trace, data_cache=native_hier.l1i)
            == replay(oracle_hier, trace, data_cache=oracle_hier.l1i))
    assert hierarchy_state(native_hier) == hierarchy_state(oracle_hier)


def test_write_through_forwarding_is_exercised(reference_machine):
    native_hier, oracle_hier = hierarchy_pair(reference_machine)
    for hier in (native_hier, oracle_hier):
        for i in range(64):
            hier.l1i.access(i * 32, PORT_DATA_WRITE, size=4, write=True)
        assert hier.l2.stats.accesses[PORT_DATA_WRITE] == 64
        assert hier.l1i.stats.writebacks == 0
    assert hierarchy_state(native_hier) == hierarchy_state(oracle_hier)


def test_three_level_chain_matches(reference_machine):
    """The native recursion follows ``next_level`` to any depth, with each
    level's events folded into that level's own statistics."""
    def chain():
        l3 = Cache(CacheSpec(name="l3", size_bytes=4096, line_bytes=32,
                             associativity=4, write_back=True))
        l2 = Cache(CacheSpec(name="l2", size_bytes=1024, line_bytes=32,
                             associativity=2, write_back=True), next_level=l3)
        return Cache(CacheSpec(name="l1", size_bytes=256, line_bytes=32,
                               associativity=2, write_back=True), next_level=l2)

    def levels(l1):
        return [full_state(c) for c in (l1, l1.next_level, l1.next_level.next_level)]

    native, oracle = build_pair(reference_machine, chain)
    for l1 in (native, oracle):
        for i in range(600):
            write = i % 3 == 0
            l1.access_strided((i * 7919) % (1 << 14), 40, 5, 8,
                              PORT_DATA_WRITE if write else PORT_DATA_READ, write)
    assert levels(native) == levels(oracle)
    assert native.next_level.next_level.stats.writebacks > 0


def test_native_and_pure_python_levels_cannot_be_chained(reference_machine):
    """Each state type takes only its own kind as the next level."""
    spec = CacheSpec(name="c", size_bytes=512, line_bytes=32, associativity=2)
    native_l2 = Cache(spec)
    with reference_machine():
        oracle_l2 = Cache(spec)
        with pytest.raises(TypeError, match="next level must be a CacheState"):
            Cache(spec, next_level=native_l2)
    with pytest.raises(TypeError, match="next level must be a CacheState"):
        Cache(spec, next_level=oracle_l2)


# ------------------------------------------------ contents and invalidation


def test_contents_queries_and_invalidate_all_match(reference_machine):
    native_hier, oracle_hier = hierarchy_pair(reference_machine)
    probes = [i * 24 for i in range(400)]
    for hier in (native_hier, oracle_hier):
        hier.l1d.warm(range(0, 2048, 16))
        assert hier.l1d.stats.total_accesses == 0       # warm-up counts nothing
        for i in range(200):
            hier.l1d.access((i * 52) % 4096, PORT_DATA_WRITE, size=8, write=i % 2 == 0)
    assert ([native_hier.l1d.contains(a) for a in probes]
            == [oracle_hier.l1d.contains(a) for a in probes])
    assert ([native_hier.l2.contains(a) for a in probes]
            == [oracle_hier.l2.contains(a) for a in probes])
    assert native_hier.l1d.resident_lines() == oracle_hier.l1d.resident_lines() == 16
    assert native_hier.l2.resident_lines() == oracle_hier.l2.resident_lines()
    assert hierarchy_state(native_hier) == hierarchy_state(oracle_hier)
    assert native_hier.l1d.invalidate_all() == oracle_hier.l1d.invalidate_all() == 16
    assert native_hier.l1d.resident_lines() == 0
    assert not any(native_hier.l1d.contains(a) for a in probes)
    assert hierarchy_state(native_hier) == hierarchy_state(oracle_hier)


_ASSOC = 4
_FRACTIONS = (0.0, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0)


def one_set_pair(reference_machine, resident: int):
    """A one-set, 4-way cache pair holding ``resident`` lines, the
    odd-numbered ones dirty."""
    spec = CacheSpec(name="one_set", size_bytes=32 * _ASSOC, line_bytes=32,
                     associativity=_ASSOC, write_back=True)
    pair = build_pair(reference_machine, lambda: Cache(spec))
    for cache in pair:
        for line in range(resident):
            cache.access(line * 32, PORT_DATA_WRITE if line % 2 else PORT_DATA_READ,
                         write=bool(line % 2))
    return pair


def assert_invalidation_matches(native, oracle, fraction):
    resident = oracle.resident_lines()
    assert native.invalidate_fraction(fraction) == oracle.invalidate_fraction(fraction)
    assert full_state(native) == full_state(oracle)
    sets, dirty = native.snapshot()
    assert dirty[0] <= set(sets[0])          # victims' dirty bits went with them
    if 0.0 < fraction < 1.0:
        # Python's round() is half-to-even; lround or +0.5 would differ.
        assert len(sets[0]) == int(round(resident * (1.0 - fraction)))


@pytest.mark.parametrize("fraction", _FRACTIONS)
@pytest.mark.parametrize("resident", range(_ASSOC + 1))
def test_invalidate_fraction_rounds_half_to_even(reference_machine, resident, fraction):
    native, oracle = one_set_pair(reference_machine, resident)
    assert_invalidation_matches(native, oracle, fraction)


def test_invalidate_fraction_half_keeps_even_counts(reference_machine):
    """The default ``l1i_flush_fraction = 0.5``: 1 line keeps 0, 3 keep 2."""
    for resident, kept in ((1, 0), (2, 1), (3, 2), (4, 2)):
        native, oracle = one_set_pair(reference_machine, resident)
        native.invalidate_fraction(0.5)
        oracle.invalidate_fraction(0.5)
        assert native.resident_lines() == oracle.resident_lines() == kept


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=_ASSOC),
       st.floats(min_value=-0.5, max_value=1.5, allow_nan=False))
def test_invalidate_fraction_matches_for_any_float(reference_machine, resident, fraction):
    native, oracle = one_set_pair(reference_machine, resident)
    assert_invalidation_matches(native, oracle, fraction)


def test_invalidate_fraction_rejects_nan_on_both_sides(reference_machine):
    for cache in one_set_pair(reference_machine, 3):
        with pytest.raises(ValueError):
            cache.invalidate_fraction(math.nan)
        assert cache.resident_lines() == 3


# ------------------------------------------------------------ TLB and BTB

_TINY_TLB = TLBSpec(name="tiny", entries=4, page_bytes=4096)
_TINY_BTB = BranchSpec(btb_entries=4, btb_associativity=2, history_bits=2)

# 12 pages over 4 entries: LRU eviction on every example of any length.
_tlb_addr = st.integers(min_value=0, max_value=12 * 4096 - 1)
_tlb_step = st.one_of(
    st.tuples(st.just("access"), _tlb_addr),
    st.tuples(st.just("bulk"), _tlb_addr, st.integers(min_value=1, max_value=9)),
    st.tuples(st.just("flush")),
)


def replay_tlb(tlb: TLB, trace) -> list:
    observed = []
    for step in trace:
        if step[0] == "access":
            observed.append(tlb.access(step[1]))
        elif step[0] == "bulk":
            # ``count`` same-page translations in one call, as the
            # charging paths make them.
            observed.append(tlb._native.access(step[1], step[2]))
        else:
            observed.append(tlb.flush())
        observed.append((tlb.resident_pages(), tlb.contains(step[1] if len(step) > 1 else 0)))
    return observed


@settings(max_examples=120, deadline=None)
@given(st.lists(_tlb_step, min_size=1, max_size=80))
def test_tlb_trace_matches_pure_python(reference_machine, trace):
    native, oracle = build_pair(reference_machine, lambda: TLB(_TINY_TLB))
    assert type(oracle._native) is reference.TLBState
    # Eight distinct pages up front: the 4-entry TLB evicts on every example.
    trace = [("access", page * 4096) for page in range(8)] + trace
    assert replay_tlb(native, trace) == replay_tlb(oracle, trace)
    assert native.snapshot() == oracle.snapshot()
    assert native.stats == oracle.stats
    assert native.stats.misses >= 8


# Sites 16 bytes apart map to consecutive predictor entries: 6 sites over
# 2 sets x 2 ways evict, and runs of one outcome saturate the counters.
_btb_step = st.one_of(
    st.tuples(st.just("execute"), st.integers(0, 5), st.booleans(), st.booleans()),
    st.tuples(st.just("run"), st.integers(0, 5), st.booleans(), st.integers(1, 6)),
    st.tuples(st.just("flush")),
)


def replay_btb(unit: BranchPredictor, trace) -> list:
    observed = []
    for step in trace:
        if step[0] == "execute":
            _, site, taken, backward = step
            observed.append(unit.execute(0x4000 + site * 16, taken, backward))
        elif step[0] == "run":
            _, site, taken, length = step
            observed.extend(unit.execute(0x4000 + site * 16, taken)
                            for _ in range(length))
        else:
            unit.flush()
        observed.append(unit.resident_entries())
    return observed


@settings(max_examples=120, deadline=None)
@given(st.lists(_btb_step, min_size=1, max_size=80))
def test_btb_trace_matches_pure_python(reference_machine, trace):
    native, oracle = build_pair(reference_machine, lambda: BranchPredictor(_TINY_BTB))
    assert type(oracle._native) is reference.BTBState
    # Saturate one site upwards and downwards, then allocate three sites in
    # one set (an eviction), whatever the drawn trace does.
    trace = ([("run", 0, True, 6), ("run", 0, False, 6)]
             + [("execute", site, True, False) for site in (0, 2, 4)] + trace)
    assert replay_btb(native, trace) == replay_btb(oracle, trace)
    assert native.snapshot() == oracle.snapshot()
    assert native.stats == oracle.stats


def test_btb_counters_saturate_and_ways_evict(reference_machine):
    native, oracle = build_pair(reference_machine, lambda: BranchPredictor(_TINY_BTB))
    for unit in (native, oracle):
        for _ in range(8):
            unit.execute(0x4000, True)
        for site in (2, 4):                       # same set as site 0
            unit.execute(0x4000 + site * 16, True)
    assert native.snapshot() == oracle.snapshot()
    ways = native.snapshot()[0]
    assert [tag for tag, _, _ in ways] == [(0x4000 >> 4) + 4, (0x4000 >> 4) + 2]
    assert native.resident_entries() == 2
    for unit in (native, oracle):
        unit.flush()
        for _ in range(8):
            unit.execute(0x4000, True)
    (_, history, counters), = native.snapshot()[0]
    assert history == 3 and max(counters) == 3    # saturated, not wrapped
    assert native.snapshot() == oracle.snapshot()


# ------------------------------------------------- a failure is reported


def test_load_status_names_what_happened(monkeypatch):
    """No extension, no import: ``load_native`` raises ``ImportError``
    whose message is the status string."""
    from repro.hardware import native
    assert native.load_status() == "loaded"
    assert native.load_native() is cache_mod._NATIVE
    # Every call a first load.  A different compiler or different flags are
    # a different build key, so neither of these can pick up (or clobber)
    # the .so this run loaded.
    monkeypatch.setattr(native, "_load", native._load.__wrapped__)
    monkeypatch.setenv("CC", "no-such-compiler-on-path")
    with pytest.raises(ImportError) as failure:
        native.load_native()
    assert (str(failure.value) == native.load_status()
            == "unavailable: no C compiler (no-such-compiler-on-path)")
    monkeypatch.delenv("CC")
    monkeypatch.setenv("CFLAGS", "-include no_such_header_anywhere.h")
    with pytest.raises(ImportError) as failure:
        native.load_native()
    status = native.load_status()
    assert str(failure.value) == status
    assert status.startswith("unavailable: compile failed: ")
    assert "no_such_header_anywhere.h" in status
    monkeypatch.undo()
    assert native.load_native() is cache_mod._NATIVE      # the cached load stands
