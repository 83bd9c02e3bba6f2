"""Differential tests: native cache automaton vs. the pure-Python oracle.

``repro.hardware.cache`` routes ``access``/``access_strided``/``access_lines``
through the compiled ``_cachesim`` extension when it is available.  The
contract is total: the native automaton must leave the cache in the exact
same state (per-set MRU order, dirty sets) and produce the exact same
statistics (per-port accesses/misses, writebacks, at every level) as the
pure-Python machine, for any interleaving of operations.  These tests
replay random traces through both implementations and compare everything.

The pure-Python oracle is obtained by monkeypatching the module-level
``_NATIVE`` handle to ``None`` -- the same switch ``REPRO_NATIVE=0`` flips
at import time.
"""

import pytest

from hypothesis import given, settings, strategies as st

import repro.hardware.cache as cache_mod
from repro.hardware.cache import (Cache, CacheHierarchy, PORT_DATA_READ,
                                  PORT_DATA_WRITE, PORT_INSTRUCTION)
from repro.hardware.specs import CacheSpec, PENTIUM_II_XEON

pytestmark = pytest.mark.skipif(
    cache_mod._NATIVE is None,
    reason="native _cachesim extension unavailable; pure-Python path is the only path")


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
    return (
        [list(lines) for lines in cache._sets],
        [set(dirty) for dirty in cache._dirty],
        dict(cache.stats.as_dict()),
    )


def hierarchy_state(hier: CacheHierarchy):
    return tuple(full_state(c) for c in (hier.l1d, hier.l1i, hier.l2))


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


def replay(hier: CacheHierarchy, trace) -> list:
    """Run a trace against a hierarchy, returning every miss count observed."""
    observed = []
    for step in trace:
        op = step[0]
        if op == "access":
            _, addr, port, size, write = step
            observed.append(hier.l1d.access(addr, port, size=size, write=write))
        elif op == "strided":
            _, addr, stride, count, size, write = step
            port = PORT_DATA_WRITE if write else PORT_DATA_READ
            observed.append(
                hier.l1d.access_strided(addr, stride, count, size, port, write=write))
        elif op == "lines":
            _, start, step_lines, count = step
            line = hier.l1i._line_bytes if hasattr(hier.l1i, "_line_bytes") else 32
            addrs = range(start, start + count * step_lines * 32, step_lines * 32)
            observed.append(hier.l1i.access_lines(addrs, PORT_INSTRUCTION))
        elif op == "invalidate":
            _, fraction = step
            observed.append(hier.l1d.invalidate_fraction(fraction))
    return observed


class _pure_python:
    """Temporarily disable the native fast path (same switch as REPRO_NATIVE=0)."""

    def __enter__(self):
        self._saved = cache_mod._NATIVE
        cache_mod._NATIVE = None

    def __exit__(self, *exc):
        cache_mod._NATIVE = self._saved
        return False


@settings(max_examples=120, deadline=None)
@given(st.lists(_step, min_size=1, max_size=60))
def test_native_trace_matches_pure_python(trace):
    native_hier = tiny_hierarchy()
    native_misses = replay(native_hier, trace)
    native_state = hierarchy_state(native_hier)

    with _pure_python():
        oracle_hier = tiny_hierarchy()
        oracle_misses = replay(oracle_hier, trace)
        oracle_state = hierarchy_state(oracle_hier)

    assert native_misses == oracle_misses
    assert native_state == oracle_state


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 16),
       st.integers(min_value=1, max_value=128),
       st.integers(min_value=1, max_value=200),
       st.integers(min_value=1, max_value=32),
       st.booleans())
def test_native_strided_matches_elementwise(addr, stride, count, size, write):
    """Bulk strided access equals ``count`` individual accesses, natively too."""
    port = PORT_DATA_WRITE if write else PORT_DATA_READ
    bulk = tiny_hierarchy()
    bulk_misses = bulk.l1d.access_strided(addr, stride, count, size, port, write=write)

    with _pure_python():
        loop = tiny_hierarchy()
        loop_misses = sum(loop.l1d.access(addr + i * stride, port, size=size, write=write)
                          for i in range(count))

    assert bulk_misses == loop_misses
    assert hierarchy_state(bulk) == hierarchy_state(loop)


def test_native_pentium_profile_smoke():
    """The real Pentium II Xeon profile agrees natively vs. pure-Python."""
    def run(hier):
        for i in range(0, 4096, 8):
            hier.l1d.access(i * 13 % 65536, PORT_DATA_READ, size=8)
            if i % 3 == 0:
                hier.l1d.access(i * 7 % 65536, PORT_DATA_WRITE, size=8, write=True)
        hier.l1i.access_lines(range(0, 128 * 32, 32), PORT_INSTRUCTION)
        return hierarchy_state(hier)

    native = run(CacheHierarchy(PENTIUM_II_XEON.l1d, PENTIUM_II_XEON.l1i,
                                PENTIUM_II_XEON.l2))
    with _pure_python():
        oracle = run(CacheHierarchy(PENTIUM_II_XEON.l1d, PENTIUM_II_XEON.l1i,
                                    PENTIUM_II_XEON.l2))
    assert native == oracle
