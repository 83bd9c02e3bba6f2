"""The read-through / write-through contract of a processor.

A processor keeps everything a charged operation counts in its charging
block (``_cachesim.Machine``: the user counter bank, each automaton's
statistics, the OS-interference clock, the per-visit bookkeeping of its
contexts), and Python only ever sees views of it.  The contract pinned here:

* every public accessor presents the C values of the moment -- after *each*
  step of an interleaving of every charging entry point with every reader,
  a native context and the reference machine observe the same thing;
* a snapshot never aliases the live bank;
* an assignment through a view lands in C or raises -- it is never dropped;
* the interrupt handler is the only way back into Python, entered exactly on
  the visits in which an interrupt fires, and a handler that raises leaves
  the native side where the oracle is;
* a disabled OS model is no model.

The oracle is built on the reference machine (``reference_machine`` in
``conftest.py``); the state helpers are those of ``test_native_charging``.
"""

import dataclasses
import random

import pytest

from hypothesis import given, settings, strategies as st

import repro.hardware.cache as cache_mod
from repro.execution.context import ExecutionContext
from repro.hardware.counters import EVENT_NAMES, EventCounters, NativeBank
from repro.hardware.os_interference import OSInterferenceConfig
from repro.hardware.processor import SimulatedProcessor
from repro.observability.spans import capture_snapshot
from repro.storage import Catalog, microbenchmark_schema
from repro.storage.address_space import AddressSpace
from repro.storage.page import RecordId
from repro.systems import SYSTEM_B, SYSTEM_C
from test_native_charging import (_ctx_step, _os_config, assert_states_identical,
                                  context_pair, context_state, processor_pair,
                                  processor_state, replay_context, segment_names)

def test_the_two_event_vocabularies_are_one():
    assert cache_mod._NATIVE.EVENT_NAMES == EVENT_NAMES


# ------------------------------------------------ every accessor, every step


def observe(ctx: ExecutionContext, baseline: EventCounters):
    """What a reader sees through every public accessor, right now."""
    processor = ctx.processor
    counters = processor.counters
    snapshot = counters.snapshot()
    span = capture_snapshot(ctx)
    seen = context_state(ctx)      # dict(user), stats.as_dict(), snapshots, ...
    seen.update({
        "snapshot": (snapshot.user, snapshot.sup),
        "diff": counters.diff(baseline).user,
        "get": [counters.get(event) for event in EVENT_NAMES],
        "user_items": sorted(counters.user.items()),
        "as_dict": counters.as_dict(),
        "l1d_misses": ctx.l1d_misses(),
        "hierarchy": processor.caches.snapshot(),
        "span": (span.user, span.sup, span.l1i_stall_cycles, span.l2_accesses,
                 span.l2_misses, span.l2_writebacks),
    })
    return seen


def apply_step(ctx: ExecutionContext, step):
    processor = ctx.processor
    op, args = step[0], step[1:]
    if op in ("visit", "batch", "conjunct", "read", "write"):
        replay_context(ctx, [step])
    elif op == "page_io":
        (ctx.page_io_out if args[0] else ctx.page_io_in)(args[1], 256)
    elif op == "finalize":
        return processor.finalize().as_dict()
    elif op == "reset_counters":
        processor.reset_counters()
    elif op == "reset_stats":
        processor.caches.reset_stats()
        processor.dtlb.reset_stats()
        processor.itlb.reset_stats()
        processor.branch_unit.reset_stats()
    elif op == "warm":
        processor.caches.l1d.warm(range(args[0], args[0] + 4096, 32))
    else:                           # a SimulatedProcessor method by name
        return getattr(processor, op)(*args)


_addr = st.integers(min_value=0, max_value=1 << 16)
_small = st.integers(min_value=0, max_value=400)
_step = st.one_of(
    _ctx_step,
    st.tuples(st.just("read"), _addr, st.integers(1, 64)),
    st.tuples(st.just("write"), _addr, st.integers(1, 64)),
    st.tuples(st.just("page_io"), st.booleans(), _addr),
    st.tuples(st.just("data_read_strided"), _addr, st.integers(-8, 96),
              st.integers(1, 48), st.integers(1, 16)),
    st.tuples(st.just("data_write_strided"), _addr, st.integers(-8, 96),
              st.integers(1, 48), st.integers(1, 16)),
    st.tuples(st.just("data_read_span"), _addr, st.integers(1, 512),
              st.integers(1, 64)),
    st.tuples(st.just("data_read_fields"), _addr,
              st.lists(st.tuples(st.integers(0, 96), st.integers(1, 16)),
                       max_size=4).map(tuple)),
    st.tuples(st.just("fetch_code_run"), _addr, st.integers(0, 40)),
    st.tuples(st.just("fetch_code"),
              st.lists(_addr.map(lambda a: a & ~31), max_size=6).map(tuple)),
    st.tuples(st.just("retire"), _small, _small),
    st.tuples(st.just("count_data_refs"), _small),
    st.tuples(st.just("count_branches"), _small, _small, _small, _small),
    st.tuples(st.just("add_resource_stalls"), st.floats(0, 50), st.floats(0, 50),
              st.floats(0, 50)),
    st.tuples(st.just("record_done"), st.integers(0, 5)),
    st.tuples(st.just("branch"), _addr, st.booleans(), st.booleans()),
    st.tuples(st.just("finalize")),
    st.tuples(st.just("reset_counters")),
    st.tuples(st.just("reset_stats")),
    st.tuples(st.just("warm"), _addr),
)


@settings(max_examples=40, deadline=None)
@given(_os_config, st.lists(_step, min_size=1, max_size=30))
def test_every_accessor_reads_through_after_every_step(reference_machine, config, trace):
    native, oracle = context_pair(reference_machine, os_interference=config)
    assert isinstance(native.processor.counters.user, NativeBank)
    assert isinstance(oracle.processor.counters.user, NativeBank)
    baselines = [ctx.processor.counters.snapshot() for ctx in (native, oracle)]
    for step in [("visit", 0, None)] + trace:
        assert apply_step(native, step) == apply_step(oracle, step), step
        seen = observe(native, baselines[0])
        expected = observe(oracle, baselines[1])
        for key in expected:
            assert seen[key] == expected[key], f"{key} diverged after {step}"


def test_degenerate_cold_pool_is_visited_natively_and_identically(reference_machine):
    """A cold slice that wraps the whole pool re-fetches lines within one
    visit; the native visit handles it (``fetch_code`` over the slice)."""
    profile = dataclasses.replace(SYSTEM_B, cold_code_pool_bytes=256)
    native, oracle = context_pair(reference_machine, profile,
                                  OSInterferenceConfig(interval_instructions=3000))
    for ctx in (native, oracle):
        names = segment_names(ctx)
        wrapping = [name for name in names
                    if ctx.layout.segment(name).cold_lines_per_visit
                    >= ctx.layout.cold_pool_lines]
        assert wrapping and len(wrapping) < len(names)
        for i in range(120):
            ctx.visit(names[i % len(names)], data_taken=bool(i % 3))
    assert_states_identical(context_state(native), context_state(oracle))


# ------------------------------------------------------- views, not copies


def test_a_snapshot_never_aliases_the_live_bank():
    processor = SimulatedProcessor()
    processor.data_read_strided(0x1000, 32, 64, 4)
    snapshot = processor.counters.snapshot()
    copied = processor.counters.user.copy()
    frozen = dict(snapshot.user)
    assert type(snapshot.user) is dict and type(copied) is dict
    processor.data_read_strided(0x9000, 32, 64, 4)
    assert snapshot.user == copied == frozen
    assert processor.counters.user["DATA_MEM_REFS"] == 128
    snapshot.user["DATA_MEM_REFS"] = 0          # nor the other way round
    copied.clear()
    assert processor.counters.get("DATA_MEM_REFS") == 128
    assert processor.finalize().user is not processor.counters.user


def test_bank_is_the_dict_it_stands_for(reference_machine):
    native, oracle = processor_pair(reference_machine)
    for processor in (native, oracle):
        user = processor.counters.user
        assert "DATA_MEM_REFS" not in user and len(user) == 0
        assert user.get("DATA_MEM_REFS") is None and user.get("NO_SUCH", 7) == 7
        with pytest.raises(KeyError):
            user["DATA_MEM_REFS"]
        processor.retire(0, 5)                   # counts 0 instructions: key present
        processor.data_read(0x40, 4)
        user["IFU_MEM_STALL"] = 9
        assert user.pop("IFU_MEM_STALL") == 9 and user.pop("IFU_MEM_STALL", None) is None
        with pytest.raises(KeyError):
            del user["IFU_MEM_STALL"]
        processor.counters.merge(EventCounters.from_dict({"BTB_MISSES": 4}))
    assert dict(native.counters.user) == dict(oracle.counters.user)
    assert native.counters.user == oracle.counters.user      # Mapping equality
    assert native.counters.user["INST_RETIRED"] == 0
    assert sorted(native.counters.user) == sorted(oracle.counters.user)
    for processor in (native, oracle):
        processor.counters.reset()
        assert dict(processor.counters.user) == {}
    with pytest.raises(KeyError):
        native.counters.user["NOT_AN_EVENT"] = 1  # nowhere to land: raises


def test_an_assignment_through_a_stats_view_lands_in_c_or_raises(reference_machine):
    native, oracle = processor_pair(reference_machine)
    for processor in (native, oracle):
        l1d, dtlb, unit = processor.caches.l1d, processor.dtlb, processor.branch_unit
        processor.data_read_strided(0x2000, 32, 16, 4)
        processor.branch(0x400, True)
        l1d.stats.writebacks += 3
        l1d.stats.accesses = [5, 6, 7]
        l1d.stats.add_bulk(0, 10, 2)
        dtlb.stats.misses = 41
        unit.stats.btb_hits += 2
    assert native.caches.l1d.stats == oracle.caches.l1d.stats
    assert native.caches.l1d.stats.as_dict() == oracle.caches.l1d.stats.as_dict()
    assert native.dtlb.stats == oracle.dtlb.stats
    assert native.branch_unit.stats == oracle.branch_unit.stats
    assert native.caches.l1d._native.accesses == (15, 6, 7)  # it is in C
    assert native.dtlb._native.misses == 41
    # What a copy would silently swallow raises instead.
    with pytest.raises(TypeError):
        native.caches.l1d.stats.accesses[0] += 1
    with pytest.raises((TypeError, ValueError)):
        native.caches.l1d.stats.misses = [1, 2]
    with pytest.raises(TypeError):
        native.dtlb.stats.accesses = "many"
    assert native.caches.l1d.stats == oracle.caches.l1d.stats
    # A held view follows a reset.
    held = native.caches.l1d.stats
    native.caches.reset_stats()
    assert held.total_accesses == 0 and held is native.caches.l1d.stats


def test_context_views_are_read_only_on_a_native_context(reference_machine):
    native, oracle = context_pair(reference_machine)
    for ctx in (native, oracle):
        for name in segment_names(ctx):
            ctx.visit(name)
    assert dict(native.op_invocations) == dict(oracle.op_invocations)
    assert dict(native._site_state) == dict(oracle._site_state) != {}
    with pytest.raises(TypeError):
        native.op_invocations["scan_next"] = 0
    with pytest.raises(TypeError):
        native._site_state[0] = 1


# --------------------------------------------------- the one way back to Python


def count_handler_entries(processor: SimulatedProcessor, fail_on=None):
    """Count entries of the interrupt handler of ``processor``; the
    ``fail_on``-th entry raises instead of servicing."""
    entries = []
    service = processor._service_interrupts

    def handler(count):
        entries.append(count)
        if len(entries) == fail_on:
            raise RuntimeError("interrupt handler failed")
        service(count)

    processor._service_interrupts = handler
    return entries


_visit_step = st.one_of(
    st.tuples(st.just("visit"), st.integers(0, 7), st.sampled_from([None, False, True])),
    st.tuples(st.just("read"), _addr, st.integers(1, 64)),
    st.tuples(st.just("write"), _addr, st.integers(1, 64)),
)


@settings(max_examples=25, deadline=None)
@given(_os_config, st.lists(_visit_step, min_size=1, max_size=40))
def test_handler_entered_exactly_on_the_visits_that_fire(config, trace):
    ctx = ExecutionContext(SimulatedProcessor(os_interference=config), SYSTEM_B,
                           AddressSpace())
    entries = count_handler_entries(ctx.processor)
    firing_visits = 0
    for step in [("visit", 0, None)] + trace:
        before = ctx.processor.os.interrupts
        replay_context(ctx, [step])
        firing_visits += ctx.processor.os.interrupts != before
    assert len(entries) == firing_visits > 0
    assert sum(entries) == ctx.processor.os.interrupts


@pytest.mark.parametrize("fail_on", [1, 2, 5])
def test_a_raising_handler_leaves_native_where_the_oracle_is(reference_machine, fail_on):
    """The visit stops at the hook on both paths: fetches and retirement are
    counted, the clock has advanced, the workspace and the branch sites are
    untouched -- and the next visits are identical again."""
    config = OSInterferenceConfig(interval_instructions=700)
    native, oracle = context_pair(reference_machine, os_interference=config)
    entries = [count_handler_entries(ctx.processor, fail_on) for ctx in (native, oracle)]
    for ctx in (native, oracle):
        names = segment_names(ctx)
        raised = 0
        for i in range(60):
            try:
                ctx.visit(names[i % len(names)], data_taken=bool(i % 2), repeat=1 + i % 2)
            except RuntimeError:
                raised += 1
        assert raised == 1
    assert entries[0] == entries[1] and len(entries[0]) > fail_on
    assert_states_identical(context_state(native), context_state(oracle))
    assert (native.processor.finalize().as_dict()
            == oracle.processor.finalize().as_dict())


def test_a_disabled_model_is_no_model(monkeypatch):
    entries = []
    for name in ("_advance_os_clock", "_service_interrupts"):
        original = getattr(SimulatedProcessor, name)
        monkeypatch.setattr(
            SimulatedProcessor, name,
            lambda self, count, _original=original: (entries.append(count),
                                                     _original(self, count))[1])
    contexts = [ExecutionContext(SimulatedProcessor(os_interference=config),
                                 SYSTEM_B, AddressSpace())
                for config in (None, OSInterferenceConfig(enabled=False))]
    snapshots = []
    for ctx in contexts:
        assert ctx.processor.os is None
        names = segment_names(ctx)
        for i in range(200):
            ctx.visit(names[i % len(names)])
        ctx.visit_batch(names[1], 5000)
        ctx.processor.retire(1_000_000)
        snapshots.append(ctx.processor.counters.snapshot())
    assert entries == []
    assert_states_identical(context_state(contexts[0]), context_state(contexts[1]))
    assert snapshots[0] == snapshots[1] and snapshots[0].sup == {}
    assert (contexts[0].processor.finalize().as_dict()
            == contexts[1].processor.finalize().as_dict())


def test_batch_bodies_identical_under_the_default_os_model(reference_machine):
    """``visit_batch``'s loop body and ``visit_conjunct_batch`` count in
    Python, through the same owner: ``retire`` ticks the clock the native
    visit ticks, and interrupts fire from both."""
    native, oracle = context_pair(reference_machine, os_interference=OSInterferenceConfig())
    for ctx in (native, oracle):
        names = segment_names(ctx)
        for i in range(40):
            ctx.visit_batch(names[i % len(names)], 400 + 37 * i)
            ctx.visit_conjunct_batch(names[(i + 1) % len(names)],
                                     [(i + j) % 3 == 0 for j in range(200)], site=i % 4)
            ctx.visit(names[(i + 2) % len(names)], data_taken=bool(i % 2))
        assert ctx.processor.os.interrupts > 5
    assert_states_identical(context_state(native), context_state(oracle))


# ------------------------------------------------------------- read_fields


def charge_per_field(processor, profile, entry, layout, columns):
    """The loads ``read_fields`` stands for, one ``data_read`` each."""
    page, slot = entry.page, entry.slot
    if profile.record_access_style == "fields_only":
        fields = [layout.field_slice(column) for column in columns]
    elif not page.columnar:
        fields = [(0, layout.record_size)]
    else:                           # every minipage slice, then the padding
        fields = [(layout.offsets[index], column.byte_width)
                  for index, column in enumerate(layout.schema)]
        if layout.padding_bytes:
            fields.append((layout.packed_size, layout.padding_bytes))
    for offset, width in fields:
        processor.data_read(page.field_address(slot, offset), width)


@pytest.mark.parametrize("layout_style", ["nsm", "pax"])
@pytest.mark.parametrize("profile", [SYSTEM_B, SYSTEM_C],
                         ids=["fields_only", "full_record"])
def test_read_fields_plan_charges_what_per_field_loads_charge(profile, layout_style):
    """One memoized plan per (layout, columns), the ``fields_only`` loads of
    an NSM record in one charged call: the same values and the same state
    as one ``data_read`` per field."""
    catalog = Catalog()
    schema, _ = microbenchmark_schema(100, "R")
    table = catalog.create_table("R", schema, record_size=100,
                                 layout_style=layout_style)
    table.insert_many(*table.schema.transpose((i, i % 50 + 1, i * 2) for i in range(300)))
    planned = ExecutionContext(SimulatedProcessor(), profile, catalog.address_space)
    reference = SimulatedProcessor()
    for i, entry in enumerate(table.heap.scan()):
        columns = (("a2", "a3"), ["a1"], ("a3", "a1", "a2"))[i % 3]
        row = {"a1": i, "a2": i % 50 + 1, "a3": i * 2}
        assert (planned.read_fields(entry, table.layout, columns)
                == {column: row[column] for column in columns})
        charge_per_field(reference, profile, entry, table.layout, columns)
    assert len(planned._field_plans) == 3
    assert_states_identical(processor_state(planned.processor),
                            processor_state(reference))


@pytest.mark.parametrize("layout_style", ["nsm", "pax"])
@pytest.mark.parametrize("profile", [SYSTEM_B, SYSTEM_C],
                         ids=["fields_only", "full_record"])
def test_load_steps_charge_what_read_fields_charges(profile, layout_style):
    """The charge-only half of ``read_fields`` as a pipeline step, one
    program call per page: the same state as ``read_fields`` per record
    (tombstoned slots skipped, a padded PAX record swept slice by slice)."""
    catalog = Catalog()
    schema, _ = microbenchmark_schema(100, "R")
    table = catalog.create_table("R", schema, record_size=100,
                                 layout_style=layout_style)
    for i in range(300):
        rid = table.insert((i, i % 50 + 1, i * 2))
        if i % 7 == 5:
            table.delete(rid)
    bound = ExecutionContext(SimulatedProcessor(), profile, catalog.address_space)
    reference = ExecutionContext(SimulatedProcessor(), profile, catalog.address_space)
    for number, (page, slots) in enumerate(table.heap.scan_pages()):
        columns = (("a2", "a3"), ("a1",), ("a3", "a1", "a2"))[number % 3]
        program = ((), (bound.load_step(page, table.layout, columns),), (),
                   False, False)
        assert (bound.charge_pipeline(program, bound.record_keys(page, slots))
                == len(slots))
        for slot in slots:
            entry = table.heap.fetch(RecordId(page.page_number, slot))
            reference.read_fields(entry, table.layout, columns)
    assert_states_identical(processor_state(bound.processor),
                            processor_state(reference.processor))


# ------------------------------------------------- a vector of addresses, once


def address_vector(seed: int = 11):
    """Random addresses over 64 KB, plus repeats, plus addresses a few bytes
    short of a page boundary (every size above 3 crosses it)."""
    rng = random.Random(seed)
    addresses = [0x70000 + rng.randrange(1 << 16) for _ in range(300)]
    addresses += addresses[:40]
    addresses += [0x70000 + page * 4096 - 3 for page in range(1, 9)]
    rng.shuffle(addresses)
    return addresses


@pytest.mark.parametrize("size", [1, 16, 33, 100],
                         ids=["byte", "entry", "line-straddling", "record"])
@pytest.mark.parametrize("os_interference", [
    None, OSInterferenceConfig(interval_instructions=400)], ids=["os-off", "os-on"])
def test_an_address_vector_charges_what_the_per_address_loop_charges(
        os_interference, size):
    """``read_addresses`` / ``write_addresses`` (one native call per key
    vector of a hash join) leave every cache, TLB and counter where the
    ``read_address`` / ``write_address`` loop leaves them."""
    bulk, loop = (
        ExecutionContext(SimulatedProcessor(os_interference=os_interference),
                         SYSTEM_B, AddressSpace()) for _ in range(2))
    addresses = address_vector()
    for ctx in (bulk, loop):
        ctx.visit(segment_names(ctx)[0])     # interrupts fire when modelled
    bulk.read_addresses(addresses, size)
    bulk.write_addresses(addresses[::-1], size)
    bulk.read_addresses([], size)
    for address in addresses:
        loop.read_address(address, size)
    for address in reversed(addresses):
        loop.write_address(address, size)
    assert_states_identical(context_state(bulk), context_state(loop))
    assert (bulk.processor.finalize().as_dict()
            == loop.processor.finalize().as_dict())


@pytest.mark.parametrize("bad", [[0x1000, "x"], [0x1000, 2.5], [0x1000, None], 7],
                         ids=["str", "float", "none", "not-a-sequence"])
def test_a_bad_address_vector_raises_before_anything_is_charged(bad):
    ctx = ExecutionContext(SimulatedProcessor(), SYSTEM_B, AddressSpace())
    ctx.write_addresses([0x2000, 0x2040], 8)
    before = context_state(ctx)
    for charge in (ctx.read_addresses, ctx.write_addresses):
        with pytest.raises(TypeError):
            charge(bad, 8)
        with pytest.raises(TypeError):
            charge([0x1000], "8")
    assert_states_identical(context_state(ctx), before)
