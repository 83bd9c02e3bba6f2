"""Differential tests: native charging vs. the reference machine.

Beyond the cache automaton (tests/test_native_cache.py), the compiled
``_cachesim`` extension carries whole *charging* operations: the processor's
charged data/instruction accesses (``charged_strided``/``charged_addresses``
/``fetch_run``), the
executor's full routine visit (``visit``: hot/cold fetch, fused counters,
workspace churn, branch sites, bulk branches), workspace touches and the
adaptive conjunct branch loop (``conjunct``).  The contract is total: every
event counter, every cache/TLB/branch statistic, every piece of
microarchitectural state (cache MRU order, TLB LRU order, BTB entry tags /
histories / pattern tables) and every piece of executor bookkeeping (visit
counter, cold/workspace cursors, bulk-misprediction carry, per-site state)
must be byte-identical to the pure-Python reference machine
(``reference_machine.py``) for any operation interleaving.

The oracle side is *constructed* on the reference machine (the
``reference_machine`` fixture of ``conftest.py``): its caches, TLBs, branch
unit, charging block and contexts are the Python transcriptions.  States are
compared through ``snapshot()``, the canonical shape both sides return.

The contract covers the OS-interference model too: the visit advances the
interrupt clock at the same point ``charge_routine`` does and calls back
into the Python handler, so sessions in the paper's own configuration are
compared here, interrupt by interrupt, with the oracle.
"""

from contextlib import nullcontext

import pytest

from hypothesis import given, settings, strategies as st

import reference_machine as reference
from oracle import PerAddressContext
from repro.execution.context import ExecutionContext
from repro.experiments import ExperimentConfig, ExperimentRunner
from repro.hardware.os_interference import OSInterferenceConfig
from repro.hardware.processor import SimulatedProcessor
from repro.storage.address_space import AddressSpace
from repro.systems import SYSTEM_A, SYSTEM_B
from repro.workloads.micro import MicroWorkloadConfig

# --------------------------------------------------------------------- state


def processor_state(proc: SimulatedProcessor):
    """Everything a charging call can change, microarchitectural state included."""
    caches = proc.caches
    machine = proc._native_state
    return {
        "user": dict(proc.counters.user),
        "sup": dict(proc.counters.sup),
        "l1d": (caches.l1d.snapshot(), caches.l1d.stats.as_dict()),
        "l1i": (caches.l1i.snapshot(), caches.l1i.stats.as_dict()),
        "l2": (caches.l2.snapshot(), caches.l2.stats.as_dict()),
        "dtlb": (proc.dtlb.snapshot(), proc.dtlb.stats.as_dict()),
        "itlb": (proc.itlb.snapshot(), proc.itlb.stats.as_dict()),
        "btb": proc.branch_unit.snapshot(),
        "branch_stats": proc.branch_unit.stats.as_dict(),
        "stall": machine.l1i_stall_cycles,
        "last_page": machine.last_instruction_page,
        "os": (machine.os_since_last, machine.os_interrupts),
    }


def context_state(ctx: ExecutionContext):
    state = processor_state(ctx.processor)
    visits = ctx._native_ctx
    state.update({
        "visit_counter": visits.visit_counter,
        "cold_cursor": visits.cold_cursor,
        "workspace_cursor": visits.workspace_cursor,
        "bulk_carry": visits.bulk_carry,
        "site_state": dict(ctx._site_state),
        "invocations": dict(ctx.op_invocations),
    })
    return state


def assert_states_identical(native, oracle):
    for key in native:
        assert native[key] == oracle[key], f"{key} diverged"


def automata(proc: SimulatedProcessor):
    caches = proc.caches
    return (caches.l1d, caches.l1i, caches.l2, proc.dtlb, proc.itlb,
            proc.branch_unit)


def on_reference(obj) -> bool:
    return type(obj).__module__ == reference.__name__


def processor_pair(reference_machine, os_interference=None):
    native = SimulatedProcessor(os_interference=os_interference)
    with reference_machine():
        oracle = SimulatedProcessor(os_interference=os_interference)
    assert not on_reference(native._native_state)
    assert not any(on_reference(automaton._native) for automaton in automata(native))
    assert on_reference(oracle._native_state)
    assert all(on_reference(automaton._native) for automaton in automata(oracle))
    return native, oracle


def context_pair(reference_machine, profile=SYSTEM_B, os_interference=None):
    native, oracle = (
        ExecutionContext(proc, profile, AddressSpace())
        for proc in processor_pair(reference_machine, os_interference))
    assert not on_reference(native._native_ctx)
    assert on_reference(oracle._native_ctx)
    return native, oracle


# --------------------------------------------------- processor-level charges


def replay_processor(proc: SimulatedProcessor, trace):
    results = []
    for step in trace:
        op, args = step[0], step[1:]
        results.append(getattr(proc, op)(*args))
    return results


_addr = st.integers(min_value=0, max_value=1 << 16)
_proc_step = st.one_of(
    st.tuples(st.just("data_read"), _addr, st.integers(1, 64)),
    st.tuples(st.just("data_write"), _addr, st.integers(1, 64)),
    st.tuples(st.just("data_read_strided"), _addr, st.integers(-8, 96),
              st.integers(1, 48), st.integers(1, 16)),
    st.tuples(st.just("data_write_strided"), _addr, st.integers(-8, 96),
              st.integers(1, 48), st.integers(1, 16)),
    st.tuples(st.just("data_read_span"), _addr, st.integers(1, 512),
              st.integers(1, 64)),
    st.tuples(st.just("fetch_code_run"), _addr, st.integers(0, 40)),
    st.tuples(st.just("data_read_scattered"), st.lists(_addr, max_size=24),
              st.integers(1, 64)),
    st.tuples(st.just("data_write_scattered"), st.lists(_addr, max_size=24),
              st.integers(1, 64)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_proc_step, min_size=1, max_size=60))
def test_processor_charges_identical(reference_machine, trace):
    native, oracle = processor_pair(reference_machine)
    assert replay_processor(native, trace) == replay_processor(oracle, trace)
    assert_states_identical(processor_state(native), processor_state(oracle))


def test_degenerate_strides_match_scalar_loop(reference_machine):
    native, oracle = processor_pair(reference_machine)
    for proc in (native, oracle):
        proc.data_read_strided(0x4000, 0, 7, 4)      # stride 0: same element
        proc.data_read_strided(0x5000, -16, 5, 4)    # negative stride
        proc.data_write_strided(0x6000, 0, 3, 8)
        proc.data_read_strided(0x7000, 32, 1, 4)     # count == 1
    assert_states_identical(processor_state(native), processor_state(oracle))


def test_finalized_cycles_identical_after_mixed_traffic(reference_machine):
    native, oracle = processor_pair(reference_machine)
    for proc in (native, oracle):
        proc.fetch_code_run(0x1000, 24)
        proc.data_read_strided(0x80000, 8, 4096, 4)
        proc.data_write_strided(0x90000, 32, 512, 4)
        for i in range(128):
            proc.data_read(0xa0000 + i * 60, 4)
        proc.retire(5000)
    assert (native.finalize().as_dict() == oracle.finalize().as_dict())


# ------------------------------------------------------ context-level visits


def segment_names(ctx, limit=8):
    return list(ctx.layout.segments())[:limit]


def replay_context(ctx: ExecutionContext, trace):
    names = segment_names(ctx)
    for step in trace:
        op = step[0]
        if op == "visit":
            _, which, taken = step
            ctx.visit(names[which % len(names)], data_taken=taken)
        elif op == "batch":
            _, which, count = step
            ctx.visit_batch(names[which % len(names)], count)
        elif op == "read":
            _, address, size = step
            ctx.read_address(address, size)
        elif op == "write":
            _, address, size = step
            ctx.write_address(address, size)
        elif op == "scattered":
            _, addresses, size = step
            ctx.read_addresses(addresses, size)
            ctx.write_addresses(addresses[::-1], size)
        else:  # conjunct
            _, which, site, outcomes = step
            ctx.visit_conjunct_batch(names[which % len(names)],
                                     outcomes, site=site)


_ctx_step = st.one_of(
    st.tuples(st.just("visit"), st.integers(0, 7),
              st.sampled_from([None, False, True])),
    st.tuples(st.just("batch"), st.integers(0, 7), st.integers(1, 40)),
    st.tuples(st.just("conjunct"), st.integers(0, 7), st.integers(0, 5),
              st.lists(st.booleans(), min_size=1, max_size=32)),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_ctx_step, min_size=1, max_size=40))
def test_context_visits_identical(reference_machine, trace):
    native, oracle = context_pair(reference_machine)
    replay_context(native, trace)
    replay_context(oracle, trace)
    assert_states_identical(context_state(native), context_state(oracle))


@pytest.mark.parametrize("profile", [SYSTEM_A, SYSTEM_B],
                         ids=["system_a", "system_b"])
def test_long_visit_sequence_identical(reference_machine, profile):
    """Long enough to wrap the cold pool and the workspace, exercise every
    branch-site kind repeatedly and accumulate a non-trivial bulk carry."""
    native, oracle = context_pair(reference_machine, profile)
    for ctx in (native, oracle):
        names = segment_names(ctx)
        for i in range(600):
            ctx.visit(names[i % len(names)],
                      data_taken=(None, True, False)[i % 3])
        ctx.visit_batch(names[0], 200)
        ctx.visit_conjunct_batch(names[1], [i % 3 != 0 for i in range(300)],
                                 site=2)
    assert_states_identical(context_state(native), context_state(oracle))


def test_per_address_mode_stays_pure_python_and_equivalent(reference_machine):
    """The per-address oracle runs on the reference machine, so the
    bulk-vs-per-address differential doubles as a native-vs-reference one."""
    span, _ = context_pair(reference_machine, SYSTEM_B)
    with reference_machine():
        processor = SimulatedProcessor()
    per_address = PerAddressContext(processor, SYSTEM_B, AddressSpace())
    assert on_reference(per_address._native_ctx) and per_address._native_ctx.per_address
    with pytest.raises(TypeError, match="reference_machine"):
        PerAddressContext(SimulatedProcessor(), SYSTEM_B, AddressSpace())
    for ctx in (span, per_address):
        names = segment_names(ctx)
        for i in range(150):
            ctx.visit(names[i % len(names)], data_taken=bool(i % 2))
    native_state = context_state(span)
    oracle_state = context_state(per_address)
    for key in ("user", "dtlb", "itlb", "branch_stats", "btb",
                "visit_counter", "workspace_cursor", "bulk_carry"):
        assert native_state[key] == oracle_state[key], f"{key} diverged"


# ------------------------------------------------- OS interference, natively

_os_config = st.builds(
    OSInterferenceConfig,
    # Small enough that interrupts fire mid-sequence and, at the low end
    # (segments retire hundreds of instructions), several inside one visit.
    interval_instructions=st.integers(min_value=20, max_value=6000),
    l1i_flush_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    flush_itlb=st.booleans(),
)

_os_step = st.one_of(
    _ctx_step,
    st.tuples(st.just("read"), _addr, st.integers(1, 64)),
    st.tuples(st.just("write"), _addr, st.integers(1, 64)),
    st.tuples(st.just("scattered"), st.lists(_addr, max_size=16),
              st.integers(1, 64)),
)


@settings(max_examples=60, deadline=None)
@given(_os_config, st.lists(_os_step, min_size=1, max_size=40))
def test_os_interference_visits_identical(reference_machine, config, trace):
    native, oracle = context_pair(reference_machine, os_interference=config)
    # Routine 0 (``query_setup``) retires more instructions than any drawn
    # interval several times over: one visit up front guarantees that
    # interrupts fire -- more than one inside that visit -- whatever the
    # rest of the trace does.
    trace = [("visit", 0, None)] + trace
    replay_context(native, trace)
    replay_context(oracle, trace)
    assert_states_identical(context_state(native), context_state(oracle))
    assert native.processor.counters.sup["OS_INTERRUPTS"] > 0
    assert (native.processor.finalize().as_dict()
            == oracle.processor.finalize().as_dict())


@pytest.mark.parametrize("flush_fraction", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("flush_itlb", [False, True])
def test_several_interrupts_inside_one_native_visit(reference_machine, flush_fraction,
                                                    flush_itlb):
    """One visit whose retired instructions span several intervals services
    all of them at the hook (``fired > 1``), between the retirement fold and
    the workspace touches -- on both paths."""
    probe = ExecutionContext(SimulatedProcessor(), SYSTEM_B, AddressSpace())
    name = max(segment_names(probe),
               key=lambda n: probe.layout.segment(n).instructions)
    instructions = probe.layout.segment(name).instructions
    config = OSInterferenceConfig(interval_instructions=instructions // 3,
                                  l1i_flush_fraction=flush_fraction,
                                  flush_itlb=flush_itlb)
    native, oracle = context_pair(reference_machine, os_interference=config)
    for ctx in (native, oracle):
        ctx.visit(name)
        assert ctx.processor.os.interrupts == 3
        if flush_itlb:
            assert ctx.processor._native_state.last_instruction_page == -1
        for i in range(40):
            ctx.visit(name, data_taken=bool(i % 2))
    assert_states_identical(context_state(native), context_state(oracle))


@pytest.fixture(scope="module")
def os_runner():
    return ExperimentRunner(ExperimentConfig(
        micro=MicroWorkloadConfig(scale=0.001), os_interference=True))


@pytest.mark.parametrize("system_key", ["A", "C"])
def test_vectorized_counts_identical_under_default_os_model(os_runner, reference_machine,
                                                            system_key):
    """Whole queries in the paper's configuration (default OS model): the
    native machine and the reference machine give the same rows and the
    same ``EventCounters``, user and supervisor banks alike.  The tuple
    engine on Systems A-D and the vectorized one on B and D are the
    ``reference_machine`` oracle's (``tests/test_reference_oracle.py`` runs
    the ``--scale ci`` artifact on it); this covers the vectorized engine
    on the other two."""
    engine = "vectorized"
    workload = os_runner.micro_workload
    queries = {"SRS": workload.sequential_range_selection(),
               "IRS": workload.indexed_range_selection(),
               "SJ": workload.sequential_join()}
    outcomes = {}
    for path, machine in (("native", nullcontext), ("python", reference_machine)):
        for label, query in queries.items():
            with machine():
                session = os_runner.grid_session(engine=engine, layout="nsm",
                                                 system_key=system_key)
            assert on_reference(session.processor._native_state) == (path == "python")
            result = session.execute(query, warmup_runs=0)
            session.close()
            outcomes[path, label] = (result.rows, dict(result.counters.user),
                                     dict(result.counters.sup))
    for label in queries:
        native, python = outcomes["native", label], outcomes["python", label]
        assert native[0] == python[0], f"{label}: rows diverged"
        assert native[1] == python[1], f"{label}: user counters diverged"
        assert native[2] == python[2], f"{label}: supervisor counters diverged"
        assert native[2]["OS_INTERRUPTS"] > 0, f"{label}: no interrupt fired"
