"""The five workloads of the benchmark.

Each workload builds its datasets and its queries from one seed, runs
*passes* of a fixed op list against the public ``repro`` API, and knows how
to check what came back.  ``bench/README.md`` records why each one exists;
the short form is on each class.

A workload drives its load from this one thread: closed loop for the three
engine workloads (the next op starts when the previous one returned), open
loop under a virtual clock for the two serving workloads.
"""

from __future__ import annotations

import math
import random
import sys
import traceback
import zlib
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.session import QueryResult, Session
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.query.expressions import avg, count_star
from repro.query.plans import SelectionQuery, UpdateQuery
from repro.systems.vendors import oltp_variant, system_by_key
from repro.workloads.micro import MicroWorkloadConfig
from repro.workloads.serving import (ServingTraceConfig, TRACE_CLASSES,
                                     build_trace)
from repro.workloads.tpcc import TPCCConfig
from repro.workloads.tpcd import TPCDConfig

import spans

#: The seed ``bench/expected.json`` is pinned at.  With it the three dataset
#: seeds are the repository's own defaults (1999, 2025, 4242).
DEFAULT_SEED = 1999
_TPCD_SEED_OFFSET = 2025 - DEFAULT_SEED
_TPCC_SEED_OFFSET = 4242 - DEFAULT_SEED

LAYOUTS = ("nsm", "pax")

#: Simulated events kept per op for the ``hardware.*`` per-layer metrics.
SIM_EVENTS = ("INST_RETIRED", "DCU_LINES_IN", "IFU_IFETCH_MISS",
              "L2_DATA_MISS", "L2_IFETCH_MISS", "BR_MISS_PRED_RETIRED")


def digest(value) -> int:
    """Checksum of result rows (or any value with a canonical ``repr``)."""
    return zlib.crc32(repr(value).encode())


@dataclass
class OpRecord:
    """One attempted op of one pass."""

    #: Identity of the op inside its pass; equal keys of two passes must
    #: have produced equal rows and equal simulated cycles.
    key: str
    #: Key of the op's pinned digest and cycles in ``expected.json``.
    pin: str
    #: Wall (closed loop) or virtual-clock (serving) latency; ``None`` when
    #: the op raised.
    seconds: Optional[float]
    rows: object = None
    cycles: int = 0
    #: ``SIM_EVENTS`` counts plus ``(stall, component-sum)`` cycles.
    sim: Optional[tuple] = None
    #: Serving only: result-cache hit, and host seconds of service.
    cached: bool = False
    service_seconds: float = 0.0

    @property
    def digest(self) -> Optional[int]:
        return None if self.seconds is None else digest(self.rows)


@dataclass
class PassResult:
    kind: str  # "closed", "saturation" or "paced"
    #: Host wall seconds of the whole pass.
    host_seconds: float
    #: What throughput divides by: host wall (closed loop) or the virtual
    #: makespan (serving).
    clock_seconds: float
    ops: List[OpRecord]
    #: Serving only: rounds, busy seconds, backlog at the last arrival and
    #: the server's own statistics.
    serving: Dict[str, object] = field(default_factory=dict)


def _sim_counts(counters, breakdown) -> tuple:
    return (tuple(counters.get(event) for event in SIM_EVENTS)
            + (breakdown.stall, breakdown.estimated_total))


def _pages_digest(snapshot: Dict[str, tuple]) -> int:
    """Checksum of a ``Database.data_checkpoint()`` (raw page bytes)."""
    crc = 0
    for table in sorted(snapshot):
        for _, page_bytes, _ in snapshot[table]:
            crc = zlib.crc32(page_bytes, crc)
    return crc


def _close(value: float, expected: Optional[float]) -> bool:
    return expected is not None and math.isclose(value, expected,
                                                 rel_tol=1e-12)


class Workload:
    """Common shape: seeded set-up, passes of ops, output checks."""

    name = ""
    #: One line for ``BENCHMARK.json``.
    why = ""
    #: Host seconds one pass took on the 2-core box the benchmark was sized
    #: on; ``--seconds`` is turned into a fixed pass count with it, so that
    #: allocation-driven effects land on the same op in every run.
    pass_seconds = 1.0
    min_passes = 5
    smoke_passes = 2
    #: Passes come in groups of this many (a saturation and a paced pass).
    pass_group = 1

    def __init__(self, seed: int = DEFAULT_SEED, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        #: Span recorder of the traced run (a no-op stand-in otherwise).
        self.spans = spans.OFF
        #: Collect per-op simulated event counts (traced run only).
        self.collect_sim = False
        #: ``tracing=`` knob handed to every session or server; ``None``
        #: keeps the engine default (off).
        self.query_tracing: Optional[str] = None
        self.runner: Optional[ExperimentRunner] = None

    # ------------------------------------------------------------ sizing
    def passes(self, seconds: float) -> int:
        if self.smoke:
            return self.smoke_passes
        return max(self.min_passes, round(seconds / self.pass_seconds))

    # ------------------------------------------------------------- set-up
    def setup(self) -> None:
        """Generate the inputs and build every dataset and checkpoint."""
        raise NotImplementedError

    def databases(self) -> List[object]:
        """Every database the passes touch (for buffer-pool statistics)."""
        raise NotImplementedError

    def inputs(self) -> str:
        """Canonical text of the generated inputs (seed → same text)."""
        raise NotImplementedError

    # ------------------------------------------------------------- passes
    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def verify(self, first: PassResult) -> Dict[str, str]:
        """Seed-independent output checks, run after measurement.

        Returns ``{op key: reason}`` for every op whose output is wrong;
        the op counts as failed in every pass.
        """
        raise NotImplementedError

    # ------------------------------------------------------------ helpers
    def _timed(self, records: List[OpRecord], key: str, pin: str, call):
        """Run one closed-loop op under its root span and record it."""
        with self.spans.op(key):
            start = perf_counter()
            try:
                result = call()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                records.append(OpRecord(key, pin, None))
                return None
            seconds = perf_counter() - start
        record = OpRecord(key, pin, seconds, rows=result)
        if isinstance(result, QueryResult):
            record.rows = result.rows
            record.cycles = result.counters.get("CPU_CLK_UNHALTED")
            if self.collect_sim:
                record.sim = _sim_counts(result.counters, result.breakdown)
        records.append(record)
        return result

    def _count_of(self, session: Session, query) -> int:
        """Row count the query qualifies, from a ``count(*)`` twin of it."""
        counted = replace(query, aggregates=(count_star(),))
        rows = session.execute(counted, warmup_runs=0).rows
        return next(iter(rows[0].values()))


# ---------------------------------------------------------------------------
# Engine workloads (closed loop)
# ---------------------------------------------------------------------------
class MicroWorkloadBase(Workload):
    """Shared by the two microbenchmark workloads: every op is one
    ``grid_session`` + ``execute`` + close against the warmed grid build."""

    scale = 0.005
    os_interference = False
    layouts: Tuple[str, ...] = ("nsm",)
    #: Ops whose ``count(*)`` twin is checked against the row-count oracles.
    count_checked: Tuple[str, ...] = ()

    def setup(self) -> None:
        self.runner = ExperimentRunner(ExperimentConfig(
            micro=MicroWorkloadConfig(scale=self.scale, seed=self.seed),
            os_interference=self.os_interference,
            parallelism=1, grid_workers=1))
        self.micro = self.runner.micro_workload
        self.queries = {
            "SRS": self.micro.sequential_range_selection(),
            "IRS": self.micro.indexed_range_selection(),
            "SJ": self.micro.sequential_join(),
            "ACS": self.micro.skewed_conjunct_selection(),
            "SJB-0.5x": self.micro.over_budget_join(),
        }
        with self.spans.span("workloads.build:MicroWorkload.build"):
            for layout in self.layouts:
                self.runner.grid_database(layout)

    def op_list(self) -> List[Tuple[str, str, dict]]:
        """``(op key, query kind, grid_session arguments)`` of one pass."""
        raise NotImplementedError

    def databases(self) -> List[object]:
        return [self.runner.grid_database(layout)[0]
                for layout in self.layouts]

    def inputs(self) -> str:
        return "\n".join(f"{kind}: {query!r}"
                         for kind, query in sorted(self.queries.items()))

    def _execute(self, kind: str, session_arguments: dict,
                 count: bool = False):
        with self.runner.grid_session(tracing=self.query_tracing,
                                      **session_arguments) as session:
            if count:
                return self._count_of(session, self.queries[kind])
            return session.execute(self.queries[kind], warmup_runs=0)

    def run_pass(self, index: int) -> PassResult:
        records: List[OpRecord] = []
        start = perf_counter()
        for key, kind, session_arguments in self.op_list():
            self._timed(records, key, key,
                        lambda: self._execute(kind, session_arguments))
        wall = perf_counter() - start
        return PassResult("closed", wall, wall, records)

    def verify(self, first: PassResult) -> Dict[str, str]:
        """``avg(a3)`` of every SRS/IRS op, and the rows SRS and SJ qualify,
        against the workload's own ground truths."""
        failures = {}
        average = self.micro.expected_average()
        for record in first.ops:
            if record.seconds is None or record.key.split("/")[-1] not in (
                    "SRS", "IRS"):
                continue
            value = next(iter(record.rows[0].values()))
            if not _close(value, average):
                failures[record.key] = (f"avg(a3) {value!r} differs from "
                                        f"expected_average() {average!r}")
        rows = {"SRS": self.micro.expected_selected_rows(),
                "SJ": self.micro.expected_join_rows()}
        for key, kind, session_arguments in self.op_list():
            if key not in self.count_checked:
                continue
            count = self._execute(kind, session_arguments, count=True)
            if count != rows[kind]:
                failures[key] = (f"{kind} qualifies {count} rows, "
                                 f"oracle {rows[kind]}")
        return failures


class GridVec(MicroWorkloadBase):
    name = "grid_vec"
    why = ("Vectorized engine over a 2.4 MB relation, NSM and PAX, native "
           "charging live, one over-budget join: page decode, kernels, "
           "charging and the spill path do the work; serving does none.")
    scale = 0.02
    layouts = LAYOUTS
    pass_seconds = 1.27
    count_checked = ("nsm/SRS", "nsm/SJ", "pax/SRS", "pax/SJ")

    def op_list(self) -> List[Tuple[str, str, dict]]:
        def session(layout: str, **knobs) -> dict:
            return {"engine": "vectorized", "layout": layout,
                    "kernel_backend": "auto", **knobs}

        ops = [(f"{layout}/{kind}", kind,
                session(layout, **({"adaptivity": "greedy"}
                                   if kind == "ACS" else {})))
               for layout in LAYOUTS for kind in ("SRS", "IRS", "SJ", "ACS")]
        budget = max(self.runner.config.micro.s_bytes // 2, 1)
        ops.append(("nsm/SJB-0.5x", "SJB-0.5x",
                    session("nsm", memory_budget_bytes=budget)))
        return ops


class PaperTuple(MicroWorkloadBase):
    name = "paper_tuple"
    why = ("Tuple engine, Systems A-D, OS interference on as in the paper's "
           "Figure 5.1: per-record operators, the Python cache/TLB/branch "
           "automata and the B-tree do the work; kernels and PAX do none.")
    os_interference = True
    pass_seconds = 1.78
    count_checked = ("B/SRS", "B/SJ")

    def op_list(self) -> List[Tuple[str, str, dict]]:
        # Systems A-D x SRS, B/C/D x IRS (A's optimiser ignores the index,
        # as in Figure 5.1), B x SJ.
        ops = ([(system, "SRS") for system in "ABCD"]
               + [(system, "IRS") for system in "BCD"] + [("B", "SJ")])
        return [(f"{system}/{kind}", kind,
                 {"engine": "tuple", "layout": "nsm", "system_key": system})
                for system, kind in ops]


class TpcMix(Workload):
    name = "tpc_mix"
    why = ("TPC-D suite then 120 TPC-C transactions per layout on the same "
           "storage, index and planner layers: in-place updates, point "
           "lookups and a plan per statement run beside the scans.")
    pass_seconds = 3.35
    transactions = 120
    warmup_transactions = 12

    def setup(self) -> None:
        self.runner = ExperimentRunner(ExperimentConfig(
            tpcd=TPCDConfig(lineitem_rows=5_000, orders_rows=500,
                            part_rows=200, supplier_rows=50,
                            seed=self.seed + _TPCD_SEED_OFFSET),
            tpcc=TPCCConfig(seed=self.seed + _TPCC_SEED_OFFSET),
            os_interference=False, parallelism=1, grid_workers=1))
        self.suite = self.runner.tpcd_workload.queries()
        with self.spans.span("workloads.build:TPCDWorkload.build"):
            for layout in LAYOUTS:
                self.runner.tpcd_grid_database(layout)
        with self.spans.span("workloads.build:TPCCWorkload.build"):
            for layout in LAYOUTS:
                self.runner.tpcc_grid_database(layout)
        generator = self.runner.tpcc_grid_database("nsm")[1]
        base = self.seed + _TPCC_SEED_OFFSET + 7
        self.warmup = self._half_and_half(generator, self.warmup_transactions,
                                          base)
        self.mix = self._half_and_half(generator, self.transactions, base + 1)
        self.profile = system_by_key("B")

    @staticmethod
    def _half_and_half(generator, count: int, seed: int) -> list:
        """The first ``count / 2`` new-order and ``count / 2`` payment
        transactions of the seeded stream, in stream order.

        The stream draws each kind with probability 1/2, and a new-order
        runs 11 statements against a payment's 2: taken as drawn, the work
        in a pass would swing by several percent with the seed, and the
        spread between seeds would measure the generator, not the engine.
        """
        wanted = {"new_order": count // 2, "payment": count - count // 2}
        chosen = []
        for txn in generator.transactions(8 * count, seed=seed):
            if wanted[txn.kind]:
                wanted[txn.kind] -= 1
                chosen.append(txn)
            if len(chosen) == count:
                return chosen
        raise RuntimeError("transaction stream ran out of one kind")

    def databases(self) -> List[object]:
        return ([self.runner.tpcd_grid_database(layout)[0]
                 for layout in LAYOUTS]
                + [self.runner.tpcc_grid_database(layout)[0]
                   for layout in LAYOUTS])

    def inputs(self) -> str:
        return "\n".join([repr(query) for query in self.suite]
                         + [repr(txn) for txn in self.warmup + self.mix])

    def _session(self, database, profile) -> Session:
        knobs = {} if self.query_tracing is None else {
            "tracing": self.query_tracing}
        return Session(database, profile, spec=self.runner.config.spec,
                       os_interference=None, engine="vectorized", **knobs)

    def _suite(self, layout: str) -> QueryResult:
        database, checkpoint = self.runner.tpcd_grid_database(layout)
        database.address_space.restore(checkpoint)
        with self._session(database, self.profile) as session:
            return session.execute_suite(self.suite, warmup_runs=0,
                                         label="TPC-D")

    def run_pass(self, index: int) -> PassResult:
        records: List[OpRecord] = []
        start = perf_counter()
        for layout in LAYOUTS:
            self._timed(records, f"{layout}/tpcd.suite",
                        f"{layout}/tpcd.suite", lambda: self._suite(layout))
            database, _, checkpoint, data = \
                self.runner.tpcc_grid_database(layout)
            database.address_space.restore(checkpoint)
            database.data_restore(data)
            with self._session(database,
                               oltp_variant(self.profile)) as session:
                for txn in self.warmup:
                    session.execute_transaction(txn.statements)
                session.reset_measurement()
                for position, txn in enumerate(self.mix):
                    self._timed(
                        records, f"{layout}/tpcc.txn/{position}",
                        f"{layout}/tpcc.txn/{txn.kind}",
                        lambda: session.execute_transaction(txn.statements))
                counters, breakdown, _ = session.measure()
            # The session measures the mix as one unit, so its cycles and
            # the tables it leaves behind are carried by the last
            # transaction: a divergence anywhere in the mix fails that op.
            final = records[-1]
            if final.seconds is not None:
                final.rows = (final.rows,
                              _pages_digest(database.data_checkpoint()))
                final.pin = f"{layout}/tpcc.mix"
                final.cycles = counters.get("CPU_CLK_UNHALTED")
                if self.collect_sim:
                    final.sim = _sim_counts(counters, breakdown)
        wall = perf_counter() - start
        return PassResult("closed", wall, wall, records)

    def _table_state(self, layout: str) -> list:
        """Logical content of the updated columns after the last mix."""
        database, _, checkpoint, _ = self.runner.tpcc_grid_database(layout)
        database.address_space.restore(checkpoint)
        with self._session(database, self.profile) as session:
            return [session.execute(SelectionQuery(
                        table=table, aggregates=(avg(column), count_star())),
                        warmup_runs=0).rows
                    for table, column in (("stock", "s_quantity"),
                                          ("customer", "c_balance"))]

    def verify(self, first: PassResult) -> Dict[str, str]:
        """The page layout must be invisible in every logical result."""
        failures = {}
        by_key = {record.key: record for record in first.ops}
        nsm, pax = (by_key[f"{layout}/tpcd.suite"] for layout in LAYOUTS)
        if nsm.seconds is not None and pax.seconds is not None \
                and nsm.rows != pax.rows:
            failures["pax/tpcd.suite"] = "TPC-D rows differ between layouts"
        if self._table_state("nsm") != self._table_state("pax"):
            failures[f"pax/tpcc.txn/{len(self.mix) - 1}"] = (
                "tables differ between layouts after the transaction mix")
        return failures


# ---------------------------------------------------------------------------
# Serving workloads (open loop, virtual clock)
# ---------------------------------------------------------------------------
@dataclass
class Arrival:
    index: int
    class_key: str
    query: object


class ServingWorkload(Workload):
    """A ``Server`` with all three layers on over the NSM grid build.

    Passes alternate between *saturation* (every arrival due at t = 0:
    throughput) and *paced* (exponential gaps at ``paced_rate``: latency
    from the due time).  The clock is virtual, as in
    ``repro.workloads.serving.run_open_loop``: it advances by the measured
    wall time of each admission round and jumps to the next due time when
    the queue is empty.
    """

    scale = 0.005
    paced_rate = 1.0
    updates = False
    pass_group = 2

    def passes(self, seconds: float) -> int:
        # One saturation and one paced pass make a pair.
        pairs = 1 if self.smoke else max(
            3, round(seconds / (2 * self.pass_seconds)))
        return 2 * pairs

    def setup(self) -> None:
        self.runner = ExperimentRunner(ExperimentConfig(
            micro=MicroWorkloadConfig(scale=self.scale, seed=self.seed),
            os_interference=False, parallelism=1, grid_workers=1))
        self.micro = self.runner.micro_workload
        self.arrivals = self.make_arrivals()
        with self.spans.span("workloads.build:MicroWorkload.build"):
            self.database, _ = self.runner.grid_database("nsm")
        self.data = self.database.data_checkpoint()

    def make_arrivals(self) -> List[Arrival]:
        raise NotImplementedError

    def due_times(self, index: int) -> List[float]:
        """When each arrival of pass ``index`` is due on the virtual clock.

        Every paced pass has its own exponential gaps, so the passes of a
        run sample different queueing episodes, not one three times.  The
        gaps do not depend on the seed: where a burst of arrivals meets a
        long query or a collector pause decides the latency tail, and drawn
        per seed that placement, not the system, would set the spread
        between seeds.
        """
        if index % 2 == 0:
            return [0.0] * len(self.arrivals)
        pace = random.Random(f"{self.name}/pace/{index}")
        clock, due = 0.0, []
        for _ in self.arrivals:
            clock += pace.expovariate(self.paced_rate)
            due.append(clock)
        return due

    def databases(self) -> List[object]:
        return [self.database]

    def inputs(self) -> str:
        return "\n".join(
            f"{due!r} {arrival.class_key} {arrival.query!r}"
            for due, arrival in zip(self.due_times(1), self.arrivals))

    def _server(self, **layers):
        return self.runner.serving_server("nsm", tracing=self.query_tracing,
                                          **layers)

    def run_pass(self, index: int) -> PassResult:
        kind = "paced" if index % 2 else "saturation"
        due = self.due_times(index)
        host_start = perf_counter()
        if self.updates:
            self.database.data_restore(self.data)
        server = self._server(max_concurrency=8)
        arrivals = self.arrivals
        records: List[Optional[OpRecord]] = [None] * len(arrivals)
        clock = busy = 0.0
        submitted = completed = rounds = backlog_end = 0
        while completed < len(arrivals):
            if server.queue_depth == 0 and submitted < len(arrivals):
                clock = max(clock, due[submitted])
            while submitted < len(arrivals) and due[submitted] <= clock:
                arrival = arrivals[submitted]
                server.submit(arrival.query,
                              label=f"{arrival.class_key}#{arrival.index}")
                submitted += 1
            if submitted == len(arrivals) and not backlog_end:
                backlog_end = server.queue_depth
            with self.spans.op(f"round/{rounds}"):
                try:
                    served, elapsed = server.step()
                except Exception:
                    # The server leaves the round's futures stranded; every
                    # arrival not yet completed counts as failed.
                    traceback.print_exc(file=sys.stderr)
                    break
            clock += elapsed
            busy += elapsed
            rounds += 1
            for future in served:
                outcome = future.outcome
                arrival = arrivals[future.index]
                record = OpRecord(
                    str(arrival.index), self.pin_of(arrival, outcome),
                    clock - due[future.index], rows=outcome.rows,
                    cycles=outcome.cycles, cached=outcome.result_cached,
                    service_seconds=outcome.service_seconds)
                if self.collect_sim:
                    record.sim = _sim_counts(outcome.result.counters,
                                             outcome.result.breakdown)
                records[future.index] = record
            completed += len(served)
        ops = [record or OpRecord(str(position), "", None)
               for position, record in enumerate(records)]
        return PassResult(kind, perf_counter() - host_start, clock, ops,
                          serving={"rounds": rounds, "busy_seconds": busy,
                                   "backlog_end": backlog_end,
                                   "stats": server.stats})

    def pin_of(self, arrival: Arrival, outcome) -> str:
        raise NotImplementedError

    def replay_arrivals(self) -> Sequence[Arrival]:
        """The arrivals a serial replay needs to decide every op."""
        return self.arrivals

    def verify(self, first: PassResult) -> Dict[str, str]:
        """Replay on a serial server with every layer off and compare rows.

        A query that was served rows from before an update that preceded
        it in the trace differs from the replay, and fails.
        """
        self.database.data_restore(self.data)
        server = self._server(max_concurrency=1, plan_cache=False,
                              result_cache=False, shared_scans=False)
        replayed = {}
        for arrival in self.replay_arrivals():
            replayed[self.replay_key(arrival)] = \
                server.submit(arrival.query).result().rows
        failures = {}
        for arrival, record in zip(self.arrivals, first.ops):
            if record.seconds is not None \
                    and record.rows != replayed[self.replay_key(arrival)]:
                failures[record.key] = (
                    f"{arrival.class_key} rows differ from the serial replay")
        return failures

    def replay_key(self, arrival: Arrival):
        return arrival.index


class ServeFresh(ServingWorkload):
    name = "serve_fresh"
    why = ("64 arrivals with drawn constants and 10% updates, so the result "
           "cache misses: per-query restore, session construction, planning "
           "and execution all matter; where plan cache and shared scans "
           "could.")
    pass_seconds = 2.5
    paced_rate = 5.0
    updates = True

    #: Arrivals per class in a trace of 64: 30% SRS-10, 20% SRS-50, 20%
    #: IRS, 10% SJ, 10% ACS, 10% update.
    MIX = (("SRS-10", 19), ("SRS-50", 13), ("IRS", 13), ("SJ", 6),
           ("ACS", 6), ("UPD", 7))

    def make_arrivals(self) -> List[Arrival]:
        # The class of each arrival is the same for every seed; the seed
        # draws the constants (and the paced gaps).  With the order drawn
        # too, the number of joins, of updates and of repeats a cached
        # result can serve -- the work in a pass -- would change with the
        # seed, and so would every metric.  A shorter trace is a prefix.
        classes = [name for name, count in self.MIX for _ in range(count)]
        random.Random("serve_fresh/class order").shuffle(classes)
        rng = random.Random(f"{self.seed}/{self.name}/constants")
        micro = self.micro
        domain = micro.config.a2_domain

        def windows(selectivity: float) -> List[float]:
            # Distinct, unclamped window starts: no two selections of a
            # class share constants, so every one misses the result cache.
            starts = range(domain - int(round(selectivity * domain)) + 1)
            return [start / domain for start in rng.sample(starts, 19)]

        offsets = {"SRS-10": windows(0.10), "SRS-50": windows(0.50),
                   "IRS": windows(0.10)}
        keys = rng.sample(range(1, domain + 1), 7)
        arrivals = []
        for index, class_key in enumerate(classes[:24 if self.smoke else 64]):
            if class_key == "SRS-10":
                query = micro.sequential_range_selection(
                    0.10, offset=offsets[class_key].pop())
            elif class_key == "SRS-50":
                query = micro.sequential_range_selection(
                    0.50, offset=offsets[class_key].pop())
            elif class_key == "IRS":
                query = micro.indexed_range_selection(
                    0.10, offset=offsets[class_key].pop())
            elif class_key == "SJ":
                query = micro.sequential_join()
            elif class_key == "ACS":
                query = micro.skewed_conjunct_selection()
            else:
                # a2 carries the selection index; a3 is not indexed, so the
                # raw-page data_restore before each pass undoes the update.
                query = UpdateQuery(table="R", key_column="a2",
                                    key_value=keys.pop(), set_column="a3",
                                    set_value=rng.randrange(10_000),
                                    label="UPD")
            arrivals.append(Arrival(index, class_key, query))
        return arrivals

    def pin_of(self, arrival: Arrival, outcome) -> str:
        return f"{arrival.index:02d}/{arrival.class_key}"


class ServeRepeat(ServingWorkload):
    name = "serve_repeat"
    why = ("4,000 arrivals over 5 fixed queries, 3,995 result-cache hits: "
           "the hit path does the work and execution almost none; the "
           "control on which engine and storage changes predict no change.")
    pass_seconds = 0.47
    paced_rate = 200.0

    def make_arrivals(self) -> List[Arrival]:
        trace = build_trace(self.micro, ServingTraceConfig(
            queries=400 if self.smoke else 4_000, seed=self.seed,
            classes=TRACE_CLASSES))
        return [Arrival(item.index, item.class_key, item.query)
                for item in trace]

    def pin_of(self, arrival: Arrival, outcome) -> str:
        served = "hit" if outcome.result_cached else "miss"
        return f"{arrival.class_key}/{served}"

    def replay_arrivals(self) -> Sequence[Arrival]:
        # No arrival writes, so rows are a function of the query class: one
        # serial execution per class decides all 4,000 ops.
        first = {}
        for arrival in self.arrivals:
            first.setdefault(arrival.class_key, arrival)
        return list(first.values())

    def replay_key(self, arrival: Arrival):
        return arrival.class_key


WORKLOADS = {cls.name: cls for cls in (GridVec, PaperTuple, TpcMix,
                                       ServeFresh, ServeRepeat)}
