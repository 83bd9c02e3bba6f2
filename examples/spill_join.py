"""The memory-budgeted hash join: one query, shrinking working memory.

The microbenchmark's equijoin (``select avg(R.a3) from R, S where
R.a2 = S.a1``) builds its hash table on S.  ``memory_budget_bytes`` caps
the vectorized join's working memory: when the build side no longer fits,
the join hash-partitions both inputs (grace/hybrid), keeps as many
partitions resident as the budget allows, and streams the rest through a
budget-sized buffer pool whose evictions and reloads are charged to the
simulated processor as page transfers -- the I/O traffic the paper's
configurations were deliberately sized to avoid.

The sweep below runs the identical query under budgets of infinity, then
2x / 1x / 0.5x / 0.1x the build side's byte footprint.  Two things to
watch:

* the *rows never change* -- the spilling join is row-, order- and
  column-identical to the in-memory join at every budget (asserted here
  and, adversarially, in ``tests/test_spill_join.py``);
* the charged page reads/writes appear once the budget really binds, and
  the simulated cycles grow with the spill traffic.

A second table judges the design by what it does when its assumptions are
wrong (the stance of the dynamic hybrid hash join study, arXiv:2112.02480).
When the resident partitions outgrow the budget mid-build, the join demotes
"the highest-numbered resident partition" -- a positional rule.  The
robustness ladder runs a *skewed* build whose highest-numbered partition is
its smallest (so the rule frees the least it could, again and again) beside
a uniform one, and reports budget overruns, page writes, bytes written and
the deepest re-partitioning level on a budget x skew grid.  It asserts only
that the rows never change; the numbers are the measurement a size-aware
victim rule would have to beat.

Run with::

    PYTHONPATH=src python examples/spill_join.py
"""

import random

from repro.adaptive.policy import plan_partition_count
from repro.engine import Database, Session
from repro.execution import build_plan
from repro.execution.kernels import spill_partition_of
from repro.query import JoinQuery, count_star
from repro.storage.schema import ColumnType
from repro.systems import SYSTEM_B
from repro.workloads.micro import MicroWorkload

RECORD_BYTES = 100
LADDER_BUDGETS = (("1.0x", 1.0), ("0.5x", 0.5), ("0.25x", 0.25), ("0.1x", 0.1))
LADDER_QUERY = JoinQuery(left_table="R", right_table="S", left_column="a2",
                         right_column="a1", aggregates=(count_star(),))


def ladder_build_keys(skew: str, s_rows: int, partitions: int,
                      rng: random.Random) -> list:
    """Join keys of the build side.  ``uniform``: the unique ``1..s_rows``.
    ``skewed``: partition ``p`` of ``partitions`` receives a share
    proportional to ``partitions - p`` -- the highest-numbered
    partition is the smallest -- in shuffled arrival order."""
    if skew == "uniform" or partitions < 2:
        return list(range(1, s_rows + 1))
    pools = [[] for _ in range(partitions)]
    for key in range(1, 8 * s_rows):
        pools[spill_partition_of(key, 0, partitions)].append(key)
    total = partitions * (partitions + 1) // 2
    keys = []
    for part, pool in enumerate(pools):
        share = max(round(s_rows * (partitions - part) / total), 1)
        keys.extend(pool[i % len(pool)] for i in range(share))
    rng.shuffle(keys)
    return keys


def ladder_database(build_keys: list, r_rows: int, rng: random.Random) -> Database:
    database = Database()
    columns = [("a1", ColumnType.INT32), ("a2", ColumnType.INT32),
               ("a3", ColumnType.INT32)]
    for name in ("R", "S"):
        database.create_table(name, columns, record_size=RECORD_BYTES)
    database.load("S", [(key, 0, rng.randint(0, 9_999)) for key in build_keys])
    database.load("R", [(i + 1, rng.choice(build_keys), rng.randint(0, 9_999))
                        for i in range(r_rows)])
    return database


def ladder_cell(skew: str, label: str, fraction: float, s_rows: int,
                r_rows: int, seed: int) -> dict:
    """One budget x skew cell: the spill numbers of the budgeted join, after
    checking its rows against the in-memory join of the same data."""
    budget = int(s_rows * RECORD_BYTES * fraction)
    partitions = plan_partition_count(s_rows, RECORD_BYTES, budget)
    outcomes = []
    for memory_budget in (None, budget):
        rng = random.Random(seed)
        database = ladder_database(
            ladder_build_keys(skew, s_rows, partitions, rng), r_rows, rng)
        with Session(database, SYSTEM_B, os_interference=None,
                     engine="vectorized",
                     memory_budget_bytes=memory_budget) as session:
            root = build_plan(session.plan(LADDER_QUERY), database.catalog,
                              session.context)
            outcomes.append((list(root.child.rows()), root.child,
                             dict(session.context.io_stats)))
    (reference, _, _), (rows, join, io) = outcomes
    assert rows == reference, "spilling changed the result!"
    return {"skew": skew, "label": label, "budget": budget,
            "partitions": partitions,
            "budget_overruns": io["budget_overruns"],
            "page_writes": io["page_writes"],
            "bytes_written": io["bytes_written"],
            "max_depth": join.spill_depth}


def robustness_ladder(s_rows: int = 400, r_rows: int = 2_000,
                      seed: int = 7) -> list:
    """The budget x skew grid, one :func:`ladder_cell` per row."""
    return [ladder_cell(skew, label, fraction, s_rows, r_rows, seed)
            for skew in ("uniform", "skewed")
            for label, fraction in LADDER_BUDGETS]


def main() -> None:
    workload = MicroWorkload()  # default scale: R = 6,000 rows, S = 200
    query = workload.over_budget_join()
    build_bytes = workload.config.s_bytes
    print(f"build side: {workload.config.s_rows} rows x "
          f"{workload.config.record_size} bytes = {build_bytes:,} bytes\n")

    budgets = [("inf", None),
               ("2.0x", 2 * build_bytes),
               ("1.0x", build_bytes),
               ("0.5x", build_bytes // 2),
               ("0.1x", build_bytes // 10)]

    reference_rows = None
    print(f"{'budget':>8} {'bytes':>10} {'cycles':>12} "
          f"{'page reads':>11} {'page writes':>12}")
    for label, budget in budgets:
        database = workload.build()
        session = Session(database, SYSTEM_B, os_interference=None,
                          engine="vectorized", memory_budget_bytes=budget)
        result = session.execute(query)
        io = session.context.io_stats
        print(f"{label:>8} {budget if budget is not None else '-':>10} "
              f"{result.counters.get('CPU_CLK_UNHALTED'):>12,} "
              f"{io['page_reads']:>11,} {io['page_writes']:>12,}")
        if reference_rows is None:
            reference_rows = result.rows
        else:
            assert result.rows == reference_rows, "spilling changed the result!"
        session.close()

    print("\nevery budget produced identical rows:", reference_rows)

    print("\nrobustness ladder (positional demotion; 400-row build, "
          "2,000-row probe):")
    print(f"{'skew':>8} {'budget':>8} {'parts':>6} {'overruns':>9} "
          f"{'page writes':>12} {'bytes written':>14} {'max depth':>10}")
    for cell in robustness_ladder():
        print(f"{cell['skew']:>8} {cell['label']:>8} {cell['partitions']:>6} "
              f"{cell['budget_overruns']:>9} {cell['page_writes']:>12,} "
              f"{cell['bytes_written']:>14,} {cell['max_depth']:>10}")


if __name__ == "__main__":
    main()
