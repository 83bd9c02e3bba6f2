"""The kernel backends: one query, two data planes, identical counts.

The vectorized engine's inner loops -- predicate masks, selection-vector
compaction, gathers, hash-join bucket hashing, aggregate folds -- live in
``repro.execution.kernels`` behind a small ``Kernels`` interface with two
interchangeable backends:

* ``python`` -- the original pure-Python loops, the oracle every other
  backend is differenced against;
* ``array`` -- the same contracts on numpy (what the default ``"auto"``
  means), taking the oracle loop for a call whose constant numpy could
  compare differently from Python (``None``, a mistyped or inexact
  constant), for ``CHAR`` columns and for float folds.

The backends sit *behind the count-identity wall*: kernels only ever see
data, never the simulated processor, so every cache visit, TLB walk
and branch the model charges happens in exactly the same place regardless
of backend.  Same rows, same column order, byte-identical simulated
counters -- wall clock is the only thing allowed to differ.

Columns are typed numpy arrays from page decode to the result rows
(DESIGN.md, "Typed vectors from page decode to ``rows()``"), so the array
kernels run on them as they are, while the python backend converts each
input with ``tolist()`` and its result back to an array.  Two runs of
this example on a 2-core Linux box (numpy 2.4, Python 3.11) measured the
array backend 1.2-1.9x faster on the selection and 1.3-1.4x on the join
at batch 256; at batch 4096 one join run came out 0.82x, so single runs
are noisy.  The backend identity wall is ``tests/test_kernels.py``; this
example is the wall-clock side.

This example runs the microbenchmark's sequential range selection and its
equijoin under ``kernel_backend="python"`` and ``"array"`` at two batch
sizes and prints the invariant that actually matters: identical cycles
every time, whichever way the wall clock goes.

Run with::

    PYTHONPATH=src python examples/kernel_speedup.py
"""

import time

from repro.engine import Session
from repro.systems import SYSTEM_B
from repro.workloads.micro import MicroWorkload


def run(workload, query, backend, batch_size):
    database = workload.build()
    session = Session(database, SYSTEM_B, os_interference=None,
                      engine="vectorized", kernel_backend=backend,
                      batch_size=batch_size)
    start = time.perf_counter()
    result = session.execute(query)
    wall = time.perf_counter() - start
    return result, wall


def main() -> None:
    workload = MicroWorkload()  # default scale: R = 6,000 rows, S = 200
    queries = [("10% sequential selection",
                workload.sequential_range_selection()),
               ("equijoin R |X| S", workload.over_budget_join())]

    print(f"{'query':>24} {'batch':>6} {'backend':>8} {'cycles':>12} "
          f"{'wall':>9}  array/python")
    for name, query in queries:
        for batch_size in (256, 4096):
            results = {}
            for backend in ("python", "array"):
                result, wall = run(workload, query, backend, batch_size)
                results[backend] = (result, wall)
                ratio = ""
                if backend == "array":
                    ratio = f"{results['python'][1] / wall:>6.2f}x"
                print(f"{name:>24} {batch_size:>6} {backend:>8} "
                      f"{result.counters.get('CPU_CLK_UNHALTED'):>12,} "
                      f"{wall:>8.3f}s {ratio}")
            python_result = results["python"][0]
            array_result = results["array"][0]
            assert array_result.rows == python_result.rows, \
                "backends returned different rows!"
            assert (array_result.counters.as_dict()
                    == python_result.counters.as_dict()), \
                "backends charged different simulated counts!"
        print(f"{'':>24} rows and simulated counters identical\n")


if __name__ == "__main__":
    main()
