"""Interchangeable data-plane kernels behind the count-identity wall.

The simulated-hardware charges are the reproduction's ground truth; the
*data work* driving them (predicate masks, selection vectors, gathers, key
hashing, aggregate folds) is an implementation detail the differential
harness proves invisible.  This package splits that data work out of the
vectorized operators into a :class:`~.python_backend.PythonKernels`
interface with two backends:

* ``python`` -- the original pure-Python loops, extracted verbatim and put
  on typed vectors by one adaptor: the oracle every other backend is
  diffed against.
* ``array`` -- the same contracts on numpy, falling back to the oracle
  loop for a call whose constant numpy could compare differently from
  Python (``None``, a mistyped or an inexact constant), for ``CHAR``
  vectors and for float folds.

Backends are selected by the ``kernel_backend`` field of
:class:`~repro.query.plans.ExecutionConfig` and reach operators as
``ExecutionContext.kernels``.  ``auto`` (the default) is ``array``.

Kernels take and return the engine's typed column vectors -- ``ndarray``
values of a column's :data:`~repro.storage.schema.VECTOR_DTYPES` dtype,
``bool`` masks, ``intp`` positions -- (given plain sequences, the ``python``
backend runs its loops on them and returns lists), and never see an execution
context, so the charging calls cannot move: rows, row order, column order
and every simulated counter are byte-identical across backends (asserted
by ``tests/test_kernels.py`` on every planner-producible plan shape).
"""

from __future__ import annotations

from ...query.plans import (KERNEL_BACKEND_ARRAY, KERNEL_BACKEND_AUTO,
                            KERNEL_BACKEND_PYTHON, KERNEL_BACKENDS)
from .array_backend import ArrayKernels
from .python_backend import (PYTHON_KERNELS, PythonKernels, key_hash,
                             spill_partition_of)

__all__ = [
    "KERNEL_BACKEND_AUTO", "KERNEL_BACKEND_PYTHON", "KERNEL_BACKEND_ARRAY",
    "KERNEL_BACKENDS", "PYTHON_KERNELS", "ARRAY_KERNELS", "PythonKernels",
    "ArrayKernels", "Kernels", "key_hash", "resolve_kernels",
    "spill_partition_of",
]

#: The interface type: any backend is substitutable for the Python one.
Kernels = PythonKernels

ARRAY_KERNELS = ArrayKernels()


def resolve_kernels(backend: str = KERNEL_BACKEND_AUTO) -> PythonKernels:
    """The kernel implementation for a ``kernel_backend`` knob value."""
    if backend == KERNEL_BACKEND_PYTHON:
        return PYTHON_KERNELS
    if backend in (KERNEL_BACKEND_ARRAY, KERNEL_BACKEND_AUTO):
        return ARRAY_KERNELS
    raise ValueError(f"unknown kernel backend {backend!r}; "
                     f"expected one of {KERNEL_BACKENDS}")
