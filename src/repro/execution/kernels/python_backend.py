"""The pure-Python kernel backend: the engine's original inner loops.

Every method body here is the loop the vectorized operators ran inline
before the kernel split -- extracted verbatim, not rewritten -- so this
backend is the oracle the differential suite (``tests/test_kernels.py``)
compares the ``array`` backend against.  One adaptor, :func:`_on_lists`,
puts the loops on the engine's typed vectors: an ``ndarray`` argument
reaches the loop as its ``tolist()`` (Python ``int``/``float``/``str``
values, exactly what the row engine computes with) and the loop's list
goes back as an array -- of the input vector's dtype for a gather.  Given
plain sequences, a kernel returns the loop's list unchanged.  Beyond numpy
it imports only :mod:`repro.storage.schema`, which is what lets
:mod:`repro.query.expressions` reach it without an import cycle.

The charging contract is enforced structurally: kernels receive only
data (value vectors, masks, position vectors, aggregate state) and return
data.  No kernel ever sees an execution context, so no kernel can move,
add or drop a simulated hardware charge -- backends can only differ in
wall-clock time.
"""

from __future__ import annotations

import zlib
from functools import wraps
from typing import List, Sequence

import numpy as np

from ...storage.schema import vector_of

__all__ = ["PythonKernels", "PYTHON_KERNELS", "key_hash", "spill_partition_of"]

#: ``key_hash(None)``: any constant will do, as long as it is one.
_NONE_HASH = 0x6E6F6E65
#: ``key_hash`` of every NaN, likewise.
_NAN_HASH = 0x6E616E


def key_hash(key) -> int:
    """The hash every join bucket and spill partition is chosen by.

    ``hash(key)`` for numbers (and anything else), which CPython computes
    the same way in every process; ``zlib.crc32`` of the bytes for ``str``
    and ``bytes`` keys, and one constant each for ``None`` and for every
    NaN, whose ``hash`` depends on ``PYTHONHASHSEED`` or on an object
    address -- so a join charges the same buckets in every process and
    every run.
    """
    kind = type(key)
    if kind is str:
        return zlib.crc32(key.encode("utf-8", "surrogatepass"))
    if kind is bytes:
        return zlib.crc32(key)
    if key is None:
        return _NONE_HASH
    if key != key:
        return _NAN_HASH
    return hash(key)


def spill_partition_of(key, level: int, count: int) -> int:
    """Deterministic spill-partition assignment, salted by recursion level.

    Runs :func:`key_hash` through a splitmix-style finalizer so the partition
    choice is decorrelated both from the ``key_hash(key) % buckets`` bucket
    choice (otherwise every resident partition would populate only a slice
    of the shared bucket array) and across recursion levels (otherwise a
    re-partitioned overflow would land every row in one sub-partition).
    """
    mixed = (key_hash(key) ^ ((level + 1) * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
    mixed = ((mixed ^ (mixed >> 33)) * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    mixed ^= mixed >> 33
    return mixed % count


#: ``_on_lists`` output dtype of a gather: that of the vector gathered from.
_LIKE_INPUT = "like input"


def _on_lists(out):
    """The adaptor around one oracle loop: ``ndarray`` arguments go in as
    their ``tolist()``; when one did, the loop's result comes back as an
    ``out``-dtype array (:data:`_LIKE_INPUT`: the first argument's dtype,
    ``object`` for a plain sequence; ``None``: the loop returns nothing)."""
    def adapt(loop):
        @wraps(loop)
        def kernel(self, *args):
            if not any(type(arg) is np.ndarray for arg in args):
                return loop(self, *args)
            result = loop(self, *[arg.tolist() if type(arg) is np.ndarray else arg
                                  for arg in args])
            if out is None:
                return result
            if out is _LIKE_INPUT:
                return vector_of(result, getattr(args[0], "dtype", object))
            return vector_of(result, out)
        return kernel
    return adapt


class PythonKernels:
    """Data-plane kernels as plain Python loops (the oracle)."""

    name = "python"

    # ------------------------------------------------------------ predicates
    @_on_lists(bool)
    def compare_const(self, op, vector: Sequence, constant) -> List[bool]:
        """``value OP constant`` per element, SQL-style ``None -> False``."""
        apply = op.apply
        return [apply(value, constant) for value in vector]

    @_on_lists(bool)
    def between_const(self, vector: Sequence, low, high,
                      include_low: bool, include_high: bool) -> List[bool]:
        """``low < value < high`` (bounds optionally inclusive) per element."""
        # Operand order and short circuit as in ``Between.evaluate``, so a
        # bound of the wrong type raises the same error on the same row.
        if include_low and include_high:
            return [value is not None and value >= low and value <= high
                    for value in vector]
        if include_low:
            return [value is not None and value >= low and value < high
                    for value in vector]
        if include_high:
            return [value is not None and value > low and value <= high
                    for value in vector]
        return [value is not None and value > low and value < high
                for value in vector]

    @_on_lists(bool)
    def not_mask(self, mask: Sequence[bool]) -> List[bool]:
        """Elementwise negation of a boolean mask."""
        return [not value for value in mask]

    # ----------------------------------------------------- selection vectors
    @_on_lists(np.intp)
    def compact(self, mask: Sequence[bool]) -> List[int]:
        """Positions of the set entries of a selection mask, ascending."""
        return [position for position, passed in enumerate(mask) if passed]

    @_on_lists(np.intp)
    def select(self, positions: Sequence[int],
               outcomes: Sequence[bool]) -> List[int]:
        """Filter a position list by parallel outcomes (adaptive conjuncts)."""
        return [position for position, passed in zip(positions, outcomes)
                if passed]

    @_on_lists(bool)
    def scatter(self, positions: Sequence[int], count: int) -> List[bool]:
        """The ``count``-row mask set at ``positions`` (inverse of
        :meth:`compact`)."""
        mask = [False] * count
        for position in positions:
            mask[position] = True
        return mask

    # --------------------------------------------------------------- gathers
    @_on_lists(_LIKE_INPUT)
    def gather(self, vector: Sequence, positions: Sequence[int]) -> List:
        """Values of ``vector`` at ``positions``, in position order."""
        return [vector[position] for position in positions]

    # --------------------------------------------------------------- hashing
    @_on_lists(np.int64)
    def bucket_indices(self, keys: Sequence, buckets: int) -> List[int]:
        """``key_hash(key) % buckets`` per key (hash-join bucket choice)."""
        return [key_hash(key) % buckets for key in keys]

    @_on_lists(np.int64)
    def spill_partitions(self, keys: Sequence, level: int,
                         count: int) -> List[int]:
        """Level-salted spill-partition index per key (grace/hybrid join)."""
        return [spill_partition_of(key, level, count) for key in keys]

    # ----------------------------------------------------------- aggregation
    @_on_lists(None)
    def fold(self, state, vector: Sequence) -> None:
        """Fold a value vector into one aggregate accumulator, in row order."""
        update = state.update
        for value in vector:
            update(value)

    def fold_count(self, state, count: int) -> None:
        """Fold ``count`` ``COUNT(*)`` rows into an aggregate accumulator."""
        update = state.update
        for _ in range(count):
            update(1)


#: Shared stateless instance -- the oracle.
PYTHON_KERNELS = PythonKernels()
