"""The numpy kernel backend: same contracts, C-speed inner loops.

Every method must return *exactly* what the :class:`PythonKernels` oracle
returns -- same values, same dtype, same order -- because rows built from
kernel output are diffed byte-for-byte by the differential harness.  The
vectors are the engine's typed arrays (``<i4``, ``<i8``, ``<f8``, or
``object`` for ``CHAR``), so whether numpy computes what Python would is a
property of the dtype and of the constant, never of the values: each call
checks its constant against the vector's dtype (:func:`_exact`) and runs
the oracle loop when that does not prove the numpy result equal --

* a ``None``, a non-number (``str``, a numpy scalar, ...) or a ``CHAR``
  (``object``) vector, so errors keep the oracle's type and message;
* an ``int`` outside the vector's integer range, or past 2**53 against a
  float vector (int -> float64 rounds from there on);
* a ``float`` against an ``<i8`` vector (its values round to float64).

Masks are ``bool`` arrays, selections ``intp`` arrays, a gather is fancy
indexing (an ``object`` vector moves its PyObject pointers, so values pass
through as they are).  Aggregate folds run vectorized for integer vectors
when ``min``/``max`` times the length bound every partial sum of the
oracle's sequential float accumulator below 2**53 (then each is exact and
one bulk add lands on the same float); float folds depend on the order of
rounding and take the loop.  Hash kernels reproduce CPython's integer hash
(``|n| mod 2**61 - 1`` with ``n``'s sign, and ``hash(-1) == -2``); float and
``CHAR`` keys take the loop.

Every argument is an array: plain sequences are the oracle's business.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .python_backend import PythonKernels

__all__ = ["ArrayKernels"]

#: Largest magnitude below which int -> float64 conversion is exact.
_EXACT_FLOAT = 2 ** 53
#: CPython's hash modulus for plain integers (Mersenne prime 2**61 - 1).
_HASH_MODULUS = np.uint64((1 << 61) - 1)

_COMPARE = {"<": np.less, "<=": np.less_equal, "=": np.equal,
            "<>": np.not_equal, ">=": np.greater_equal, ">": np.greater}


def _exact(vector, constant) -> bool:
    """True when numpy compares every value of the array ``vector`` with
    ``constant`` exactly as Python compares the value's ``tolist()``."""
    kind = vector.dtype.kind
    if type(constant) is float:
        # A float promotes the vector to float64: exact for <i4 and <f8.
        return kind == "f" or (kind == "i" and vector.dtype.itemsize <= 4)
    if type(constant) is int or type(constant) is bool:
        if kind == "i":
            low, high = _int_range(vector.dtype)
            return low <= constant <= high
        return kind == "f" and -_EXACT_FLOAT <= constant <= _EXACT_FLOAT
    return False


@lru_cache(maxsize=None)
def _int_range(dtype) -> tuple:
    info = np.iinfo(dtype)
    return int(info.min), int(info.max)


def _int_hashes(keys) -> np.ndarray:
    """``hash(key)`` of every key of an integer array, as ``int64``."""
    hashes = keys.astype(np.int64)
    if keys.dtype.itemsize > 4:
        # Reduce |key| modulo 2**61 - 1 and restore the sign: the uint64
        # negation of a negative int64 is its magnitude (2**63 included).
        negative = hashes < 0
        magnitude = hashes.view(np.uint64)
        np.negative(magnitude, out=magnitude, where=negative)
        hashes = (magnitude % _HASH_MODULUS).astype(np.int64)
        np.negative(hashes, out=hashes, where=negative)
    hashes[hashes == -1] = -2  # CPython reserves -1 for errors
    return hashes


class ArrayKernels(PythonKernels):
    """numpy kernels on typed vectors; the oracle loop where numpy could
    differ."""

    name = "array"

    # ------------------------------------------------------------ predicates
    def compare_const(self, op, vector, constant):
        if _exact(vector, constant):
            return _COMPARE[op.value](vector, constant)
        return PythonKernels.compare_const(self, op, vector, constant)

    def between_const(self, vector, low, high, include_low: bool,
                      include_high: bool):
        if _exact(vector, low) and _exact(vector, high):
            low_ok = vector >= low if include_low else vector > low
            high_ok = vector <= high if include_high else vector < high
            return low_ok & high_ok
        return PythonKernels.between_const(self, vector, low, high,
                                           include_low, include_high)

    def not_mask(self, mask):
        return ~mask

    # ----------------------------------------------------- selection vectors
    def compact(self, mask):
        return np.flatnonzero(mask)

    def select(self, positions, outcomes):
        return positions[outcomes]

    def scatter(self, positions, count: int):
        mask = np.zeros(count, dtype=bool)
        mask[positions] = True
        return mask

    # --------------------------------------------------------------- gathers
    def gather(self, vector, positions):
        return vector[positions]

    # --------------------------------------------------------------- hashing
    def bucket_indices(self, keys, buckets: int):
        if keys.dtype.kind == "i":
            # numpy's int64 % matches Python's floored modulo for positive moduli.
            return _int_hashes(keys) % buckets
        return PythonKernels.bucket_indices(self, keys, buckets)

    def spill_partitions(self, keys, level: int, count: int):
        if keys.dtype.kind != "i":
            return PythonKernels.spill_partitions(self, keys, level, count)
        # Two's-complement view == Python's ``& 0xFFFF...F`` of a (possibly
        # negative) hash; uint64 arithmetic wraps mod 2**64 like the masks.
        mixed = _int_hashes(keys).view(np.uint64)
        salt = np.uint64(((level + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        shift = np.uint64(33)
        mixed ^= salt
        mixed = (mixed ^ (mixed >> shift)) * np.uint64(0xFF51AFD7ED558CCD)
        mixed ^= mixed >> shift
        return (mixed % np.uint64(count)).astype(np.int64)

    # ----------------------------------------------------------- aggregation
    def fold(self, state, vector) -> None:
        count = len(vector)
        if not (vector.dtype.kind == "i" and count and state.total.is_integer()):
            PythonKernels.fold(self, state, vector)
            return
        low, high = vector.min().item(), vector.max().item()
        # Every partial sum of the oracle's ``total += value`` loop is at
        # most |total| + count * max(|low|, |high|) in magnitude.
        if abs(state.total) + count * max(-low, high) >= _EXACT_FLOAT:
            PythonKernels.fold(self, state, vector)
            return
        state.count += count
        state.total += int(vector.sum(dtype=np.int64))
        if state.minimum is None or low < state.minimum:
            state.minimum = low
        if state.maximum is None or high > state.maximum:
            state.maximum = high

    def fold_count(self, state, count: int) -> None:
        if count <= 0:
            return
        if abs(state.total) + count >= _EXACT_FLOAT:
            PythonKernels.fold_count(self, state, count)
            return
        state.count += count
        state.total += count
        if state.minimum is None or 1 < state.minimum:
            state.minimum = 1
        if state.maximum is None or 1 > state.maximum:
            state.maximum = 1
