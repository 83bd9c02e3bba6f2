"""The numpy kernel backend: same contracts, C-speed inner loops.

Every method must return *exactly* what the :class:`PythonKernels` oracle
returns -- same values, same Python types, same order -- because rows built
from kernel output are diffed byte-for-byte by the differential harness.
numpy makes that non-trivial in three ways, each handled by a guard that
falls back to the oracle loop for the offending call:

* **dtype coercion.**  ``np.asarray([1, 2.5])`` silently converts the int
  to a float; gathers must therefore use ``object`` arrays (values pass
  through untouched), and comparisons only run vectorized when the
  inferred dtype provably preserves every comparison outcome (integer
  dtypes always do; float dtypes only below 2**53, where an int -> float64
  coercion is exact).
* **``None`` / mixed values.**  Vectors containing ``None`` (SQL NULL) or
  mixed non-numeric types infer ``object`` dtype; object-dtype ufunc loops
  would call back into Python anyway, so those calls take the oracle path
  and keep its exact ``None -> False`` semantics.
* **accumulation order.**  ``np.sum`` is pairwise, the oracle accumulates
  sequentially; the two agree only when every partial sum is exactly
  representable, so aggregate folds run vectorized only for integer
  vectors whose magnitude bounds prove exactness (and fall back for
  floats, where rounding depends on order).

Hash kernels exploit CPython's ``hash(int) == int`` for ``|int| < 2**61-1``
(with ``hash(-1) == -2``); any key outside that window -- or any non-integer
key -- falls back.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .python_backend import PythonKernels

__all__ = ["ArrayKernels"]

#: Largest magnitude below which int -> float64 conversion is exact.
_EXACT_FLOAT = 2.0 ** 53
#: CPython's hash modulus for plain integers (Mersenne prime 2**61 - 1).
_HASH_MODULUS = (1 << 61) - 1


class ArrayKernels(PythonKernels):
    """numpy-backed kernels with per-call fallback to the oracle loops."""

    name = "array"

    _compare_funcs = {
        "<": np.less, "<=": np.less_equal, "=": np.equal,
        "<>": np.not_equal, ">=": np.greater_equal, ">": np.greater,
    }

    # ----------------------------------------------------------- dtype guard
    def _comparable_array(self, vector: Sequence):
        """Array view of a value vector, or ``None`` when vectorized
        comparisons could differ from the oracle (object dtype, or float
        dtype whose magnitudes reach the int-coercion rounding range)."""
        try:
            arr = np.asarray(vector)
        except Exception:
            return None
        kind = arr.dtype.kind
        if kind in "bui":
            return arr
        if kind == "f":
            with np.errstate(invalid="ignore"):
                if not bool((np.abs(arr) >= _EXACT_FLOAT).any()):
                    return arr
        return None

    @staticmethod
    def _exact_bound(value) -> bool:
        """True when ``value`` is a number every dtype promotion keeps exact."""
        if isinstance(value, bool):
            return True
        if isinstance(value, int):
            return -(2 ** 53) < value < 2 ** 53
        if isinstance(value, float):
            return abs(value) < _EXACT_FLOAT or value != value or value in (
                float("inf"), float("-inf"))
        return False

    def _int_exact(self, arr, constant) -> bool:
        """Integer-dtype array vs ``constant``: is the promotion exact?

        int64 vs int compares exactly; a float constant promotes the whole
        array to float64, which is lossy from 2**53 up.
        """
        if not isinstance(constant, float):
            return True
        return not bool((np.abs(arr.astype(np.int64, copy=False))
                         >= 2 ** 53).any())

    # ------------------------------------------------------------ predicates
    def compare_const(self, op, vector: Sequence, constant) -> List[bool]:
        if not vector:
            return []
        if constant is None:
            return [False] * len(vector)
        if self._exact_bound(constant):
            arr = self._comparable_array(vector)
            if arr is not None and (arr.dtype.kind not in "ui"
                                    or self._int_exact(arr, constant)):
                try:
                    mask = self._compare_funcs[op.value](arr, constant)
                except Exception:
                    mask = None
                if mask is not None:
                    return mask.tolist()
        return PythonKernels.compare_const(self, op, vector, constant)

    def between_const(self, vector: Sequence, low, high,
                      include_low: bool, include_high: bool) -> List[bool]:
        if not vector:
            return []
        if self._exact_bound(low) and self._exact_bound(high):
            arr = self._comparable_array(vector)
            if arr is not None and (arr.dtype.kind not in "ui"
                                    or (self._int_exact(arr, low)
                                        and self._int_exact(arr, high))):
                try:
                    low_ok = arr >= low if include_low else arr > low
                    high_ok = arr <= high if include_high else arr < high
                    mask = np.logical_and(low_ok, high_ok)
                except Exception:
                    mask = None
                if mask is not None:
                    return mask.tolist()
        return PythonKernels.between_const(self, vector, low, high,
                                           include_low, include_high)

    def not_mask(self, mask: Sequence[bool]) -> List[bool]:
        return np.logical_not(np.asarray(mask, dtype=bool)).tolist()

    # ----------------------------------------------------- selection vectors
    def compact(self, mask: Sequence[bool]) -> List[int]:
        return np.flatnonzero(np.asarray(mask, dtype=bool)).tolist()

    def select(self, positions: Sequence[int],
               outcomes: Sequence[bool]) -> List[int]:
        pos = np.asarray(positions, dtype=np.intp)
        keep = np.asarray(outcomes, dtype=bool)
        return pos[keep].tolist()

    # --------------------------------------------------------------- gathers
    def gather(self, vector: Sequence, positions: Sequence[int]) -> List:
        # An object array moves PyObject pointers in C: every value (ints,
        # floats, strings, None, anything) passes through bit-identical.
        try:
            arr = np.empty(len(vector), dtype=object)
            arr[:] = vector
            return arr.take(np.asarray(positions, dtype=np.intp)).tolist()
        except Exception:
            return PythonKernels.gather(self, vector, positions)

    # --------------------------------------------------------------- hashing
    def _hash_array(self, keys: Sequence):
        """int64 array equal to ``[key_hash(k) for k in keys]`` (which is
        ``hash(k)`` for an integer key), or ``None``."""
        try:
            arr = np.asarray(keys)
        except Exception:
            return None
        kind = arr.dtype.kind
        if kind == "b":
            arr = arr.astype(np.int64)
        elif kind == "i":
            arr = arr.astype(np.int64, copy=False)
        else:
            return None
        # hash(n) == n only inside (-(2**61 - 1), 2**61 - 1) ...
        if bool(((arr >= _HASH_MODULUS) | (arr <= -_HASH_MODULUS)).any()):
            return None
        # ... except hash(-1) == -2 (CPython reserves -1 for errors).
        if bool((arr == -1).any()):
            arr = np.where(arr == -1, np.int64(-2), arr)
        return arr

    def bucket_indices(self, keys: Sequence, buckets: int) -> List[int]:
        hashes = self._hash_array(keys)
        if hashes is None:
            return PythonKernels.bucket_indices(self, keys, buckets)
        # numpy's int64 % matches Python's floored modulo for positive moduli.
        return (hashes % buckets).tolist()

    def spill_partitions(self, keys: Sequence, level: int,
                         count: int) -> List[int]:
        hashes = self._hash_array(keys)
        if hashes is None:
            return PythonKernels.spill_partitions(self, keys, level, count)
        # Two's-complement view == Python's ``& 0xFFFF...F`` of a (possibly
        # negative) hash; uint64 arithmetic wraps mod 2**64 like the masks.
        mixed = hashes.view(np.uint64).copy()
        salt = np.uint64(((level + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        shift = np.uint64(33)
        mixed ^= salt
        mixed = (mixed ^ (mixed >> shift)) * np.uint64(0xFF51AFD7ED558CCD)
        mixed ^= mixed >> shift
        return (mixed % np.uint64(count)).tolist()

    # ----------------------------------------------------------- aggregation
    def fold(self, state, vector: Sequence) -> None:
        try:
            arr = np.asarray(vector)
        except Exception:
            arr = None
        if arr is None or arr.dtype.kind not in "bi" or not len(vector):
            PythonKernels.fold(self, state, vector)
            return
        arr64 = arr.astype(np.int64, copy=False)
        low = arr64.min().item()
        high = arr64.max().item()
        # Bounds first: past +/-2**53 we fall back anyway, and staying in
        # range keeps ``np.abs`` below it from wrapping on -2**63.
        if low <= -_EXACT_FLOAT or high >= _EXACT_FLOAT:
            PythonKernels.fold(self, state, vector)
            return
        # Exactness proof for the sequential float accumulator: if
        # |total| + sum(|values|) stays below 2**53, every partial sum the
        # oracle's ``total += value`` loop forms is exactly representable,
        # so one exact bulk add lands on the same float.
        magnitude = int(np.abs(arr64).sum(dtype=object))
        if abs(state.total) + magnitude >= _EXACT_FLOAT:
            PythonKernels.fold(self, state, vector)
            return
        state.count += len(vector)
        state.total += int(arr64.sum(dtype=object))
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
