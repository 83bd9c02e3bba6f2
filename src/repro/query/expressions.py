"""Scalar expressions and aggregate specifications.

The microbenchmark queries only need a small expression language:

* column references and literals,
* comparisons (``<``, ``<=``, ``=``, ``>=``, ``>``, ``<>``) and ``BETWEEN``,
* conjunction / disjunction / negation,
* the scalar aggregates ``AVG``, ``SUM``, ``COUNT``, ``MIN`` and ``MAX``.

Expressions are evaluated against a *row mapping* (column name -> value).  The
evaluator also reports which columns a predicate touches so the executor knows
which record fields (and therefore which cache lines) each evaluation reads,
and how many data-dependent branch outcomes it produces -- this is how the
selection predicate's behaviour reaches the branch predictor model.

Null semantics: a comparison (or ``BETWEEN``) involving ``None`` evaluates to
``False`` rather than raising ("NULL is not less than anything", as in SQL).
Logic stays *two-valued*, though: ``Not`` inverts that ``False``, so
``NOT (NULL < 3)`` is ``True`` here where SQL's three-valued logic would
filter the row.  Predicates are pure, but not total: comparing values of
unorderable types (an integer column against a string constant) raises
``TypeError``.  ``And`` and ``Or`` therefore short-circuit in both forms --
row by row in :meth:`Expression.evaluate`, and over the rows still
undecided in :meth:`Expression.evaluate_batch` -- so both engines evaluate
each operand on the same rows and fail the same queries.  Conjunction is
commutative only for predicates that raise on no row; that is what the
adaptive conjunct-reordering subsystem (:mod:`repro.adaptive`) relies on
to shuffle evaluation order without changing a single result row.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np


class ExpressionError(ValueError):
    """Raised for malformed expressions or evaluation failures."""


def _column_vector(columns: Mapping[str, Sequence], name: str) -> Optional[Sequence]:
    """Look up a column vector, accepting qualified or unqualified names."""
    if name in columns:
        return columns[name]
    return columns.get(name.split(".")[-1])


_DEFAULT_KERNELS = None


def _python_values(vector: Sequence) -> Sequence:
    """A typed vector's values as Python objects; any other sequence as is."""
    return vector.tolist() if type(vector) is np.ndarray else vector


def _default_kernels():
    """The pure-Python kernel backend (lazy: avoids a query<->execution cycle)."""
    global _DEFAULT_KERNELS
    if _DEFAULT_KERNELS is None:
        from ..execution.kernels.python_backend import PYTHON_KERNELS
        _DEFAULT_KERNELS = PYTHON_KERNELS
    return _DEFAULT_KERNELS


class Expression:
    """Base class for scalar (boolean or numeric) expressions."""

    def evaluate(self, row: Mapping[str, object]) -> object:
        raise NotImplementedError

    def evaluate_batch(self, columns: Mapping[str, Sequence],
                       count: int, kernels=None) -> np.ndarray:
        """Boolean selection mask over ``count`` rows given as column vectors.

        The vectorized engine's columnar dataflow evaluates predicates
        against column vectors (typed arrays) rather than row dicts, and
        gets a ``bool`` array back.  The base
        implementation materializes a minimal row view per position (so any
        expression works); :class:`Between` and :class:`Comparison` override
        it with single-column kernel calls, and the logical connectives
        combine their operands' masks elementwise.  Results are positionally
        identical to calling :meth:`evaluate` on each row.

        ``kernels`` selects the data-plane implementation
        (:mod:`repro.execution.kernels`); ``None`` uses the pure-Python
        backend.  The mask is backend-independent by contract.
        """
        names = tuple(columns)
        if not names:
            return np.array([bool(self.evaluate({})) for _ in range(count)],
                            dtype=bool)
        # Rows of Python values (a typed vector's ``tolist()``), as the
        # tuple engine evaluates them.
        vectors = tuple(_python_values(columns[name]) for name in names)
        return np.array([bool(self.evaluate(dict(zip(names, values))))
                         for values in zip(*vectors)], dtype=bool)

    def columns(self) -> FrozenSet[str]:
        """Names of the columns this expression reads."""
        raise NotImplementedError

    def comparison_count(self) -> int:
        """Number of data-dependent comparisons (conditional branches) evaluated."""
        return 0


@dataclass(frozen=True)
class ColumnRef(Expression):
    """Reference to a column by name (optionally qualified, ``"R.a2"``)."""

    name: str

    def evaluate(self, row: Mapping[str, object]) -> object:
        try:
            return row[self.name]
        except KeyError:
            # Allow unqualified lookup of qualified references and vice versa.
            short = self.name.split(".")[-1]
            if short in row:
                return row[short]
            raise ExpressionError(f"row has no column {self.name!r}") from None

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.name})

    @property
    def unqualified(self) -> str:
        return self.name.split(".")[-1]


@dataclass(frozen=True)
class Const(Expression):
    """A literal constant."""

    value: object

    def evaluate(self, row: Mapping[str, object]) -> object:
        return self.value

    def columns(self) -> FrozenSet[str]:
        return frozenset()


class ComparisonOp(Enum):
    LT = "<"
    LE = "<="
    EQ = "="
    NE = "<>"
    GE = ">="
    GT = ">"

    def apply(self, left, right) -> bool:
        if left is None or right is None:
            # SQL-style: comparisons against NULL are never satisfied.
            return False
        if self is ComparisonOp.LT:
            return left < right
        if self is ComparisonOp.LE:
            return left <= right
        if self is ComparisonOp.EQ:
            return left == right
        if self is ComparisonOp.NE:
            return left != right
        if self is ComparisonOp.GE:
            return left >= right
        return left > right


@dataclass(frozen=True)
class Comparison(Expression):
    """``left OP right`` over two scalar sub-expressions."""

    op: ComparisonOp
    left: Expression
    right: Expression

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return self.op.apply(self.left.evaluate(row), self.right.evaluate(row))

    def evaluate_batch(self, columns: Mapping[str, Sequence],
                       count: int, kernels=None) -> np.ndarray:
        if type(self.left) is ColumnRef and type(self.right) is Const:
            vector = _column_vector(columns, self.left.name)
            if vector is not None:
                return (kernels or _default_kernels()).compare_const(
                    self.op, vector, self.right.value)
        return Expression.evaluate_batch(self, columns, count, kernels)

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def comparison_count(self) -> int:
        return 1 + self.left.comparison_count() + self.right.comparison_count()


@dataclass(frozen=True)
class Between(Expression):
    """``expr > low AND expr < high`` -- the paper's range qualification.

    The bounds are exclusive by default, matching query (1) in Section 3.3
    (``where a2 < Hi and a2 > Lo``); inclusive variants are available for the
    workload sweeps.
    """

    expr: Expression
    low: Expression
    high: Expression
    include_low: bool = False
    include_high: bool = False

    def evaluate(self, row: Mapping[str, object]) -> bool:
        value = self.expr.evaluate(row)
        low = self.low.evaluate(row)
        high = self.high.evaluate(row)
        if value is None or low is None or high is None:
            return False
        low_ok = value >= low if self.include_low else value > low
        if not low_ok:
            return False
        return value <= high if self.include_high else value < high

    def evaluate_batch(self, columns: Mapping[str, Sequence],
                       count: int, kernels=None) -> np.ndarray:
        if type(self.expr) is ColumnRef and type(self.low) is Const \
                and type(self.high) is Const:
            vector = _column_vector(columns, self.expr.name)
            if vector is not None:
                low, high = self.low.value, self.high.value
                if low is None or high is None:
                    return np.zeros(count, dtype=bool)
                return (kernels or _default_kernels()).between_const(
                    vector, low, high, self.include_low, self.include_high)
        return Expression.evaluate_batch(self, columns, count, kernels)

    def columns(self) -> FrozenSet[str]:
        return self.expr.columns() | self.low.columns() | self.high.columns()

    def comparison_count(self) -> int:
        return 2


def _short_circuit(operands: Sequence[Expression],
                   columns: Mapping[str, Sequence], count: int, kernels,
                   decided: bool) -> np.ndarray:
    """The mask of ``And`` (``decided=False``) or ``Or`` (``decided=True``)
    over ``operands``, short-circuited as :meth:`And.evaluate` and
    :meth:`Or.evaluate` are: operand ``k`` sees only the rows operands
    ``1..k-1`` left undecided, so it never runs on -- and never raises for
    -- a row the row-at-a-time form would not hand it."""
    kernels = kernels or _default_kernels()
    undecided = None  # every row
    for operand in operands:
        remaining = count if undecided is None else len(undecided)
        if not remaining:
            break
        if remaining == count:
            subset = columns
        else:
            subset = {}
            for name in operand.columns():
                vector = _column_vector(columns, name)
                if vector is not None:
                    subset[name] = kernels.gather(vector, undecided)
        outcomes = operand.evaluate_batch(subset, remaining, kernels)
        if decided:
            outcomes = kernels.not_mask(outcomes)
        undecided = (kernels.compact(outcomes) if undecided is None
                     else kernels.select(undecided, outcomes))
    if undecided is None:
        return np.full(count, not decided)
    # The rows no operand decided: ``And``'s true rows, ``Or``'s false ones.
    mask = kernels.scatter(undecided, count)
    return kernels.not_mask(mask) if decided else mask


@dataclass(frozen=True)
class And(Expression):
    """Conjunction with short-circuit evaluation."""

    operands: Tuple[Expression, ...]

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return all(op.evaluate(row) for op in self.operands)

    def evaluate_batch(self, columns: Mapping[str, Sequence],
                       count: int, kernels=None) -> np.ndarray:
        return _short_circuit(self.operands, columns, count, kernels,
                              decided=False)

    def columns(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for op in self.operands:
            out |= op.columns()
        return out

    def comparison_count(self) -> int:
        return sum(op.comparison_count() for op in self.operands)


@dataclass(frozen=True)
class Or(Expression):
    """Disjunction with short-circuit evaluation."""

    operands: Tuple[Expression, ...]

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return any(op.evaluate(row) for op in self.operands)

    def evaluate_batch(self, columns: Mapping[str, Sequence],
                       count: int, kernels=None) -> np.ndarray:
        return _short_circuit(self.operands, columns, count, kernels,
                              decided=True)

    def columns(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for op in self.operands:
            out |= op.columns()
        return out

    def comparison_count(self) -> int:
        return sum(op.comparison_count() for op in self.operands)


@dataclass(frozen=True)
class Not(Expression):
    """Logical negation."""

    operand: Expression

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return not self.operand.evaluate(row)

    def evaluate_batch(self, columns: Mapping[str, Sequence],
                       count: int, kernels=None) -> np.ndarray:
        mask = self.operand.evaluate_batch(columns, count, kernels)
        return (kernels or _default_kernels()).not_mask(mask)

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def comparison_count(self) -> int:
        return self.operand.comparison_count()


# --------------------------------------------------------------------------
# Aggregates
# --------------------------------------------------------------------------
class AggregateFunction(Enum):
    AVG = "avg"
    SUM = "sum"
    COUNT = "count"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class Aggregate:
    """An aggregate over a column (``COUNT`` accepts ``column=None`` for ``*``)."""

    function: AggregateFunction
    column: Optional[str] = None

    def __post_init__(self) -> None:
        if self.function is not AggregateFunction.COUNT and self.column is None:
            raise ExpressionError(f"{self.function.value}() requires a column")

    @property
    def label(self) -> str:
        return f"{self.function.value}({self.column or '*'})"


class AggregateState:
    """Mutable accumulator for one aggregate (the executor's private state).

    The accumulator deliberately lives in the executor's *workspace* region of
    the simulated address space -- it is exactly the kind of hot private
    structure whose residence in the L1 D-cache the paper credits for the low
    L1D miss rates.
    """

    __slots__ = ("spec", "count", "total", "minimum", "maximum")

    def __init__(self, spec: Aggregate) -> None:
        self.spec = spec
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[object] = None
        self.maximum: Optional[object] = None

    def update(self, value) -> None:
        self.count += 1
        if value is None:
            return
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def result(self):
        function = self.spec.function
        if function is AggregateFunction.COUNT:
            return self.count
        if self.count == 0:
            return None
        if function is AggregateFunction.SUM:
            return self.total
        if function is AggregateFunction.AVG:
            return self.total / self.count
        if function is AggregateFunction.MIN:
            return self.minimum
        return self.maximum


# --------------------------------------------------------------------------
# Convenience constructors
# --------------------------------------------------------------------------
def column(name: str) -> ColumnRef:
    return ColumnRef(name)


def const(value) -> Const:
    return Const(value)


def conjunction(*operands: Expression) -> And:
    """``operand AND operand AND ...`` (multi-conjunct qualifications)."""
    return And(tuple(operands))


def range_predicate(column_name: str, low, high,
                    include_low: bool = False, include_high: bool = False) -> Between:
    """``column > low AND column < high`` (the paper's range qualification)."""
    return Between(ColumnRef(column_name), Const(low), Const(high),
                   include_low=include_low, include_high=include_high)


def equals(column_name: str, value) -> Comparison:
    return Comparison(ComparisonOp.EQ, ColumnRef(column_name), Const(value))


def avg(column_name: str) -> Aggregate:
    return Aggregate(AggregateFunction.AVG, column_name)


def count_star() -> Aggregate:
    return Aggregate(AggregateFunction.COUNT, None)
