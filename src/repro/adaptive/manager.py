"""The adaptive execution manager: decompose, reorder, short-circuit, decide.

:class:`AdaptiveExecution` is the object the execution layer talks to.  It
owns one decision policy and one
:class:`~repro.adaptive.stats.RuntimeStatsCollector`, carries the opt-in
``join_sides`` / ``batch_sizing`` decision switches the vectorized hash
join and sequential scans consult, and replaces the single
``predicate.evaluate_batch`` call of a vectorized filter with a
per-conjunct short-circuit pipeline:

1. the ``And`` tree is flattened into conjuncts (nested ``And`` s too;
   anything that is not a conjunction of two or more operands is left to
   the static path untouched),
2. the policy picks an evaluation order from the observed statistics --
   re-decided *per batch*, so a selectivity shift mid-scan changes the
   order mid-scan,
3. conjuncts are evaluated over the *surviving* row positions only
   (selection-vector short-circuiting: a row rejected by an earlier
   conjunct never reaches a later one), and
4. the surviving positions are recombined into a boolean mask that is
   positionally identical to evaluating the original predicate row by row.

Ordering safety: every expression in :mod:`repro.query.expressions` is a
pure function of its row, and total unless it compares unorderable types
(comparisons involving ``None`` evaluate to ``False`` rather than raising,
SQL-style).  For predicates that raise on no row, conjunction is
commutative and any evaluation order yields the same mask -- the
hypothesis harness in ``tests/test_adaptive.py`` drives random conjunct
sets (including ``Not``, ``Between`` and ``None``-valued columns) through
every policy to pin this.  A conjunct that raises on some rows may raise
under a reordering where source order would not have reached those rows
(``tests/test_predicate_short_circuit.py``).

Charging: each conjunct evaluation is charged through
:meth:`~repro.execution.context.ExecutionContext.visit_conjunct_batch` --
one batched ``predicate`` routine visit over the surviving rows *plus one
data-dependent branch per row* whose outcome is that row's pass/fail.  The
tuple engine models the selection branch per record
(``visit("predicate", data_taken=...)``); the vectorized engine amortised
it away into bulk loop branches.  The adaptive path restores it at conjunct
granularity, which is exactly the penalty surface the paper describes: a
50%-selective conjunct is a hardware coin-flip the predictor cannot learn,
while a well-skewed conjunct trains the 2-bit counters almost perfectly.
That is what makes ordering measurable on the simulated branch unit.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..query.expressions import And, Expression, _column_vector
from .policy import AdaptivePolicy, make_policy
from .stats import RuntimeStatsCollector, conjunct_key

#: Routine whose code segment conjunct evaluations are charged against.
PREDICATE_OPERATION = "predicate"


def flatten_conjuncts(predicate: Expression) -> Tuple[Expression, ...]:
    """Flatten (nested) ``And`` trees into a tuple of conjuncts."""
    if isinstance(predicate, And):
        out: List[Expression] = []
        for operand in predicate.operands:
            out.extend(flatten_conjuncts(operand))
        return tuple(out)
    return (predicate,)


class _ConjunctPlan:
    """Pre-resolved decomposition of one predicate (cached per manager)."""

    __slots__ = ("predicate", "conjuncts", "keys", "costs", "column_names")

    def __init__(self, predicate: Expression) -> None:
        self.predicate = predicate
        self.conjuncts = flatten_conjuncts(predicate)
        self.keys = tuple(conjunct_key(c) for c in self.conjuncts)
        # Static per-row cost proxy: the number of data-dependent
        # comparisons the conjunct evaluates (>= 1).
        self.costs = tuple(max(c.comparison_count(), 1) for c in self.conjuncts)
        self.column_names = tuple(tuple(c.columns()) for c in self.conjuncts)

    @property
    def applies(self) -> bool:
        return len(self.conjuncts) >= 2


def _resolve_vector(columns: Mapping[str, Sequence], name: str) -> Sequence:
    """Find a column vector by qualified or unqualified name (the expression
    layer's resolution rule, so the adaptive path cannot diverge from it)."""
    vector = _column_vector(columns, name)
    if vector is None:
        raise KeyError(f"batch {sorted(columns)} has no column {name!r}")
    return vector


class AdaptiveExecution:
    """Policy + statistics + the runtime decisions the engine consults.

    One instance lives on an :class:`~repro.execution.context.
    ExecutionContext` (attached by the session when
    ``adaptivity != "off"``); morsel workers build a private instance from
    the spec's snapshot and their data-side observations ride the charge
    tapes back into the parent's instance.

    Beyond the PR 4 conjunct-reordering decision (always active when the
    manager exists and the predicate is a multi-conjunct conjunction), the
    manager carries two opt-in decision switches, threaded from
    ``ExecutionConfig``:

    * ``join_sides`` -- the vectorized hash join consults
      :meth:`~repro.adaptive.policy.AdaptivePolicy.flip_join` between
      build-side batches and may build on the probe side instead
      (rows and column order stay identical to the static plan);
    * ``batch_sizing`` -- vectorized sequential scans accumulate vectors
      across page boundaries and consult
      :meth:`~repro.adaptive.policy.AdaptivePolicy.batch_size` from the
      observed L1D miss pressure.

    >>> manager = AdaptiveExecution("greedy", join_sides=True)
    >>> clone = AdaptiveExecution.from_snapshot(manager.snapshot())
    >>> (clone.mode, clone.join_sides, clone.batch_sizing)
    ('greedy', True, False)
    """

    def __init__(self, mode: str,
                 policy: Optional[AdaptivePolicy] = None,
                 collector: Optional[RuntimeStatsCollector] = None,
                 join_sides: bool = False,
                 batch_sizing: bool = False) -> None:
        self.mode = mode
        self.policy = policy or make_policy(mode)
        self.collector = collector or RuntimeStatsCollector()
        self.join_sides = join_sides
        self.batch_sizing = batch_sizing
        self._plans: Dict[int, _ConjunctPlan] = {}

    # ------------------------------------------------------------ plumbing
    def plan_for(self, predicate: Expression) -> _ConjunctPlan:
        plan = self._plans.get(id(predicate))
        if plan is None or plan.predicate is not predicate:
            plan = _ConjunctPlan(predicate)
            self._plans[id(predicate)] = plan
        return plan

    def applies(self, predicate: Optional[Expression]) -> bool:
        """True when the predicate is a >= 2-conjunct conjunction."""
        return predicate is not None and self.plan_for(predicate).applies

    def snapshot(self) -> dict:
        """Picklable state a morsel worker resumes from."""
        return {"mode": self.mode,
                "collector": self.collector.snapshot(),
                "policy": self.policy.state(),
                "join_sides": self.join_sides,
                "batch_sizing": self.batch_sizing}

    @classmethod
    def from_snapshot(cls, snapshot: Optional[dict]) -> "AdaptiveExecution":
        snapshot = snapshot or {}
        mode = snapshot.get("mode", "static")
        manager = cls(mode,
                      join_sides=bool(snapshot.get("join_sides", False)),
                      batch_sizing=bool(snapshot.get("batch_sizing", False)))
        manager.collector = RuntimeStatsCollector.from_snapshot(
            snapshot.get("collector"))
        manager.policy.restore(snapshot.get("policy"))
        return manager

    # ----------------------------------------------------------- the point
    def evaluate_batch(self, ctx, predicate: Expression,
                       columns: Mapping[str, Sequence], count: int) -> List[bool]:
        """Policy-ordered, short-circuiting replacement for
        ``predicate.evaluate_batch`` -- identical mask, adaptive charging.

        ``ctx`` is an execution context *or* a morsel worker's
        :class:`~repro.execution.parallel.TapeRecorder`; both expose
        ``visit_conjunct_batch`` and ``observe_conjuncts``.
        """
        plan = self.plan_for(predicate)
        order = self.policy.order(plan.keys, plan.costs, self.collector)
        kernels = getattr(ctx, "kernels", None)
        gather = kernels.gather if kernels is not None else None
        positions: List[int] = list(range(count))
        for conjunct_index in order:
            if not positions:
                break
            conjunct = plan.conjuncts[conjunct_index]
            key = plan.keys[conjunct_index]
            survivors_count = len(positions)
            sub_columns: Dict[str, Sequence] = {}
            for name in plan.column_names[conjunct_index]:
                vector = _resolve_vector(columns, name)
                # While every row survives (the first conjunct in the
                # order), the original vectors can be read directly --
                # evaluate_batch never mutates them.
                if survivors_count == count:
                    sub_columns[name] = vector
                elif gather is not None:
                    sub_columns[name] = gather(vector, positions)
                else:
                    sub_columns[name] = [vector[i] for i in positions]
            outcomes = conjunct.evaluate_batch(sub_columns, survivors_count,
                                               kernels)
            # One batched routine visit plus one data branch per surviving
            # row, at a site that identifies the *conjunct* (not its current
            # position), so predictor state follows the conjunct across
            # reorderings.
            ctx.visit_conjunct_batch(PREDICATE_OPERATION, outcomes,
                                     site=conjunct_index, key=key)
            if kernels is not None:
                survivors = kernels.select(positions, outcomes)
            else:
                survivors = [position for position, passed
                             in zip(positions, outcomes) if passed]
            ctx.observe_conjuncts(key, len(positions), len(survivors))
            positions = survivors
        mask = [False] * count
        for position in positions:
            mask[position] = True
        return mask
