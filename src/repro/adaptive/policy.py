"""Runtime-adaptation policies: conjunct order, join sides, batch size.

All policies implement one interface per *decision* -- given the relevant
stable keys, the static (planner-time) inputs and the current
:class:`~repro.adaptive.stats.RuntimeStatsCollector`, return the decision --
so the execution layer is policy-agnostic and new strategies slot in
without touching an operator.  The three decisions:

* :meth:`AdaptivePolicy.order` -- the evaluation order of a multi-conjunct
  filter (PR 4's original decision);
* :meth:`AdaptivePolicy.flip_join` -- whether a vectorized hash join should
  abandon the planner's build side and build on the probe side instead,
  consulted between build-side batches;
* :meth:`AdaptivePolicy.batch_size` -- the next vector size of a scan,
  stepped through the bounded :data:`BATCH_SIZE_LADDER` from observed L1D
  miss pressure, consulted between batches;
* :meth:`AdaptivePolicy.partition_count` -- how many spill partitions a
  memory-budgeted hash join should fan its inputs into, consulted once
  before build ingest.  The static arm sizes from the planner's cardinality
  estimate; greedy substitutes the observed build cardinality when earlier
  executions have measured it, which is the
  standard cure for the underestimated-build spiral of grace joins
  (arXiv:2112.02480).

``StaticPolicy`` answers every decision with the planner's choice, which
makes it the control arm of every adaptivity experiment: static vs greedy
isolates exactly the effect of the runtime decision under identical
charging.

>>> stats = RuntimeStatsCollector()
>>> policy = GreedyRankPolicy()
>>> policy.flip_join("card:R", "card:S", probe_estimate=200,
...                  seen_build_rows=0, stats=stats)
False
>>> policy.flip_join("card:R", "card:S", probe_estimate=200,
...                  seen_build_rows=300, stats=stats)
True

``GreedyRankPolicy`` implements the classical optimal ordering for
independent selection predicates (Hellerstein's predicate migration rank):
sort ascending by ``(selectivity - 1) / cost``.  A conjunct that filters
hard and costs little runs first; the expected total evaluation cost is
minimised.  The selectivities come from *observed* runtime statistics, which
is the whole point -- the planner wrote the conjuncts in source order
because it had no estimates, and runtime-stat-driven re-decisions are the
standard cure for planner misestimation (cf. the robust dynamic hash-join
line of work, arXiv:2112.02480).

``EpsilonGreedyPolicy`` keeps exploring: observed selectivities are
conditional on the short-circuit order that produced them (a conjunct
evaluated second only sees rows the first one passed), so a pure greedy
policy can lock onto a stale ordering when the data drifts.  With
probability epsilon it rotates the greedy order, refreshing the downstream
conjuncts' statistics.  Exploration is driven by a deterministic
counter-hash -- the same Knuth multiplicative hash the execution context
uses for pseudo-random branch outcomes -- so runs are reproducible.

Determinism contract: every policy's decision is a pure function of its
inputs plus (for epsilon-greedy) an internal decision counter that is part
of the policy's snapshot state.  Replaying the same batches through the
same snapshot yields the same orders.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .stats import RuntimeStatsCollector

#: Knuth multiplicative-hash constant (deterministic exploration).
_HASH_CONSTANT = 2654435761

#: Selectivity assumed for a conjunct with no observations yet.
DEFAULT_SELECTIVITY = 0.5

#: The bounded batch-size ladder.  Rungs double so the search space stays
#: tiny; the bounds keep an adaptive scan from degenerating into
#: tuple-at-a-time execution (below 32 the per-batch routine invocation
#: dominates) or unbounded vectors (above 1024 a single column vector of a
#: hot scan exceeds the whole 16 KB L1 D-cache many times over, so there is
#: nothing left to learn -- the working set cannot re-fit by growing).
BATCH_SIZE_LADDER = (32, 64, 128, 256, 512, 1024)

#: A join side flip requires the evidence (observed build rows) to exceed
#: the probe-side expectation by this factor -- hysteresis against flipping
#: on near-balanced inputs, where the flip's rebuild cost outweighs it.
JOIN_FLIP_HYSTERESIS = 1.25

#: Batch-size rungs whose observed misses-per-row are within this slack of
#: the best rung count as "fitting L1D"; the largest fitting rung wins (it
#: amortises the per-batch routine invocation hardest).
PRESSURE_SLACK = 0.15

#: Headroom factor applied to the estimated build-side footprint when
#: choosing a spill partition count: hash tables carry bucket/entry overhead
#: beyond the raw record bytes, and partition skew means the largest
#: partition exceeds the average.  Cf. the fudge factor of the classic
#: grace/hybrid sizing rule.
PARTITION_FUDGE = 1.2

#: Upper bound on the spill fan-out.  Beyond this, per-partition output
#: buffers thrash the budgeted pool harder than recursion costs; overflowing
#: partitions are re-partitioned recursively instead.
MAX_PARTITIONS = 64


def plan_partition_count(build_rows: float, row_bytes: int,
                         budget_bytes: Optional[int]) -> int:
    """Spill partition count for an expected build side of ``build_rows``.

    Returns 1 when the (fudged) footprint fits the budget -- the hybrid
    join's optimistic fully-resident plan -- and otherwise the classic
    ``ceil(footprint / budget)`` grace fan-out, clamped to
    [2, :data:`MAX_PARTITIONS`].
    """
    if budget_bytes is None or budget_bytes <= 0:
        return 1
    footprint = max(float(build_rows), 0.0) * max(row_bytes, 1) * PARTITION_FUDGE
    if footprint <= budget_bytes:
        return 1
    count = -(-int(footprint) // budget_bytes)  # ceiling division
    return max(2, min(count, MAX_PARTITIONS))


class AdaptivePolicy:
    """Interface: one method per runtime decision (order / flip / size).

    The base class answers the join-side and batch-size decisions with the
    planner's choice (never flip, keep the size), so a policy only overrides
    the decisions it actually adapts.
    """

    #: Name threaded through ``ExecutionConfig.adaptivity``.
    name = "abstract"

    def order(self, keys: Sequence[str], costs: Sequence[int],
              stats: RuntimeStatsCollector) -> Tuple[int, ...]:
        """Return the conjunct indices in evaluation order."""
        raise NotImplementedError

    def flip_join(self, build_key: str, probe_key: str, probe_estimate: int,
                  seen_build_rows: int, stats: RuntimeStatsCollector) -> bool:
        """Should the hash join flip its build/probe sides *now*?

        Consulted before each build-side batch is ingested.
        ``seen_build_rows`` is the build cardinality observed so far in this
        execution; historical cardinalities (earlier executions) live in
        ``stats``.  Default: trust the planner.
        """
        return False

    def batch_size(self, key: str, current: int,
                   stats: RuntimeStatsCollector,
                   ladder: Sequence[int] = BATCH_SIZE_LADDER) -> int:
        """The next vector size for the scan ``key`` (bounded by ``ladder``).

        Consulted after each batch's L1D pressure has been observed.
        Default: keep the configured size.
        """
        return current

    def partition_count(self, build_key: str, build_estimate: int,
                        row_bytes: int, budget_bytes: Optional[int],
                        stats: RuntimeStatsCollector) -> int:
        """How many spill partitions the memory-budgeted hash join fans into.

        Consulted once, before build ingest.  Default (and ``static``):
        trust the planner's ``build_estimate``.
        """
        return plan_partition_count(build_estimate, row_bytes, budget_bytes)


class StaticPolicy(AdaptivePolicy):
    """Planner order, unchanged -- the adaptive framework's control arm.

    Charging is identical to the adaptive policies (per-conjunct batched
    visits, per-row data branches), so measuring ``static`` against
    ``greedy`` isolates exactly the effect of the *ordering*.
    """

    name = "static"

    def order(self, keys: Sequence[str], costs: Sequence[int],
              stats: RuntimeStatsCollector) -> Tuple[int, ...]:
        return tuple(range(len(keys)))


def greedy_rank_order(keys: Sequence[str], costs: Sequence[int],
                      stats: RuntimeStatsCollector) -> Tuple[int, ...]:
    """Ascending ``(selectivity - 1) / cost`` with stable tie-breaking."""
    def rank(index: int) -> float:
        selectivity = stats.selectivity(keys[index], DEFAULT_SELECTIVITY)
        return (selectivity - 1.0) / max(costs[index], 1)

    return tuple(sorted(range(len(keys)), key=lambda i: (rank(i), i)))


def greedy_flip_join(build_key: str, probe_key: str, probe_estimate: int,
                     seen_build_rows: int,
                     stats: RuntimeStatsCollector) -> bool:
    """Flip when *observed* build cardinality contradicts the planner.

    The planner chose the build side because it believed it the smaller
    input.  The decision deliberately weighs only **observations** against
    the probe-side expectation -- the engine does not re-litigate the
    planner's estimates, it reacts to evidence: either this execution has
    already streamed more build rows than the probe side is expected to
    hold (``seen_build_rows``, the cold-run trigger), or earlier executions
    measured the build input's cardinality
    (``stats.cardinality(build_key)``, the warm-run trigger that flips
    before any build work is wasted).  The probe expectation prefers the
    observed probe cardinality and falls back to the planner's estimate.
    """
    expected_probe = stats.cardinality(probe_key)
    if expected_probe is None:
        expected_probe = float(probe_estimate)
    if expected_probe <= 0:
        return False
    expected_build = stats.cardinality(build_key) or 0.0
    evidence = max(float(seen_build_rows), expected_build)
    return evidence > JOIN_FLIP_HYSTERESIS * expected_probe


def greedy_partition_count(build_key: str, build_estimate: int, row_bytes: int,
                           budget_bytes: Optional[int],
                           stats: RuntimeStatsCollector) -> int:
    """Prefer the *observed* build cardinality over the planner's estimate.

    Warm executions have measured the build input's cardinality via
    ``stats.cardinality``; sizing the fan-out from
    that observation avoids both the underestimated-build spiral (too few
    partitions, every one overflows and recurses) and the overestimated
    fan-out (too many partitions, output buffers thrash the budgeted pool).
    Cold executions fall back to the estimate, exactly like ``static``.
    """
    observed = stats.cardinality(build_key)
    evidence = observed if observed is not None else float(build_estimate)
    return plan_partition_count(evidence, row_bytes, budget_bytes)


def greedy_batch_size(key: str, current: int, stats: RuntimeStatsCollector,
                      ladder: Sequence[int] = BATCH_SIZE_LADDER) -> int:
    """One ladder step per decision: explore untried neighbours, then settle.

    The rule is deterministic and needs no absolute miss-rate threshold:

    1. if the rung below ``current`` is unobserved, try it (explore down);
    2. else if the rung above is unobserved, try it (explore up);
    3. else settle on the **largest** observed rung whose misses-per-row is
       within :data:`PRESSURE_SLACK` of the best observed rung.

    Exploration walks each rung at most once (observations are cumulative,
    so a rung that thrashed L1D stays disqualified), after which the scan
    sits on the largest vector size whose working set still fits -- growing
    amortises the per-batch routine invocation, shrinking restores L1D
    reuse between a batch's column passes.

    >>> stats = RuntimeStatsCollector()
    >>> stats.observe_pressure("scan:R", 128, rows=128, l1d_misses=40)
    >>> greedy_batch_size("scan:R", 128, stats, ladder=(64, 128, 256))
    64
    >>> stats.observe_pressure("scan:R", 64, rows=64, l1d_misses=20)
    >>> greedy_batch_size("scan:R", 64, stats, ladder=(64, 128, 256))
    128
    >>> greedy_batch_size("scan:R", 128, stats, ladder=(64, 128, 256))
    256
    >>> stats.observe_pressure("scan:R", 256, rows=256, l1d_misses=900)
    >>> greedy_batch_size("scan:R", 256, stats, ladder=(64, 128, 256))
    128
    """
    rungs = sorted(set(ladder) | {current})
    profile = stats.pressure_profile(key)
    observed = {size: pressure.misses_per_row
                for size, pressure in profile.items()
                if size in rungs and pressure.misses_per_row is not None}
    position = rungs.index(current)
    if position > 0 and rungs[position - 1] not in observed:
        return rungs[position - 1]
    if position + 1 < len(rungs) and rungs[position + 1] not in observed:
        return rungs[position + 1]
    if not observed:
        return current
    best = min(observed.values())
    budget = best * (1.0 + PRESSURE_SLACK) + 1e-9
    fitting = [size for size, rate in observed.items() if rate <= budget]
    return max(fitting) if fitting else current


class GreedyRankPolicy(AdaptivePolicy):
    """Greedy on every decision: rank conjuncts by observed
    selectivity-per-cost, flip join sides on contradicting cardinality
    evidence, climb the batch-size ladder from observed L1D pressure."""

    name = "greedy"

    def order(self, keys: Sequence[str], costs: Sequence[int],
              stats: RuntimeStatsCollector) -> Tuple[int, ...]:
        return greedy_rank_order(keys, costs, stats)

    def flip_join(self, build_key: str, probe_key: str, probe_estimate: int,
                  seen_build_rows: int, stats: RuntimeStatsCollector) -> bool:
        return greedy_flip_join(build_key, probe_key, probe_estimate,
                                seen_build_rows, stats)

    def batch_size(self, key: str, current: int,
                   stats: RuntimeStatsCollector,
                   ladder: Sequence[int] = BATCH_SIZE_LADDER) -> int:
        return greedy_batch_size(key, current, stats, ladder)

    def partition_count(self, build_key: str, build_estimate: int,
                        row_bytes: int, budget_bytes: Optional[int],
                        stats: RuntimeStatsCollector) -> int:
        return greedy_partition_count(build_key, build_estimate, row_bytes,
                                      budget_bytes, stats)


class EpsilonGreedyPolicy(AdaptivePolicy):
    """Greedy ordering with an epsilon fraction of exploratory rotations."""

    name = "epsilon"

    def __init__(self, epsilon: float = 0.1) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be within [0, 1]")
        self.epsilon = epsilon
        #: Decisions taken so far -- the seed of the deterministic
        #: exploration hash.
        self.decisions = 0

    def order(self, keys: Sequence[str], costs: Sequence[int],
              stats: RuntimeStatsCollector) -> Tuple[int, ...]:
        self.decisions += 1
        greedy = greedy_rank_order(keys, costs, stats)
        count = len(greedy)
        if count < 2 or self.epsilon <= 0.0:
            return greedy
        draw = ((self.decisions * _HASH_CONSTANT) & 0xFFFFFFFF) >> 8
        if (draw % 10_000) >= int(self.epsilon * 10_000):
            return greedy
        # Explore: rotate the greedy order by a hash-derived non-zero step,
        # so every conjunct periodically gets evaluated over unfiltered rows
        # and its unconditional selectivity stays current.
        rotation = 1 + (draw // 10_000) % (count - 1)
        return greedy[rotation:] + greedy[:rotation]

    def flip_join(self, build_key: str, probe_key: str, probe_estimate: int,
                  seen_build_rows: int, stats: RuntimeStatsCollector) -> bool:
        # Exploration buys nothing for a one-shot side decision (the flip's
        # evidence is direct cardinality observation, not conditional on a
        # prior decision), so epsilon matches greedy here.
        return greedy_flip_join(build_key, probe_key, probe_estimate,
                                seen_build_rows, stats)

    def batch_size(self, key: str, current: int,
                   stats: RuntimeStatsCollector,
                   ladder: Sequence[int] = BATCH_SIZE_LADDER) -> int:
        # The ladder rule already explores every rung once (optimism about
        # unobserved neighbours), so epsilon matches greedy here too.
        return greedy_batch_size(key, current, stats, ladder)

    def partition_count(self, build_key: str, build_estimate: int,
                        row_bytes: int, budget_bytes: Optional[int],
                        stats: RuntimeStatsCollector) -> int:
        # One-shot sizing decision from direct observation; nothing for
        # epsilon exploration to refresh.
        return greedy_partition_count(build_key, build_estimate, row_bytes,
                                      budget_bytes, stats)


#: ``ExecutionConfig.adaptivity`` value -> policy factory.  ``"off"`` is not
#: a policy: it bypasses the adaptive evaluation path entirely (the engine
#: behaves bit-identically to previous releases).
POLICIES = {
    StaticPolicy.name: StaticPolicy,
    GreedyRankPolicy.name: GreedyRankPolicy,
    EpsilonGreedyPolicy.name: EpsilonGreedyPolicy,
}


def make_policy(name: str) -> AdaptivePolicy:
    """Instantiate the policy for one ``adaptivity`` mode."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(f"unknown adaptivity policy {name!r}; "
                         f"expected one of {tuple(POLICIES)}") from None
