"""Runtime-adaptation framework: observed statistics driving engine decisions.

The subsystem has three layers (see the module docstrings for the design
rationale):

* :mod:`.stats` -- :class:`RuntimeStatsCollector`, cheap integer counters
  (per-conjunct selectivities and simulated branch outcomes, per-operator
  cardinalities, per-scan L1D miss pressure) observed by the session's one
  execution context;
* :mod:`.policy` -- the :class:`AdaptivePolicy` interface with one method
  per runtime decision (conjunct :meth:`~AdaptivePolicy.order`, join-side
  :meth:`~AdaptivePolicy.flip_join`, vector
  :meth:`~AdaptivePolicy.batch_size`), implemented by
  :class:`StaticPolicy` (the planner's choices, the control arm),
  :class:`GreedyRankPolicy` (adapt every decision from observations) and
  :class:`EpsilonGreedyPolicy` (greedy with deterministic exploration of
  conjunct orders);
* :mod:`.manager` -- :class:`AdaptiveExecution`, the object the execution
  layer consults: it decomposes ``And`` trees and evaluates conjuncts in
  policy order with short-circuit selection vectors (recombining a mask
  identical to the static engine's), and carries the opt-in ``join_sides``
  / ``batch_sizing`` decision switches for the vectorized hash join and
  sequential scans.

``ExecutionConfig.adaptivity`` / ``Session(adaptivity=...)`` select the mode:
``"off"`` (bit-identical to previous releases), ``"static"``, ``"greedy"``
or ``"epsilon"``; ``adaptive_joins=True`` / ``adaptive_batching=True``
enable the per-decision switches under any non-``off`` mode.  Result rows
are identical in every combination; only the charged work differs.
"""

from .manager import AdaptiveExecution, flatten_conjuncts
from .policy import (AdaptivePolicy, BATCH_SIZE_LADDER, EpsilonGreedyPolicy,
                     GreedyRankPolicy, JOIN_FLIP_HYSTERESIS, POLICIES,
                     PRESSURE_SLACK, StaticPolicy, greedy_batch_size,
                     greedy_flip_join, make_policy)
from .stats import (BatchPressureStats, CardinalityStats, ConjunctStats,
                    RuntimeStatsCollector, conjunct_key)

__all__ = [
    "AdaptiveExecution", "flatten_conjuncts",
    "AdaptivePolicy", "StaticPolicy", "GreedyRankPolicy", "EpsilonGreedyPolicy",
    "POLICIES", "make_policy",
    "BATCH_SIZE_LADDER", "JOIN_FLIP_HYSTERESIS", "PRESSURE_SLACK",
    "greedy_batch_size", "greedy_flip_join",
    "ConjunctStats", "CardinalityStats", "BatchPressureStats",
    "RuntimeStatsCollector", "conjunct_key",
]
