"""The adaptivity experiment: runtime conjunct reordering, measured on the
simulated branch unit.

The paper attributes a large, selectivity-insensitive share of execution
time to branch mispredictions (Section 5.3); the skewed-conjunct selection
is designed so that the static (planner) conjunct order pays an
unpredictable 50/50 data branch on ~90% of the records, while the greedy
runtime order short-circuits ~95% of the records past it.  The figure
regenerated here records the misprediction and cycle delta on both page
layouts -- the paper-facing payoff of the :mod:`repro.adaptive` subsystem.
"""

import pytest

from repro.experiments.figures import figure_adaptivity


@pytest.mark.slow
@pytest.mark.figure("figure_adaptivity")
def test_adaptive_ordering_reduces_mispredictions_and_cycles(regenerate, runner):
    result = regenerate(figure_adaptivity, runner)
    for layout in ("nsm", "pax"):
        per_mode = result.data[layout]
        off, static = per_mode["off"], per_mode["static"]
        greedy, epsilon = per_mode["greedy"], per_mode["epsilon"]
        # Identical answers in every mode.
        assert (off["result rows"] == static["result rows"]
                == greedy["result rows"] == epsilon["result rows"])
        # The greedy ordering removes mispredictions and cycles that the
        # same adaptive charging pays under the static (planner) order.
        assert greedy["branch mispredictions"] < static["branch mispredictions"]
        assert greedy["branch stall cycles"] < static["branch stall cycles"]
        assert greedy["total cycles"] < static["total cycles"]
        # Exploration costs epsilon a little versus pure greedy, but it must
        # stay far below the static order's misprediction bill.
        assert epsilon["branch mispredictions"] < static["branch mispredictions"]
        reductions = per_mode["greedy vs static"]
        assert reductions["misprediction reduction"] > 0.10
        assert reductions["cycle reduction"] > 0.0
