"""Figure 5.1: query execution time breakdown into TC / TM / TB / TR.

Paper observations reproduced here:

* computation is usually less than half of the execution time -- the
  processor spends most of its time stalled, for every system and query;
* branch-misprediction stalls account for roughly 10--20% of execution time
  on systems B, C and D;
* resource stalls contribute 15--30% for B, C, D while System A shows both
  the smallest memory/branch stalls and the largest resource-stall share;
* System A has no indexed-range-selection bar (its optimiser does not use
  the index).
"""

import pytest

from repro.experiments.figures import figure_5_1


@pytest.mark.figure("figure_5_1")
def test_figure_5_1(regenerate, runner):
    figure = regenerate(figure_5_1, runner)
    data = figure.data

    # System A is missing from the indexed selection, as in the paper.
    assert set(data["SRS"]) == {"A", "B", "C", "D"}
    assert set(data["IRS"]) == {"B", "C", "D"}
    assert set(data["SJ"]) == {"A", "B", "C", "D"}

    stall_shares = []
    for kind, per_system in data.items():
        for system, shares in per_system.items():
            assert sum(shares.values()) == pytest.approx(1.0)
            computation = shares["Computation"]
            stall = 1.0 - computation
            stall_shares.append(stall)
            # "the computation time is usually less than half the execution time"
            assert computation < 0.55, f"{system}/{kind}: computation={computation:.2f}"
            assert shares["Memory stalls"] > 0.10, f"{system}/{kind}"
            assert shares["Resource stalls"] > 0.05, f"{system}/{kind}"

    # On average (across systems and queries) at least half the time is stalls.
    assert sum(stall_shares) / len(stall_shares) >= 0.50

    # Branch mispredictions: significant for B, C and D (roughly 10-20%),
    # smallest for System A.
    for kind in ("SRS", "SJ"):
        branch = {system: shares["Branch mispredictions"]
                  for system, shares in data[kind].items()}
        assert branch["A"] == min(branch.values())
        for system in ("B", "C", "D"):
            assert 0.05 <= branch[system] <= 0.25, f"{system}/{kind}: {branch[system]:.2f}"

    # Resource stalls: System A shows the largest share on every query it runs.
    for kind in ("SRS", "SJ"):
        resource = {system: shares["Resource stalls"]
                    for system, shares in data[kind].items()}
        assert resource["A"] == max(resource.values())
        assert 0.15 <= resource["A"] <= 0.45
        for system in ("B", "C", "D"):
            assert 0.05 <= resource[system] <= 0.35, f"{system}/{kind}"


@pytest.mark.slow
@pytest.mark.figure("figure_5_1_layouts")
def test_figure_5_1_by_layout(regenerate, runner):
    """The breakdown per page layout."""
    data = {"nsm": figure_5_1(runner).data,
            "pax": regenerate(figure_5_1, runner, layout="pax").data}

    for layout, per_kind in data.items():
        assert set(per_kind["SRS"]) == {"A", "B", "C", "D"}
        assert set(per_kind["IRS"]) == {"B", "C", "D"}
        for kind, per_system in per_kind.items():
            for system, shares in per_system.items():
                assert sum(shares.values()) == pytest.approx(1.0), \
                    f"{layout}/{kind}/{system}"
                assert all(share >= 0.0 for share in shares.values())

    # PAX's minipage organisation improves the spatial locality of the
    # narrow sequential scan, so its memory-stall share never grows.
    for system in ("A", "B", "C", "D"):
        nsm = data["nsm"]["SRS"][system]["Memory stalls"]
        pax = data["pax"]["SRS"][system]["Memory stalls"]
        assert pax <= nsm * 1.02, f"{system}: nsm={nsm:.3f} pax={pax:.3f}"
