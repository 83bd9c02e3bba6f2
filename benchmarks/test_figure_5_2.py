"""Figure 5.2: contributions of the five memory components to TM.

Paper observations reproduced here:

* roughly 90% of the memory stall time comes from L1 instruction misses plus
  L2 data misses, across all systems and queries;
* L1 D-cache stalls, L2 instruction stalls and ITLB stalls are insignificant;
* System B is the exception on L2 data stalls for the sequential selection
  (its data access is optimised at the second cache level), so its memory
  stalls are dominated by the L1 I-cache component.
"""

import pytest

from repro.experiments.figures import figure_5_2


@pytest.mark.figure("figure_5_2")
def test_figure_5_2(regenerate, runner):
    figure = regenerate(figure_5_2, runner)
    data = figure.data

    dominant_shares = []
    for kind, per_system in data.items():
        for system, shares in per_system.items():
            assert sum(shares.values()) == pytest.approx(1.0)
            dominant = shares["L1 I-stalls"] + shares["L2 D-stalls"]
            dominant_shares.append(dominant)
            # The two dominant components cover (nearly) all of TM everywhere.
            assert dominant >= 0.70, f"{system}/{kind}: {dominant:.2f}"
            # The minor components stay minor.
            assert shares["L2 I-stalls"] <= 0.12, f"{system}/{kind}"
            assert shares["ITLB stalls"] <= 0.10, f"{system}/{kind}"
            assert shares["L1 D-stalls"] <= 0.25, f"{system}/{kind}"

    # "In all cases, 90% of the memory stalls are due to ..." -- on average the
    # reproduction lands at ~0.9 (per-query minimum bounded above at 0.70).
    assert sum(dominant_shares) / len(dominant_shares) >= 0.82

    # System B's sequential selection: L2 data stalls are insignificant and L1
    # instruction stalls dominate; the other systems lean on L2 data stalls.
    srs = data["SRS"]
    assert srs["B"]["L2 D-stalls"] == min(s["L2 D-stalls"] for s in srs.values())
    assert srs["B"]["L1 I-stalls"] > srs["B"]["L2 D-stalls"]
    for system in ("A", "C", "D"):
        assert srs[system]["L2 D-stalls"] >= 0.20, system


@pytest.mark.slow
@pytest.mark.figure("figure_5_2_layouts")
def test_figure_5_2_by_layout(regenerate, runner):
    """The memory-stall split per page layout."""
    data = {"nsm": figure_5_2(runner).data,
            "pax": regenerate(figure_5_2, runner, layout="pax").data}

    for layout, per_kind in data.items():
        for kind, per_system in per_kind.items():
            for system, shares in per_system.items():
                assert sum(shares.values()) == pytest.approx(1.0), \
                    f"{layout}/{kind}/{system}"
                # The minor components stay minor under both layouts.
                assert shares["L2 I-stalls"] <= 0.15, f"{layout}/{kind}/{system}"
                assert shares["ITLB stalls"] <= 0.12, f"{layout}/{kind}/{system}"

    # PAX's whole point: the narrow sequential scan stops hauling unused
    # fields through L2, so the L2 data share of memory stalls drops for
    # every system that was paying it under NSM.
    for system in ("A", "C", "D"):
        nsm = data["nsm"]["SRS"][system]["L2 D-stalls"]
        pax = data["pax"]["SRS"][system]["L2 D-stalls"]
        assert pax < nsm, f"{system}: nsm={nsm:.3f} pax={pax:.3f}"
