"""Property tests for the workload sweeps and the synthetic DSS generator.

Three families of properties, checked with Hypothesis over sampled
configurations rather than the fixed sweep points:

* **Seed determinism.**  Building a workload twice from the same config
  produces byte-identical table data and identical query results -- for
  the microbenchmark sweep points (:mod:`repro.workloads.sweeps`) and the
  TPC-D generator (:mod:`repro.workloads.tpcd`) alike.  Every figure in
  the artifact rests on this: a measurement is only reproducible if the
  data underneath it is.
* **Record-size monotonicity.**  With the row count held constant, a
  larger record size can never shrink the heap: the pages a sequential
  scan touches are non-decreasing in the record size, per layout, and
  strictly increase when the size at least doubles.
* **Build-order independence.**  On the warmed grid, the simulated counts
  of a sweep point do not depend on which other points were measured (or
  built) before it -- permuting the measurement order changes nothing.

The example counts are deliberately small: every example builds at least
one database, so the budget goes to diverse configurations, not volume.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.session import Session
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.systems.vendors import system_by_key
from repro.workloads.micro import MicroWorkloadConfig
from repro.workloads.sweeps import build_database_for_point, record_size_sweep
from repro.workloads.tpcc import TPCCConfig
from repro.workloads.tpcd import TPCDConfig, TPCDWorkload

LAYOUTS = ("nsm", "pax")

#: Database-building examples are expensive; keep the counts small.
BUILD_SETTINGS = settings(max_examples=8, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
MEASURE_SETTINGS = settings(max_examples=4, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])

#: Smallest dataset the config machinery allows (300-row minimum floor).
TINY_MICRO = MicroWorkloadConfig(scale=1 / 2000)


def _tiny_tpcd(seed: int, lineitem_rows: int) -> TPCDConfig:
    return TPCDConfig(lineitem_rows=lineitem_rows, orders_rows=40,
                      part_rows=20, supplier_rows=10, seed=seed)


def _query_rows(database, workload) -> list:
    """Rows of the first three suite queries, measured on ``database``."""
    with Session(database, system_by_key("B"), engine="vectorized") as session:
        return [session.execute(query, warmup_runs=0).rows
                for query in workload.queries()[:3]]


# ----------------------------------------------------------- seed determinism
@BUILD_SETTINGS
@given(seed=st.integers(min_value=0, max_value=2**20),
       lineitem_rows=st.integers(min_value=60, max_value=160),
       layout=st.sampled_from(LAYOUTS))
def test_tpcd_build_is_seed_deterministic(seed, lineitem_rows, layout):
    """Same TPCDConfig ==> byte-identical pages and identical query rows."""
    config = _tiny_tpcd(seed, lineitem_rows)
    first = TPCDWorkload(config).build(layout_style=layout)
    second = TPCDWorkload(config).build(layout_style=layout)
    assert first.data_checkpoint() == second.data_checkpoint()
    assert _query_rows(first, TPCDWorkload(config)) == \
        _query_rows(second, TPCDWorkload(config))


@BUILD_SETTINGS
@given(seed=st.integers(min_value=0, max_value=2**20),
       record_size=st.integers(min_value=16, max_value=220),
       layout=st.sampled_from(LAYOUTS))
def test_record_size_point_is_seed_deterministic(seed, record_size, layout):
    """Same sweep-point config ==> byte-identical pages, identical answers."""
    config = replace(TINY_MICRO, seed=seed, record_size=record_size)
    point = record_size_sweep(config, record_sizes=(record_size,))[0]
    first = build_database_for_point(point, layout_style=layout)
    second = build_database_for_point(point, layout_style=layout)
    assert first.data_checkpoint() == second.data_checkpoint()
    query = point.workload.sequential_range_selection()
    with Session(first, system_by_key("B")) as session:
        rows_first = session.execute(query, warmup_runs=0).rows
    with Session(second, system_by_key("B")) as session:
        rows_second = session.execute(query, warmup_runs=0).rows
    assert rows_first == rows_second
    assert len(rows_first) == 1  # the scan aggregates to a single row


def test_tpcd_different_seeds_differ():
    """Sanity for the determinism tests: the seed actually matters."""
    first = TPCDWorkload(_tiny_tpcd(1, 80)).build()
    second = TPCDWorkload(_tiny_tpcd(2, 80)).build()
    assert first.data_checkpoint() != second.data_checkpoint()


# ------------------------------------------------- record-size monotonicity
@BUILD_SETTINGS
@given(sizes=st.lists(st.integers(min_value=16, max_value=240),
                      min_size=2, max_size=4, unique=True).map(sorted),
       layout=st.sampled_from(LAYOUTS))
def test_record_size_pages_touched_monotone(sizes, layout):
    """Pages swept by the sequential scan never shrink as records grow."""
    points = record_size_sweep(TINY_MICRO, record_sizes=tuple(sizes))
    pages = [build_database_for_point(point, layout_style=layout)
             .table("R").heap.page_count for point in points]
    assert all(earlier <= later for earlier, later in zip(pages, pages[1:])), \
        f"page count not monotone for sizes {sizes} under {layout}: {pages}"
    if sizes[-1] >= 2 * sizes[0]:
        assert pages[-1] > pages[0], (
            f"doubling the record size must touch strictly more pages "
            f"({sizes[0]}B -> {sizes[-1]}B gave {pages[0]} -> {pages[-1]})")


@pytest.mark.parametrize("layout", LAYOUTS)
def test_paper_record_sizes_strictly_increase_pages(layout):
    """The paper's own 20B..200B points strictly grow the scanned heap."""
    points = record_size_sweep(TINY_MICRO)
    pages = [build_database_for_point(point, layout_style=layout)
             .table("R").heap.page_count for point in points]
    assert pages == sorted(pages)
    assert len(set(pages)) == len(pages), \
        f"expected strictly increasing page counts, got {pages}"


# ---------------------------------------------- build-order independence
def measured_in_order(config: ExperimentConfig, points, measure) -> dict:
    """``{point: measure(runner, point)}`` on a fresh runner, in this order."""
    runner = ExperimentRunner(config)
    return {point: measure(runner, point) for point in points}


def assert_order_independent(config: ExperimentConfig, order, measure) -> None:
    """Two fresh runners, canonical vs permuted order: equal point by point."""
    assert (measured_in_order(config, order, measure)
            == measured_in_order(config, sorted(order), measure))


TINY = ExperimentConfig(
    micro=TINY_MICRO, tpcd=_tiny_tpcd(7, 120),
    tpcc=TPCCConfig(scale=1 / 300, users=4), tpcc_transactions=8,
    os_interference=False)


@MEASURE_SETTINGS
@given(order=st.permutations((48, 100, 200)))
def test_sweep_points_independent_of_build_order(order):
    """Permuting warmed-grid measurement order never changes the counts.

    Each runner builds its record-size grid databases lazily in measurement
    order; since every point gets its own build and the address checkpoint
    rolls sessions back, the order must be unobservable.
    """
    assert_order_independent(
        TINY, order, lambda runner, size: runner.micro_result(
            "B", "SRS", record_size=size).metrics.cycles)


@MEASURE_SETTINGS
@given(order=st.permutations((0.0, 0.1, 0.5)))
def test_selectivity_points_independent_of_order(order):
    """Selectivity points share one warmed build; order is unobservable."""
    assert_order_independent(
        TINY, order, lambda runner, selectivity: runner.micro_result(
            "B", "SRS", selectivity=selectivity).metrics.cycles)


@MEASURE_SETTINGS
@given(order=st.permutations(("A/tpcd", "B/tpcd", "B/tpcc", "D/tpcc")))
def test_tpc_results_independent_of_order(order):
    """The TPC-D suite and the update-heavy TPC-C mix per system, tuple
    engine (what Figures 5.6/5.7 and Section 5.5 measure): the data
    checkpoint hides every earlier mix's in-place updates."""
    def measure(runner, point):
        system, dataset = point.split("/")
        method = (runner.tpcd_grid_result if dataset == "tpcd"
                  else runner.tpcc_grid_result)
        return method("nsm", system, engine="tuple").counters.as_dict()
    assert_order_independent(TINY, order, measure)
