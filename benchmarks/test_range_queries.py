"""Application bench: range queries flat vs dyadic over a biased count vector.

Not a paper figure — an application-level benchmark for the range-query
machinery built on top of the sketches (the "range query" application the
paper's introduction motivates).  It compares, on the WorldCup-style workload:

* summing point estimates over the range (O(range) queries and error growth),
* the dyadic structure (O(log n) queries and error growth),

both over the ℓ2 bias-aware sketch.
"""

import pytest

from repro.api import SketchConfig, SketchSession
from repro.data.worldcup import simulated_worldcup
from repro.queries.dyadic import DyadicRangeSketch

DIMENSION = 16_384
RANGES = [(1_000, 1_300), (2_000, 6_000), (0, 16_000)]


@pytest.fixture(scope="module")
def workload():
    dataset = simulated_worldcup(dimension=DIMENSION, seed=101)
    return dataset.vector


@pytest.fixture(scope="module")
def structures(workload):
    flat = SketchSession.from_config(SketchConfig(
        "l2_sr", dimension=DIMENSION, width=1_024, depth=7, seed=5,
    )).ingest(workload)
    dyadic = DyadicRangeSketch(DIMENSION, 1_024, 7, algorithm="l2_sr",
                               seed=5).fit(workload)
    return flat, dyadic


def test_range_query_accuracy(structures, workload):
    flat, dyadic = structures
    print()
    print("  range                truth      flat estimate   dyadic estimate")
    for low, high in RANGES:
        truth = float(workload[low:high].sum())
        flat_estimate = flat.query(kind="range", low=low, high=high)
        dyadic_estimate = dyadic.range_sum(low, high)
        print(f"  [{low:>6}, {high:>6})  {truth:12.0f}  {flat_estimate:15.0f}  "
              f"{dyadic_estimate:16.0f}")
        # the dyadic estimate errs by a bounded number of point-query errors
        assert dyadic_estimate == pytest.approx(truth, rel=0.25)
    # on the longest range the dyadic structure is at least as accurate
    low, high = RANGES[-1]
    truth = float(workload[low:high].sum())
    assert abs(dyadic.range_sum(low, high) - truth) <= abs(
        flat.query(kind="range", low=low, high=high) - truth
    ) * 1.5


def test_dyadic_range_query_speed(benchmark, structures):
    _, dyadic = structures
    benchmark(lambda: [dyadic.range_sum(low, high) for low, high in RANGES])


def test_flat_range_query_speed(benchmark, structures):
    flat, _ = structures
    # only the two shorter ranges: the full-vector flat scan is exactly what
    # the dyadic structure exists to avoid
    benchmark(lambda: [flat.query(kind="range", low=low, high=high)
                       for low, high in RANGES[:2]])
