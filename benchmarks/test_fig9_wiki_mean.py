"""Figure 9: mean heuristics versus bias-aware sketches on the Wiki dataset.

Paper setup: the Wiki pageview vector again, comparing ℓ1-S/R, ℓ2-S/R,
ℓ1-mean and ℓ2-mean.  Finding: ℓ2-S/R, ℓ1-mean and ℓ2-mean perform similarly
(the Wiki vector has no extreme outliers, so the plain mean is a fine bias
estimate) and all three outperform ℓ1-S/R.

Scaled-down reproduction: the simulated Wiki workload with n = 40 000.
"""

import pytest

from benchmarks.common import error_by_algorithm, report, run_width_sweep
from repro.api import SketchConfig
from repro.data.wiki import simulated_wiki
from repro.sketches.registry import mean_heuristic_suite

DIMENSION = 40_000


@pytest.mark.figure("9")
def test_figure9_wiki_mean_heuristics(benchmark):
    dataset = simulated_wiki(dimension=DIMENSION, seed=99)
    table = run_width_sweep(
        dataset,
        algorithms=mean_heuristic_suite(),
        title="Figure 9: Wiki (simulated substitute), mean heuristics",
    )
    report(table, "fig9_wiki_mean")

    errors = error_by_algorithm(table)
    # ℓ2-S/R and ℓ2-mean are close (no extreme outliers in this workload)
    assert errors["l2_mean"] < 2.0 * errors["l2_sr"]
    assert errors["l2_sr"] < 2.0 * errors["l2_mean"]
    # both ℓ2 variants beat ℓ1-S/R on this asymmetric count data
    assert errors["l2_sr"] < errors["l1_sr"]
    assert errors["l2_mean"] < errors["l1_sr"]

    def _operation():
        sketch = SketchConfig("l1_mean", dimension=DIMENSION, width=1_024,
                              depth=9, seed=41).build()
        sketch.fit(dataset.vector)
        return sketch.recover()

    benchmark(_operation)
