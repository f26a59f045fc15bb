"""Figure 7: effect of the sketch depth d at fixed width (Higgs dataset).

Paper setup: the Higgs vector, fixed s = 50 000, depth d varied (d for
ℓ1/ℓ2-S/R, d + 1 for the baselines).  Findings: accuracy improves with d for
every algorithm; CML-CU is the most sensitive to d; ℓ2-S/R stays the most
accurate throughout.

Scaled-down reproduction: the simulated Higgs workload, fixed s = 2 048,
d ∈ {1, 3, 5, 7, 9}.
"""

import pytest

from benchmarks.common import report
from repro.api import SketchConfig
from repro.data.higgs import simulated_higgs
from repro.eval.harness import depth_sweep

DIMENSION = 50_000
WIDTH = 2_048
DEPTHS = (1, 3, 5, 7, 9)


@pytest.mark.figure("7a-7b")
def test_figure7_depth_sweep(benchmark):
    dataset = simulated_higgs(dimension=DIMENSION, seed=77)
    table = depth_sweep(
        dataset,
        depths=DEPTHS,
        width=WIDTH,
        seed=23,
        title="Figure 7: depth sweep on Higgs (simulated substitute), s=2048",
    )
    report(table, "fig7_depth_sweep")

    # increasing d improves (or at least does not hurt) accuracy: compare the
    # shallowest and deepest configurations per algorithm (baselines run with
    # d + 1 rows, so group by algorithm rather than by the raw depth column)
    deepest_errors = {}
    for algorithm in table.algorithms():
        by_depth = sorted(
            (row.depth, row.average_error)
            for row in table.filter(algorithm=algorithm)
        )
        shallowest = by_depth[0][1]
        deepest = by_depth[-1][1]
        deepest_errors[algorithm] = deepest
        assert deepest <= shallowest * 1.1, algorithm

    # ℓ2-S/R remains the most accurate at the largest depth
    assert deepest_errors["l2_sr"] == min(deepest_errors.values())

    # benchmark a single deep-configuration sketch+recover
    def _operation():
        sketch = SketchConfig("l2_sr", dimension=DIMENSION, width=WIDTH,
                              depth=max(DEPTHS), seed=29).build()
        sketch.fit(dataset.vector)
        return sketch.recover()

    benchmark(_operation)
