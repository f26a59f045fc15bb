"""Figure 4: point-query accuracy on the Higgs dataset.

Paper setup: the fourth kinematic feature of the HIGGS Monte-Carlo events
modelled as a non-negative vector of n = 1.1·10^7 entries.  ℓ2-S/R achieves
the smallest average error; CS is next and clearly better than the rest; for
maximum error CML-CU approaches ℓ2-S/R at large s; CM is worst.

Scaled-down reproduction: the simulated Higgs workload (gamma-distributed
non-negative feature values) with n = 50 000.
"""

import pytest

from benchmarks.common import PAPER_DEPTH, error_by_algorithm, report, run_width_sweep
from repro.api import SketchConfig
from repro.data.higgs import simulated_higgs

DIMENSION = 50_000


@pytest.mark.figure("4")
def test_figure4_higgs(benchmark):
    dataset = simulated_higgs(dimension=DIMENSION, seed=44)
    table = run_width_sweep(dataset, title="Figure 4: Higgs (simulated substitute)")
    report(table, "fig4_higgs")

    average = error_by_algorithm(table, "average_error")

    # ℓ2-S/R achieves the smallest average error, CS comes second
    assert average["l2_sr"] == min(average.values())
    baselines_without_cs = {
        name: value for name, value in average.items()
        if name not in ("l2_sr", "l1_sr", "count_sketch")
    }
    assert average["count_sketch"] < min(baselines_without_cs.values())
    # Count-Median is the worst performer
    assert max(average.values()) == average["count_median"]

    def _operation():
        sketch = SketchConfig("l2_sr", dimension=DIMENSION, width=1_024,
                              depth=PAPER_DEPTH, seed=7).build()
        sketch.fit(dataset.vector)
        return sketch.recover()

    benchmark(_operation)
