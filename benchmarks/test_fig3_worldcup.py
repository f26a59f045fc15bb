"""Figure 3: point-query accuracy on the WorldCup dataset.

Paper setup: requests per second to the 1998 World Cup site on May 14 1998,
n = 86 400, ~3.2·10^6 requests.  ℓ2-S/R achieves the smallest average error
with CS and ℓ1-S/R following closely; CM, CM-CU and CML-CU are significantly
worse; for maximum error most algorithms are similar except CM which is 4+
times worse.

Scaled-down reproduction: the simulated WorldCup workload (bursty diurnal
counts, ~37 req/s) with n = 43 200 (half a day of seconds).
"""

import pytest

from benchmarks.common import PAPER_DEPTH, error_by_algorithm, report, run_width_sweep
from repro.api import SketchConfig
from repro.data.worldcup import simulated_worldcup

DIMENSION = 43_200


@pytest.mark.figure("3")
def test_figure3_worldcup(benchmark):
    dataset = simulated_worldcup(dimension=DIMENSION, seed=33)
    table = run_width_sweep(dataset,
                            title="Figure 3: WorldCup (simulated substitute)")
    report(table, "fig3_worldcup")

    average = error_by_algorithm(table, "average_error")

    # ℓ2-S/R has the smallest average error; CS and ℓ1-S/R follow closely
    assert average["l2_sr"] == min(average.values())
    assert average["count_sketch"] < 3.0 * average["l2_sr"]
    # the Count-Min family trails the signed/bias-aware sketches
    assert average["count_median"] > average["l2_sr"]
    assert average["count_min_cu"] > average["l2_sr"]

    def _operation():
        sketch = SketchConfig("l2_sr", dimension=DIMENSION, width=1_024,
                              depth=PAPER_DEPTH, seed=5).build()
        sketch.fit(dataset.vector)
        return sketch.recover()

    benchmark(_operation)
