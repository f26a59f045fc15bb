"""Figure 2: point-query accuracy on the Wiki dataset.

Paper setup: English-Wikipedia pageviews per second, n ≈ 3.5·10^6,
~1.3·10^10 views.  ℓ2-S/R achieves the best recovery at every sketch size —
at s = 20 000 its average error is below 1/10 of every other algorithm; CS
and ℓ1-S/R have similar average error but CS's maximum error is 2+ times
larger; the Count-Min family is far behind.

Scaled-down reproduction: the simulated Wiki workload (strongly biased
per-second counts around ~3 700 views/s) with n = 40 000.
"""

import pytest

from benchmarks.common import PAPER_DEPTH, error_by_algorithm, report, run_width_sweep
from repro.api import SketchConfig
from repro.data.wiki import simulated_wiki

DIMENSION = 40_000


@pytest.mark.figure("2")
def test_figure2_wiki(benchmark):
    dataset = simulated_wiki(dimension=DIMENSION, seed=22)
    table = run_width_sweep(dataset, title="Figure 2: Wiki (simulated substitute)")
    report(table, "fig2_wiki")

    average = error_by_algorithm(table, "average_error")
    maximum = error_by_algorithm(table, "maximum_error")

    # ℓ2-S/R achieves the best average error by a wide margin
    assert average["l2_sr"] == min(average.values())
    assert average["l2_sr"] < average["count_median"] / 10.0
    assert average["l2_sr"] < average["count_min_cu"] / 10.0
    # the Count-Median baseline is the worst performer, as in the paper
    assert max(average.values()) == average["count_median"]
    # ℓ2-S/R also wins on maximum error
    assert maximum["l2_sr"] == min(maximum.values())

    def _operation():
        sketch = SketchConfig("l2_sr", dimension=DIMENSION, width=1_024,
                              depth=PAPER_DEPTH, seed=3).build()
        sketch.fit(dataset.vector)
        return sketch.query(123)

    benchmark(_operation)
