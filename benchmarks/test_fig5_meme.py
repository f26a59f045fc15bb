"""Figure 5: point-query accuracy on the Meme dataset.

Paper setup: lengths of memetracker phrases, n ≈ 2.1·10^8.  ℓ2-S/R achieves
the best recovery quality; CS errors are about 30 % larger; both outperform
the other algorithms significantly (some CM / CML-CU curves fall outside the
plotted range).

Scaled-down reproduction: the simulated Meme workload (shifted negative-
binomial phrase lengths, mode ≈ 7 words) with n = 50 000.
"""

import pytest

from benchmarks.common import PAPER_DEPTH, error_by_algorithm, report, run_width_sweep
from repro.api import SketchConfig
from repro.data.meme import simulated_meme

DIMENSION = 50_000


@pytest.mark.figure("5")
def test_figure5_meme(benchmark):
    dataset = simulated_meme(dimension=DIMENSION, seed=55)
    table = run_width_sweep(dataset, title="Figure 5: Meme (simulated substitute)")
    report(table, "fig5_meme")

    average = error_by_algorithm(table, "average_error")

    # ℓ2-S/R best; CS within a small constant factor; the rest far behind
    assert average["l2_sr"] == min(average.values())
    assert average["count_sketch"] < 2.5 * average["l2_sr"]
    assert average["count_median"] > 2.0 * average["l2_sr"]
    assert average["count_min_cu"] > 2.0 * average["l2_sr"]

    def _operation():
        sketch = SketchConfig("l2_sr", dimension=DIMENSION, width=1_024,
                              depth=PAPER_DEPTH, seed=9).build()
        sketch.fit(dataset.vector)
        return sketch.recover()

    benchmark(_operation)
