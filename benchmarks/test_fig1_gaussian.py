"""Figure 1: point-query accuracy on the Gaussian dataset.

Paper setup: x_i ~ N(b, 15²) i.i.d. with n = 5·10^8 and b ∈ {100, 500};
average and maximum error plotted against the sketch width s for ℓ1-S/R,
ℓ2-S/R, CS, CM (Count-Median), CM-CU and CML-CU (Figures 1a-1d).

Scaled-down reproduction: n = 40 000, same σ and b, widths 512-2048.
Expected shape (paper): ℓ1-S/R ≈ ℓ2-S/R, both far below every baseline
(≈ 1/5 of CS, 1/20 of CML-CU, 1/50 of CM-CU, 1/200 of CM), and the errors of
the bias-aware sketches do not grow when b increases from 100 to 500 while
every baseline's error does.
"""

import pytest

from benchmarks.common import (
    PAPER_DEPTH,
    error_by_algorithm,
    report,
    run_width_sweep,
)
from repro.api import SketchConfig
from repro.data.synthetic import gaussian_dataset

DIMENSION = 40_000


def _gaussian(bias: float):
    return gaussian_dataset(dimension=DIMENSION, bias=bias, sigma=15.0, seed=11)


def _sketch_and_recover(vector, width=1_024):
    sketch = SketchConfig("l2_sr", dimension=vector.size, width=width,
                          depth=PAPER_DEPTH, seed=1).build()
    sketch.fit(vector)
    return sketch.recover()


@pytest.mark.figure("1a-1b")
def test_figure1_gaussian_bias_100(benchmark):
    dataset = _gaussian(bias=100.0)
    table = run_width_sweep(dataset, title="Figure 1a-1b: Gaussian, b=100, sigma=15")
    report(table, "fig1_gaussian_b100")

    errors = error_by_algorithm(table)
    assert errors["l2_sr"] < errors["count_sketch"] / 2.5
    assert errors["l1_sr"] < errors["count_sketch"] / 2.5
    assert errors["l2_sr"] < errors["count_median"] / 20.0
    assert errors["l2_sr"] < errors["count_min_cu"] / 5.0
    assert errors["l2_sr"] < errors["count_min_log_cu"] / 5.0

    benchmark(_sketch_and_recover, dataset.vector)


@pytest.mark.figure("1c-1d")
def test_figure1_gaussian_bias_500(benchmark):
    low = _gaussian(bias=100.0)
    high = _gaussian(bias=500.0)
    table = run_width_sweep(high, title="Figure 1c-1d: Gaussian, b=500, sigma=15")
    report(table, "fig1_gaussian_b500")

    low_table = run_width_sweep(low, algorithms=["l2_sr", "count_sketch"])
    high_errors = error_by_algorithm(table)
    low_errors = error_by_algorithm(low_table)

    # bias-aware errors are insensitive to b; baseline errors grow with b
    assert high_errors["l2_sr"] == pytest.approx(low_errors["l2_sr"], rel=0.5)
    assert high_errors["count_sketch"] > 2.0 * low_errors["count_sketch"]

    benchmark(_sketch_and_recover, high.vector)
