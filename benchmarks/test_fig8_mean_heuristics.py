"""Figure 8: comparison with the mean heuristics on the Gaussian-2 dataset.

Paper setup: Gaussian-2 is N(100, 15²) with n = 5·10^6.  Figures 8a-8b use
the unshifted dataset — all four algorithms (ℓ1-S/R, ℓ2-S/R, ℓ1-mean,
ℓ2-mean) estimate the bias well and perform similarly.  Figures 8c-8d shift
500 entries by 100 000 — the mean is no longer a good bias estimate and the
errors of ℓ1-mean / ℓ2-mean increase significantly while ℓ1/ℓ2-S/R are
unaffected.

Scaled-down reproduction: n = 40 000, 40 shifted entries (the same shifted
fraction as the paper, and well below the sketch widths so the shifted
entries fit in the head the bias-aware estimators ignore).
"""

import pytest

from benchmarks.common import error_by_algorithm, report, run_width_sweep
from repro.api import SketchConfig
from repro.data.synthetic import gaussian2_dataset
from repro.sketches.registry import mean_heuristic_suite

DIMENSION = 40_000
SHIFTED_ENTRIES = 40
SHIFT = 100_000.0


@pytest.mark.figure("8a-8b")
def test_figure8_clean_gaussian2(benchmark):
    dataset = gaussian2_dataset(dimension=DIMENSION, shifted_entries=0, seed=88)
    table = run_width_sweep(
        dataset,
        algorithms=mean_heuristic_suite(),
        title="Figure 8a-8b: Gaussian-2 (unshifted)",
    )
    report(table, "fig8ab_gaussian2_clean")

    errors = error_by_algorithm(table)
    # without outliers all four algorithms estimate the bias well and their
    # errors sit within a small factor of each other
    assert max(errors.values()) < 3.0 * min(errors.values())

    def _operation():
        sketch = SketchConfig("l2_mean", dimension=DIMENSION, width=1_024,
                              depth=9, seed=31).build()
        sketch.fit(dataset.vector)
        return sketch.recover()

    benchmark(_operation)


@pytest.mark.figure("8c-8d")
def test_figure8_shifted_gaussian2(benchmark):
    dataset = gaussian2_dataset(
        dimension=DIMENSION, shifted_entries=SHIFTED_ENTRIES, shift=SHIFT, seed=89
    )
    table = run_width_sweep(
        dataset,
        algorithms=mean_heuristic_suite(),
        title=(
            "Figure 8c-8d: Gaussian-2 with "
            f"{SHIFTED_ENTRIES} entries shifted by {SHIFT:g}"
        ),
    )
    report(table, "fig8cd_gaussian2_shifted")

    errors = error_by_algorithm(table)
    # the shifted entries drag the mean away from the bias: the heuristics'
    # errors blow up while the bias-aware sketches are barely affected
    assert errors["l1_mean"] > 3.0 * errors["l1_sr"]
    assert errors["l2_mean"] > 3.0 * errors["l2_sr"]

    def _operation():
        sketch = SketchConfig("l2_sr", dimension=DIMENSION, width=1_024,
                              depth=9, seed=37).build()
        sketch.fit(dataset.vector)
        return sketch.recover()

    benchmark(_operation)
