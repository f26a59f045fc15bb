"""Unit tests specific to the Count-Sketch baseline."""

import numpy as np
import pytest

from repro.core.errors import err_pk
from repro.sketches import CountMedian, CountSketch


class TestCountSketchEstimation:
    def test_estimates_are_unbiased_across_hash_draws(self, rng):
        """E[x̂_i] = x_i over independent hash functions (sign cancellation)."""
        vector = rng.poisson(20.0, size=300).astype(float)
        target = 42
        estimates = [
            CountSketch(300, 32, 1, seed=seed).fit(vector).query(target)
            for seed in range(400)
        ]
        assert np.mean(estimates) == pytest.approx(vector[target], abs=10.0)

    def test_theorem2_error_bound_on_nearly_sparse_vector(self, rng):
        n, k = 2_000, 10
        vector = rng.normal(0.0, 1.0, size=n)
        heavy = rng.choice(n, size=k, replace=False)
        vector[heavy] += 500.0
        sketch = CountSketch(n, width=8 * k, depth=9, seed=3).fit(vector)
        error = np.max(np.abs(sketch.recover() - vector))
        bound = err_pk(vector, k, 2) / np.sqrt(k)
        assert error <= 5.0 * bound

    def test_l2_bound_beats_l1_bound_on_flat_tails(self, rng):
        """On a flat tail Err_2^k/√k ≪ Err_1^k/k, and CS beats Count-Median."""
        n, k = 5_000, 5
        vector = rng.uniform(-1.0, 1.0, size=n)
        heavy = rng.choice(n, size=k, replace=False)
        vector[heavy] += 300.0
        cs = CountSketch(n, 8 * k, 9, seed=1).fit(vector)
        cm = CountMedian(n, 8 * k, 9, seed=1).fit(vector)
        cs_error = np.mean(np.abs(cs.recover() - vector))
        cm_error = np.mean(np.abs(cm.recover() - vector))
        assert cs_error < cm_error

    def test_handles_negative_coordinates(self, rng):
        vector = rng.normal(0.0, 3.0, size=400)
        sketch = CountSketch(400, 128, 7, seed=2).fit(vector)
        assert np.max(np.abs(sketch.recover() - vector)) < 20.0

    def test_bucket_sign_sums_match_column_sums(self):
        sketch = CountSketch(200, 32, 4, seed=6)
        psi = sketch.bucket_sign_sums()
        assert psi.shape == (4, 32)
        # per row, the sum of ψ equals the sum of all signs
        np.testing.assert_allclose(
            psi.sum(axis=1),
            sketch._table.sign_columns(np.arange(200)).sum(axis=1),
        )
