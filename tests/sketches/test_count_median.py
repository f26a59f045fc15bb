"""Unit tests specific to the Count-Median baseline."""

import numpy as np
import pytest

from repro.core.errors import err_pk
from repro.sketches import CountMedian


class TestCountMedianEstimation:
    def test_handles_negative_coordinates(self, rng):
        """Count-Median works on turnstile (signed) vectors."""
        vector = rng.normal(0.0, 5.0, size=400)
        sketch = CountMedian(400, 128, 7, seed=1).fit(vector)
        errors = np.abs(sketch.recover() - vector)
        assert np.max(errors) < 30.0

    def test_theorem1_error_bound_on_nearly_sparse_vector(self, rng):
        """‖x̂ - x‖∞ should be within O(1/k)·Err_1^k(x) for s = 4k rows.

        We use a vector that is k-sparse plus small noise, so the bound is a
        few times Err_1^k(x)/k, and check a generous constant.
        """
        n, k = 2_000, 10
        vector = rng.normal(0.0, 1.0, size=n)
        heavy = rng.choice(n, size=k, replace=False)
        vector[heavy] += 500.0
        sketch = CountMedian(n, width=8 * k, depth=9, seed=3).fit(vector)
        error = np.max(np.abs(sketch.recover() - vector))
        bound = err_pk(vector, k, 1) / k
        assert error <= 5.0 * bound

    def test_recover_matches_per_index_queries(self, small_count_vector):
        sketch = CountMedian(small_count_vector.size, 64, 5, seed=2)
        sketch.fit(small_count_vector)
        recovered = sketch.recover()
        for index in [0, 5, 100, 799]:
            assert recovered[index] == pytest.approx(sketch.query(index))

    def test_bucket_column_sums_shape_and_total(self, small_count_vector):
        sketch = CountMedian(small_count_vector.size, 64, 5, seed=2)
        pi = sketch.bucket_column_sums()
        assert pi.shape == (5, 64)
        np.testing.assert_allclose(pi.sum(axis=1), small_count_vector.size)

    def test_depth_one_equals_single_bucket_sum(self, rng):
        """With d = 1 the estimate is just the bucket sum (median of one row)."""
        vector = rng.poisson(5.0, size=100).astype(float)
        sketch = CountMedian(100, 16, 1, seed=5).fit(vector)
        assert sketch.table.shape == (1, 16)
        assert sketch.query(3) == pytest.approx(
            sketch.table[0, sketch._table.bucket_columns(np.arange(100))[0, 3]]
        )

    def test_estimate_is_sum_of_colliding_coordinates(self):
        """In each row the bucket value is exactly the sum of colliding coords."""
        vector = np.arange(1.0, 51.0)
        sketch = CountMedian(50, 8, 3, seed=7).fit(vector)
        buckets = sketch._table.bucket_columns(np.arange(50))
        for row in range(3):
            for bucket in range(8):
                members = np.flatnonzero(buckets[row] == bucket)
                assert sketch.table[row, bucket] == pytest.approx(
                    vector[members].sum()
                )
