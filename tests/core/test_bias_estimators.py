"""Unit tests for the bias estimators."""

import numpy as np
import pytest

from repro.core.bias import (
    ExactBiasEstimator,
    MeanEstimator,
    MiddleBucketsMeanEstimator,
    SamplingMedianEstimator,
    make_bias_estimator,
)
from repro.core.errors import optimal_bias
from repro.matrices.cm import CMMatrix


class TestSamplingMedianEstimator:
    def test_estimate_close_to_optimal_bias_on_gaussian(self, rng):
        vector = rng.normal(250.0, 10.0, size=20_000)
        estimator = SamplingMedianEstimator(vector.size, samples=400, seed=1)
        estimate = estimator.estimate_from_vector(vector)
        assert estimate == pytest.approx(250.0, abs=3.0)

    def test_robust_to_outliers_unlike_the_mean(self, rng):
        """Lemma 2/3 in action: a few huge outliers barely move the median."""
        vector = rng.normal(100.0, 5.0, size=10_000)
        vector[:20] = 1e9
        estimator = SamplingMedianEstimator(vector.size, samples=500, seed=2)
        assert estimator.estimate_from_vector(vector) == pytest.approx(100.0, abs=3.0)
        assert abs(np.mean(vector) - 100.0) > 1e5

    def test_streaming_updates_match_vector_ingestion(self, rng):
        vector = rng.poisson(30.0, size=500).astype(float)
        batch = SamplingMedianEstimator(500, samples=64, seed=3)
        batch.ingest_vector(vector)
        streamed = SamplingMedianEstimator(500, samples=64, seed=3)
        for index in np.flatnonzero(vector):
            streamed.update(int(index), float(vector[index]))
        np.testing.assert_allclose(batch.sample_values, streamed.sample_values)
        assert batch.current_estimate() == pytest.approx(streamed.current_estimate())

    def test_theta_log_n_sample_count(self):
        estimator = SamplingMedianEstimator.theta_log_n(100_000, seed=0)
        assert estimator.samples == int(np.ceil(20.0 * np.log(100_000)))

    def test_dimension_mismatch_rejected(self):
        estimator = SamplingMedianEstimator(100, samples=8, seed=0)
        with pytest.raises(ValueError):
            estimator.estimate_from_vector(np.ones(99))

    def test_size_in_words(self):
        assert SamplingMedianEstimator(100, samples=37, seed=0).size_in_words() == 37


class TestMiddleBucketsMeanEstimator:
    def _buckets_for(self, vector, buckets, seed):
        matrix = CMMatrix(buckets, vector.size, seed=seed)
        return matrix.apply(vector), matrix.column_sums()

    def test_estimate_close_to_bias_without_outliers(self, rng):
        vector = rng.normal(80.0, 5.0, size=20_000)
        w, pi = self._buckets_for(vector, buckets=64, seed=1)
        estimator = MiddleBucketsMeanEstimator(head_size=16)
        assert estimator.estimate_from_buckets(w, pi) == pytest.approx(80.0, abs=2.0)

    def test_outliers_in_few_buckets_are_excluded(self, rng):
        """Lemma 6: the k contaminated buckets fall outside the middle window."""
        vector = rng.normal(100.0, 5.0, size=20_000)
        vector[:5] = 1e7  # five outliers contaminate at most five buckets
        w, pi = self._buckets_for(vector, buckets=64, seed=2)
        estimator = MiddleBucketsMeanEstimator(head_size=8)
        estimate = estimator.estimate_from_buckets(w, pi)
        assert estimate == pytest.approx(100.0, abs=10.0)

    def test_all_empty_middle_falls_back_to_global_average(self):
        w = np.array([10.0, 0.0, 0.0, 0.0])
        pi = np.array([2.0, 0.0, 0.0, 0.0])
        estimator = MiddleBucketsMeanEstimator(head_size=1)
        # middle buckets (ranks 1..2 of the sort) are empty -> global ratio 10/2
        assert estimator.estimate_from_buckets(w, pi) == pytest.approx(5.0)

    def test_shape_mismatch_rejected(self):
        estimator = MiddleBucketsMeanEstimator(head_size=2)
        with pytest.raises(ValueError):
            estimator.estimate_from_buckets(np.ones(4), np.ones(5))

    def test_estimate_from_vector_is_not_supported(self):
        with pytest.raises(NotImplementedError):
            MiddleBucketsMeanEstimator(head_size=2).estimate_from_vector(np.ones(10))


class TestMeanEstimator:
    def test_matches_numpy_mean(self, rng):
        vector = rng.normal(size=300)
        estimator = MeanEstimator(300)
        assert estimator.estimate_from_vector(vector) == pytest.approx(vector.mean())

    def test_streaming_updates_accumulate(self):
        estimator = MeanEstimator(10)
        estimator.update(0, 5.0)
        estimator.update(3, 15.0)
        assert estimator.current_estimate() == pytest.approx(2.0)

    def test_not_robust_to_outliers(self, rng):
        """The documented failure mode (Section 4.1)."""
        vector = rng.normal(50.0, 1.0, size=1_000)
        vector[0] = 1e9
        estimator = MeanEstimator(1_000)
        assert abs(estimator.estimate_from_vector(vector) - 50.0) > 1e5


class TestExactAndFactory:
    def test_exact_estimator_matches_optimal_bias(self, paper_example_vector):
        estimator = ExactBiasEstimator(head_size=2, p=1)
        assert estimator.estimate_from_vector(paper_example_vector) == pytest.approx(
            optimal_bias(paper_example_vector, 2, 1).beta
        )

    def test_factory_builds_every_kind(self):
        for kind in ("sampling_median", "mean", "exact_l1", "exact_l2"):
            estimator = make_bias_estimator(kind, dimension=100, head_size=5, seed=0)
            assert estimator is not None

    def test_factory_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown bias estimator"):
            make_bias_estimator("bogus", dimension=10)

    def test_exact_requires_head_size(self):
        with pytest.raises(ValueError):
            make_bias_estimator("exact_l1", dimension=10)
