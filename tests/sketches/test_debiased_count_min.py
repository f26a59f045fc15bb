"""Unit tests for the Deng & Rafiei debiased Count-Min comparator."""

import numpy as np
import pytest

from repro.core import L2BiasAwareSketch
from repro.sketches import CountMin, CountSketch, DebiasedCountMin


class TestDebiasedCountMin:
    def test_total_mass_tracked(self, small_count_vector):
        sketch = DebiasedCountMin(small_count_vector.size, 64, 5, seed=1)
        sketch.fit(small_count_vector)
        assert sketch.total_mass == pytest.approx(small_count_vector.sum())

    def test_less_biased_than_plain_count_min(self, rng):
        """Subtracting the background removes most of the CM over-estimate."""
        vector = rng.poisson(40.0, size=3_000).astype(float)
        plain = CountMin(3_000, 128, 6, seed=3).fit(vector)
        debiased = DebiasedCountMin(3_000, 128, 6, seed=3).fit(vector)
        plain_bias = float(np.mean(plain.recover() - vector))
        debiased_bias = float(np.mean(debiased.recover() - vector))
        assert abs(debiased_bias) < 0.2 * plain_bias

    def test_competitive_with_count_sketch_on_clean_biased_data(self, rng):
        """With no outliers, subtracting the average background works well —
        the correction is at least CS-quality here (the paper's point is that
        this does not survive outliers, covered by the next test)."""
        vector = rng.normal(100.0, 15.0, size=5_000)
        vector = np.maximum(vector, 0.0)
        deng = DebiasedCountMin(5_000, 256, 6, seed=5).fit(vector)
        cs = CountSketch(5_000, 256, 6, seed=5).fit(vector)
        plain = CountMin(5_000, 256, 6, seed=5).fit(vector)
        deng_error = float(np.mean(np.abs(deng.recover() - vector)))
        cs_error = float(np.mean(np.abs(cs.recover() - vector)))
        plain_error = float(np.mean(np.abs(plain.recover() - vector)))
        assert deng_error < 2.0 * cs_error
        assert deng_error < 0.1 * plain_error

    def test_clearly_worse_than_l2_bias_aware_with_outliers(self, biased_gaussian_vector):
        """...and it does not reach the bias-aware sketches when outliers exist."""
        n = biased_gaussian_vector.size
        deng = DebiasedCountMin(n, 256, 6, seed=7).fit(biased_gaussian_vector)
        ours = L2BiasAwareSketch(n, 256, 5, seed=7).fit(biased_gaussian_vector)
        deng_error = float(np.mean(np.abs(deng.recover() - biased_gaussian_vector)))
        our_error = float(np.mean(np.abs(ours.recover() - biased_gaussian_vector)))
        assert our_error < deng_error

    def test_query_matches_recover(self, small_count_vector):
        sketch = DebiasedCountMin(small_count_vector.size, 32, 4, seed=2)
        sketch.fit(small_count_vector)
        recovered = sketch.recover()
        for index in (0, 17, 799):
            assert sketch.query(index) == pytest.approx(recovered[index])

    def test_linearity_merge_and_scale(self, rng):
        x = rng.poisson(10.0, size=500).astype(float)
        y = rng.poisson(5.0, size=500).astype(float)
        merged = DebiasedCountMin(500, 64, 4, seed=9).fit(x)
        merged.merge(DebiasedCountMin(500, 64, 4, seed=9).fit(y))
        direct = DebiasedCountMin(500, 64, 4, seed=9).fit(x + y)
        np.testing.assert_allclose(merged.recover(), direct.recover())
        assert merged.total_mass == pytest.approx(direct.total_mass)

        scaled = DebiasedCountMin(500, 64, 4, seed=9).fit(x).scale(2.0)
        np.testing.assert_allclose(
            scaled.recover(), DebiasedCountMin(500, 64, 4, seed=9).fit(2 * x).recover()
        )

    def test_size_counts_the_mass_register(self):
        sketch = DebiasedCountMin(100, 32, 3, seed=0)
        assert sketch.size_in_words() == 32 * 3 + 1

    def test_registered_in_registry(self):
        from repro.api import SketchConfig
        from repro.sketches.registry import get_spec

        spec = get_spec("debiased_count_min")
        assert spec.linear is True
        assert spec.bias_aware is False
        sketch = SketchConfig("debiased_count_min", dimension=100, width=16,
                              depth=3, seed=0).build()
        assert isinstance(sketch, DebiasedCountMin)
