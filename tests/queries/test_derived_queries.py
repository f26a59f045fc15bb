"""Unit tests for range-sum, inner-product and quantile queries."""

import numpy as np
import pytest

from repro.api import SketchConfig, SketchSession
from repro.queries.quantiles import approximate_quantile
from repro.sketches import CountMin


@pytest.fixture
def fitted(rng):
    vector = rng.normal(200.0, 10.0, size=2_000)
    config = SketchConfig("l2_sr", dimension=2_000, width=128, depth=5, seed=1)
    return SketchSession.from_config(config).ingest(vector), vector


class TestRangeSum:
    def test_matches_true_range_sum(self, fitted):
        session, vector = fitted
        low, high = 100, 160
        estimate = session.query(kind="range", low=low, high=high)
        assert estimate == pytest.approx(vector[low:high].sum(), rel=0.05)

    def test_full_range_allowed(self, fitted):
        session, vector = fitted
        estimate = session.query(kind="range", low=0, high=session.dimension)
        assert estimate == pytest.approx(vector.sum(), rel=0.05)

    def test_empty_range_is_zero(self, fitted):
        session, _ = fitted
        assert session.query(kind="range", low=10, high=10) == 0.0

    def test_invalid_bounds(self, fitted):
        session, _ = fitted
        with pytest.raises(ValueError):
            session.query(kind="range", low=50, high=10)
        with pytest.raises(IndexError):
            session.query(kind="range", low=-1, high=10)


class TestInnerProduct:
    def test_matches_true_inner_product(self, fitted, rng):
        session, vector = fitted
        y = rng.normal(size=2_000)
        estimate = session.query(kind="inner_product", vector=y)
        truth = float(np.dot(vector, y))
        assert estimate == pytest.approx(truth, rel=0.2, abs=2_000.0)

    def test_dimension_mismatch_rejected(self, fitted):
        session, _ = fitted
        with pytest.raises(ValueError):
            session.query(kind="inner_product", vector=np.ones(1_999))

    def test_indicator_vector_reduces_to_range_sum(self, fitted):
        session, _ = fitted
        indicator = np.zeros(2_000)
        indicator[5:25] = 1.0
        estimate = session.query(kind="inner_product", vector=indicator)
        assert estimate == pytest.approx(
            session.query(kind="range", low=5, high=25), rel=1e-9
        )


class TestQuantiles:
    def test_median_of_biased_vector_is_near_the_bias(self, fitted):
        session, vector = fitted
        assert approximate_quantile(session.sketch, 0.5) == pytest.approx(
            np.median(vector), abs=10.0
        )

    def test_extreme_quantiles(self, fitted):
        session, _ = fitted
        sketch = session.sketch
        assert approximate_quantile(sketch, 0.0) <= approximate_quantile(sketch, 1.0)

    def test_invalid_q(self, fitted):
        session, _ = fitted
        with pytest.raises(ValueError):
            approximate_quantile(session.sketch, 1.5)

    def test_works_on_count_min(self, small_count_vector):
        sketch = CountMin(small_count_vector.size, 64, 5, seed=2)
        sketch.fit(small_count_vector)
        estimate = approximate_quantile(sketch, 0.5)
        assert estimate >= np.median(small_count_vector) - 1e-9
