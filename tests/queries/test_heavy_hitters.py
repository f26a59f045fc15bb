"""Unit tests for heavy-hitter queries."""

import numpy as np
import pytest

from repro.api import SketchConfig, SketchSession


@pytest.fixture
def outlier_vector(rng):
    """A biased vector whose interesting items are the ones far above the bias."""
    vector = rng.normal(100.0, 5.0, size=4_000)
    hot = rng.choice(4_000, size=15, replace=False)
    vector[hot] += 5_000.0
    return vector, set(int(i) for i in hot)


def fitted_session(name, vector, width, depth, seed):
    config = SketchConfig(name, dimension=vector.size, width=width,
                          depth=depth, seed=seed)
    return SketchSession.from_config(config).ingest(vector)


class TestHeavyHitters:
    def test_absolute_threshold_finds_planted_outliers(self, outlier_vector):
        vector, hot = outlier_vector
        session = fitted_session("l2_sr", vector, 256, 7, seed=1)
        found = session.query(kind="heavy_hitters", threshold=2_000.0)
        assert {h.index for h in found} == hot

    def test_relative_to_bias_mode(self, outlier_vector):
        """Thresholding the de-biased score isolates outliers above the bias."""
        vector, hot = outlier_vector
        session = fitted_session("l2_sr", vector, 256, 7, seed=2)
        found = session.query(kind="heavy_hitters", threshold=1_000.0,
                              relative_to_bias=True)
        assert {h.index for h in found} == hot
        # without de-biasing, an absolute threshold of 1000 would flag everything
        plain = session.query(kind="heavy_hitters", threshold=1_000.0)
        assert len(plain) < 100  # estimates near the bias (100) stay below 1000

    def test_phi_threshold(self, rng):
        vector = np.zeros(1_000)
        vector[7] = 900.0
        vector[13] = 60.0
        session = fitted_session("count_sketch", vector, 128, 5, seed=3)
        found = session.query(kind="heavy_hitters", phi=0.5,
                              total_mass=float(vector.sum()))
        assert [h.index for h in found] == [7]

    def test_top_k_truncation_and_sorting(self, outlier_vector):
        vector, hot = outlier_vector
        session = fitted_session("l2_sr", vector, 256, 7, seed=4)
        found = session.query(kind="heavy_hitters", threshold=2_000.0,
                              top_k=5)
        assert len(found) == 5
        scores = [h.score for h in found]
        assert scores == sorted(scores, reverse=True)

    def test_phi_with_candidates_keeps_domain_relative_meaning(self):
        """On a bounded sketch, candidates restrict which keys are reported
        but phi stays relative to the whole domain's mass."""
        vector = np.zeros(1_000)
        vector[7] = 900.0
        vector[13] = 60.0
        session = fitted_session("count_sketch", vector, 128, 5, seed=3)
        full = session.query(kind="heavy_hitters", phi=0.5)
        restricted = session.query(kind="heavy_hitters", phi=0.5,
                                   candidates=[7, 13, 500])
        assert [h.index for h in restricted] == [h.index for h in full] == [7]

    def test_argument_validation(self, outlier_vector):
        vector, _ = outlier_vector
        session = fitted_session("count_sketch", vector, 64, 3, seed=5)
        with pytest.raises(ValueError, match="exactly one"):
            session.query(kind="heavy_hitters")
        with pytest.raises(ValueError, match="exactly one"):
            session.query(kind="heavy_hitters", threshold=1.0, phi=0.1)
        with pytest.raises(ValueError):
            session.query(kind="heavy_hitters", phi=1.5)
        with pytest.raises(ValueError):
            session.query(kind="heavy_hitters", threshold=1.0, top_k=0)
