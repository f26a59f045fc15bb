"""Accuracy of point queries through the session facade."""

import numpy as np
import pytest

from repro.api import SketchConfig, SketchSession


@pytest.fixture
def fitted_session(biased_gaussian_vector):
    config = SketchConfig("l2_sr", dimension=biased_gaussian_vector.size,
                          width=128, depth=5, seed=1)
    session = SketchSession.from_config(config).ingest(biased_gaussian_vector)
    return session, biased_gaussian_vector


class TestPointQuery:
    def test_errors_are_small_on_biased_data(self, fitted_session):
        session, vector = fitted_session
        indices = np.arange(0, 5_000, 250)
        estimates = session.query(kind="point", index=indices)
        errors = np.abs(estimates - vector[indices])
        # the per-coordinate noise of a width-128 ℓ2-S/R on this workload is
        # of the order Err_2(debiased)/√width ≈ 95; the median error sits well
        # below the outlier magnitude (10 000) and the bias (100 · n/s ≈ 3900
        # for Count-Median without de-biasing)
        assert np.median(errors) < 150.0
