"""Shared fixtures for the test suite.

All fixtures are deterministic: anything random is seeded, so failures are
reproducible from the test name alone.

Hypothesis profiles: the property suites run under the profile named by the
``HYPOTHESIS_PROFILE`` environment variable (CI pins ``ci``).  The ``ci``
profile derandomises example generation and disables deadlines so the
property budget is fixed and runs are reproducible; ``dev`` is a slightly
richer local profile.  With the variable unset, ``derandomized`` keeps
hypothesis's default example budget and deadline but draws the same
examples on every run and keeps no example database, so a run in one
directory never replays a failure stored by an earlier one.  Individual
suites may still cap ``max_examples`` per-test where a case iterates over
every registered sketch.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# hypothesis imports its patch writer when a property test fails; its libcst
# import raises a DeprecationWarning from mypy_extensions, which the
# ``error::DeprecationWarning`` filter would turn into an INTERNALERROR that
# ends the whole session.  Importing it here, once, with that warning
# ignored for this import only, lets the failure be reported like any other.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # pragma: no cover - optional hypothesis extra
        pass

settings.register_profile(
    "ci",
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", max_examples=50, deadline=None)
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded generator for per-test randomness."""
    return np.random.default_rng(20170509)


@pytest.fixture
def paper_example_vector() -> np.ndarray:
    """The running example of the paper's introduction (Equation 3).

    x = (3, 100, 101, 500, 102, 98, 97, 100, 99, 103) with k = 2:
    Err_1^2 = 700, Err_2^2 ≈ 263.49, and after optimal de-biasing (β = 100)
    the errors drop to 12 and √28 ≈ 5.29.
    """
    return np.array([3, 100, 101, 500, 102, 98, 97, 100, 99, 103], dtype=float)


@pytest.fixture
def biased_gaussian_vector(rng) -> np.ndarray:
    """A mid-sized biased vector: N(100, 15²) with a few large outliers."""
    vector = rng.normal(100.0, 15.0, size=5_000)
    outliers = rng.choice(vector.size, size=10, replace=False)
    vector[outliers] += 10_000.0
    return vector


@pytest.fixture
def small_count_vector(rng) -> np.ndarray:
    """A small non-negative integer count vector (cash-register friendly)."""
    return rng.poisson(30.0, size=800).astype(float)


@pytest.fixture
def sketch_params() -> dict:
    """A small but non-trivial sketch configuration shared across tests."""
    return {"width": 64, "depth": 5, "seed": 4242}
