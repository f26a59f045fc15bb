"""Unit tests for heavy-hitter queries."""

import numpy as np
import pytest

import reference_query_kernels as reference
from repro.api import SketchConfig, SketchSession
from repro.queries.heavy_hitters import _heavy_hitters
from repro.sketches.base import SCAN_BLOCK


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


def _zipf_sketch(name, dimension, seed):
    """A sketch of 40,000 Zipf(1.3) updates scrambled over its key space."""
    rng = np.random.default_rng(seed)
    ranks = rng.zipf(1.3, 40_000).astype(np.uint64)
    space = 2**62 if dimension is None else dimension
    keys = ((ranks * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(space)).astype(np.int64)
    sketch = SketchConfig(name, dimension=dimension, width=256, depth=5,
                          seed=seed).build()
    return sketch.update_batch(keys), np.unique(keys)


def _counted(sketch):
    """Record the size of every ``query_batch`` call the scan makes."""
    calls = []
    original = sketch.query_batch

    def query_batch(indices):
        calls.append(len(indices))
        return original(indices)

    sketch.query_batch = query_batch
    return calls


def _bits(hitters):
    return [(h.index, np.float64(h.estimate).tobytes(),
             np.float64(h.score).tobytes()) for h in hitters]


QUERIES = [
    {"phi": 0.001},
    {"phi": 0.01, "top_k": 5},
    {"phi": 0.002, "relative_to_bias": True},
    {"threshold": 50.0},
    {"threshold": 20.0, "top_k": 3, "relative_to_bias": True},
]


class TestOnePassScan:
    """A phi scan estimates each key once when both passes fit one block.

    Every answer — index, estimate, score and order — must equal the frozen
    two-pass scan of ``reference_query_kernels``.
    """

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("name", ["l2_sr_streaming", "count_sketch",
                                      "l1_sr", "count_min_cu"])
    def test_bounded_domain_matches_the_two_pass_scan(self, name, query):
        sketch, seen = _zipf_sketch(name, 20_000, seed=8)
        expected = reference.heavy_hitters(sketch, **query)
        assert expected
        assert _bits(_heavy_hitters(sketch, **query)) == _bits(expected)
        restricted = dict(query, candidates=seen[::3])
        assert _bits(_heavy_hitters(sketch, **restricted)) == \
            _bits(reference.heavy_hitters(sketch, **restricted))

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("name", ["count_min_cu", "count_sketch"])
    def test_hashed_key_candidates_match_the_two_pass_scan(self, name, query):
        sketch, seen = _zipf_sketch(name, None, seed=9)
        candidates = np.concatenate([seen, seen[:50]])
        query = dict(query, candidates=candidates)
        expected = reference.heavy_hitters(sketch, **query)
        assert expected
        assert _bits(_heavy_hitters(sketch, **query)) == _bits(expected)

    def test_a_scan_of_one_block_estimates_each_key_once(self):
        sketch, _ = _zipf_sketch("l2_sr_streaming", 20_000, seed=10)
        calls = _counted(sketch)
        _heavy_hitters(sketch, phi=0.001)
        assert calls == [20_000]
        hashed, keys = _zipf_sketch("count_min_cu", None, seed=10)
        calls = _counted(hashed)
        _heavy_hitters(hashed, phi=0.001, candidates=keys)
        assert calls == [keys.size]

    def test_candidates_of_a_bounded_domain_keep_the_domain_mass_pass(self):
        sketch, seen = _zipf_sketch("count_sketch", 20_000, seed=11)
        calls = _counted(sketch)
        _heavy_hitters(sketch, phi=0.001, candidates=seen[:100])
        assert calls == [20_000, 100]

    @pytest.mark.parametrize("dimension,blocks", [
        (SCAN_BLOCK, [SCAN_BLOCK]),
        (SCAN_BLOCK + 1, [SCAN_BLOCK, 1] * 2),
        (2 * SCAN_BLOCK + 10, [SCAN_BLOCK, SCAN_BLOCK, 10] * 2),
    ])
    def test_a_scan_takes_two_passes_only_beyond_one_block(self, dimension,
                                                           blocks):
        sketch, _ = _zipf_sketch("count_min", dimension, seed=12)
        expected = reference.heavy_hitters(sketch, phi=0.001, top_k=20)
        calls = _counted(sketch)
        assert _bits(_heavy_hitters(sketch, phi=0.001, top_k=20)) == \
            _bits(expected)
        assert calls == blocks

    def test_hashed_key_candidates_beyond_one_block_take_two_passes(self):
        sketch, seen = _zipf_sketch("count_min_cu", None, seed=13)
        extra = np.random.default_rng(13).integers(0, 2**62, SCAN_BLOCK)
        candidates = np.unique(np.concatenate([seen, extra]))
        rest = candidates.size - SCAN_BLOCK
        expected = reference.heavy_hitters(sketch, phi=0.001,
                                           candidates=candidates)
        calls = _counted(sketch)
        assert _bits(_heavy_hitters(sketch, phi=0.001,
                                    candidates=candidates)) == _bits(expected)
        assert calls == [SCAN_BLOCK, rest] * 2
