"""Unit tests for the dyadic range sketch."""

import numpy as np
import pytest

from repro.api import SketchConfig, SketchSession
from repro.queries.dyadic import DyadicRangeSketch


@pytest.fixture
def biased_counts(rng):
    return np.maximum(rng.normal(50.0, 8.0, size=3_000), 0.0)


class TestDyadicDecomposition:
    def test_decomposition_covers_the_range_exactly(self):
        structure = DyadicRangeSketch(1_024, 64, 3, seed=1)
        for low, high in [(0, 1_024), (1, 1_023), (100, 101), (37, 911), (0, 0)]:
            covered = []
            for level, start, end in structure._decompose(low, high):
                for block in range(start, end):
                    block_low = block << level
                    block_high = (block + 1) << level
                    covered.extend(range(block_low, block_high))
            assert sorted(covered) == list(range(low, high))

    def test_logarithmic_number_of_point_queries(self):
        structure = DyadicRangeSketch(4_096, 64, 3, seed=2)
        worst = max(
            structure.queries_per_range(low, high)
            for low, high in [(1, 4_095), (3, 4_001), (123, 3_987)]
        )
        # at most 2 blocks per level
        assert worst <= 2 * structure.levels

    def test_invalid_ranges_rejected(self):
        structure = DyadicRangeSketch(100, 16, 3, seed=3)
        with pytest.raises(ValueError):
            structure.range_sum(10, 5)
        with pytest.raises(ValueError):
            structure.range_sum(0, 101)
        with pytest.raises(IndexError):
            structure.point_query(100)


class TestDyadicAccuracy:
    def test_range_sums_close_to_truth(self, biased_counts):
        structure = DyadicRangeSketch(
            biased_counts.size, 256, 5, algorithm="l2_sr", seed=4
        ).fit(biased_counts)
        for low, high in [(0, 3_000), (100, 2_000), (512, 600), (2_900, 3_000)]:
            truth = float(biased_counts[low:high].sum())
            estimate = structure.range_sum(low, high)
            assert estimate == pytest.approx(truth, rel=0.1, abs=200.0)

    def test_more_accurate_than_summing_point_estimates_on_long_ranges(
        self, biased_counts
    ):
        """The reason the structure exists: O(log n) vs O(range) error growth."""
        flat = SketchSession.from_config(SketchConfig(
            "count_sketch", dimension=biased_counts.size, width=256, depth=5,
            seed=5,
        )).ingest(biased_counts)
        dyadic = DyadicRangeSketch(
            biased_counts.size, 256, 5, algorithm="count_sketch", seed=5
        ).fit(biased_counts)
        low, high = 0, 2_500
        truth = float(biased_counts[low:high].sum())
        flat_error = abs(flat.query(kind="range", low=low, high=high) - truth)
        dyadic_error = abs(dyadic.range_sum(low, high) - truth)
        assert dyadic_error < flat_error

    def test_point_query_uses_base_level(self, biased_counts):
        structure = DyadicRangeSketch(
            biased_counts.size, 256, 5, algorithm="l2_sr", seed=6
        ).fit(biased_counts)
        index = 123
        assert structure.point_query(index) == pytest.approx(
            biased_counts[index], abs=25.0
        )

    def test_streaming_updates_match_fit(self, rng):
        counts = rng.poisson(5.0, size=500).astype(float)
        batch = DyadicRangeSketch(500, 64, 3, algorithm="count_median",
                                  seed=7).fit(counts)
        streamed = DyadicRangeSketch(500, 64, 3, algorithm="count_median", seed=7)
        for index in np.flatnonzero(counts):
            streamed.update(int(index), float(counts[index]))
        for low, high in [(0, 500), (10, 300)]:
            assert streamed.range_sum(low, high) == pytest.approx(
                batch.range_sum(low, high)
            )

    def test_size_accounts_for_every_level(self):
        structure = DyadicRangeSketch(1_000, 64, 3, seed=8)
        assert structure.size_in_words() > 64 * 3  # more than a single level
