"""Unit tests for the Bias-Heap (Algorithm 5)."""

import numpy as np
import pytest

from repro.core.bias import MiddleBucketsMeanEstimator
from repro.core.bias_heap import BiasHeap


def brute_force_bias(w: np.ndarray, pi: np.ndarray, head_size: int) -> float:
    """Reference implementation: sort buckets by average, average the middle 2k."""
    estimator = MiddleBucketsMeanEstimator(head_size)
    return estimator.estimate_from_buckets(w, pi)


class TestBiasHeapConstruction:
    def test_default_head_size_is_quarter_of_buckets(self):
        heap = BiasHeap(np.ones(32))
        assert heap.head_size == 8

    def test_rejects_negative_bucket_counts(self):
        with pytest.raises(ValueError):
            BiasHeap(np.array([1.0, -1.0]))

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            BiasHeap(np.array([]))
        with pytest.raises(ValueError):
            BiasHeap(np.ones((2, 2)))

    def test_initial_bias_is_zero_without_updates(self):
        heap = BiasHeap(np.ones(16))
        assert heap.bias() == pytest.approx(0.0)

    def test_initial_w_accepted_and_used(self, rng):
        pi = rng.integers(1, 5, size=32).astype(float)
        w = rng.normal(50.0, 5.0, size=32) * pi
        heap = BiasHeap(pi, head_size=8, initial_w=w)
        heap.check_invariants()
        assert heap.bias() == pytest.approx(brute_force_bias(w, pi, 8), rel=0.2)

    def test_initial_w_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BiasHeap(np.ones(4), initial_w=np.ones(5))


class TestBiasHeapUpdates:
    def test_update_invalid_bucket_rejected(self):
        heap = BiasHeap(np.ones(8))
        with pytest.raises(IndexError):
            heap.update(8, 1.0)

    def test_update_to_empty_bucket_rejected(self):
        pi = np.array([1.0, 0.0, 1.0, 1.0])
        heap = BiasHeap(pi, head_size=1)
        with pytest.raises(ValueError):
            heap.update(1, 1.0)

    def test_invariants_hold_under_random_updates(self, rng):
        pi = rng.integers(1, 6, size=24).astype(float)
        heap = BiasHeap(pi, head_size=6)
        for _ in range(500):
            bucket = int(rng.integers(0, 24))
            heap.update(bucket, float(rng.normal(10.0, 20.0)))
        heap.check_invariants()

    def test_bias_matches_brute_force_after_updates(self, rng):
        """The streaming estimate matches re-sorting from scratch (up to ties)."""
        pi = rng.integers(1, 4, size=40).astype(float)
        heap = BiasHeap(pi, head_size=10)
        w = np.zeros(40)
        for _ in range(300):
            bucket = int(rng.integers(0, 40))
            delta = float(rng.normal(25.0, 10.0))
            heap.update(bucket, delta)
            w[bucket] += delta
        # continuous deltas make key ties measure-zero, so the match is exact
        assert heap.bias() == pytest.approx(brute_force_bias(w, pi, 10))
        heap.check_invariants()

    def test_tracks_bias_of_a_biased_stream(self, rng):
        """Feeding a CM row of a biased vector yields that bias."""
        from repro.matrices.cm import CMMatrix

        vector = rng.normal(75.0, 5.0, size=5_000)
        matrix = CMMatrix(64, vector.size, seed=3)
        pi = matrix.column_sums()
        heap = BiasHeap(pi, head_size=16)
        for index, value in enumerate(vector):
            heap.update(matrix.bucket(index), float(value))
        assert heap.bias() == pytest.approx(75.0, abs=2.0)

    def test_middle_buckets_count(self):
        heap = BiasHeap(np.ones(32), head_size=8)
        assert heap.middle_buckets().size == 16

    def test_negative_updates_supported(self, rng):
        """Turnstile streams: deletions move buckets back down the order."""
        pi = np.ones(16)
        heap = BiasHeap(pi, head_size=4)
        heap.update(3, 100.0)
        heap.update(3, -100.0)
        heap.check_invariants()
        assert heap.bias() == pytest.approx(0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_delta_rejected_without_side_effects(self, bad, rng):
        pi = rng.integers(1, 4, size=16).astype(float)
        heap = BiasHeap(pi, head_size=4, initial_w=rng.normal(0.0, 5.0, 16) * pi)
        w, bias, locations = heap.w.copy(), heap.bias(), heap.locations
        with pytest.raises(ValueError, match="deltas must contain only finite values"):
            heap.update(3, bad)
        assert np.array_equal(heap.w, w)
        assert heap.bias() == bias
        assert np.array_equal(heap.locations, locations)
        heap.check_invariants()


class TestBiasHeapRestore:
    #: s = 8, k = 2: ranks 0-1 are the bottom set, 2-5 the middle, 6-7 the top
    PI = np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    #: averages 1, 2, 2, 3, ..., 7: buckets 1 and 2 tie across the boundary
    W = np.array([1.0, 4.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])

    def test_legacy_tie_break_answers_until_the_next_update(self):
        """A payload from before the total order may record a tie on the
        other side of a rank boundary: the restore answers from the recorded
        middle set, and the next update re-sorts into the canonical one."""
        canonical = BiasHeap(self.PI, head_size=2, initial_w=self.W)
        assert list(canonical.locations) == [0, 0, 1, 1, 1, 1, 2, 2]
        recorded = np.array([0, 1, 0, 1, 1, 1, 2, 2], dtype=np.int8)

        restored = BiasHeap(self.PI, head_size=2, initial_w=self.W,
                            initial_locations=recorded)
        # the recorded middle {1, 3, 4, 5}: (4 + 3 + 4 + 5) / (2 + 1 + 1 + 1)
        assert restored.bias() == 16.0 / 5.0
        assert canonical.bias() == 14.0 / 4.0
        assert np.array_equal(restored.locations, recorded)
        restored.check_invariants()

        restored.update(7, 1.0)
        fresh = BiasHeap(self.PI, head_size=2, initial_w=restored.w)
        assert restored.bias() == fresh.bias() == 14.0 / 4.0
        assert np.array_equal(restored.locations, fresh.locations)
        restored.check_invariants()

    def test_restore_rejects_wrong_set_sizes(self):
        with pytest.raises(ValueError, match="set sizes"):
            BiasHeap(self.PI, head_size=2, initial_w=self.W,
                     initial_locations=np.ones(8, dtype=np.int8))
