"""Property-based tests (hypothesis) for the hashing and Bias-Heap structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_bias_heap import IndexedMinHeap
from repro.core.bias import MiddleBucketsMeanEstimator
from repro.core.bias_heap import BiasHeap
from repro.hashing.families import KWiseHash, MERSENNE_PRIME_61
from repro.hashing.signs import SignHash


class TestHashingProperties:
    @given(st.integers(1, 1_000), st.integers(0, 2**31 - 1),
           st.lists(st.integers(0, 2**40), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_outputs_always_in_range(self, range_size, seed, items):
        h = KWiseHash(range_size, seed=seed)
        for item in items:
            assert 0 <= h(item) < range_size

    @given(st.integers(2, 500), st.integers(0, 2**31 - 1),
           st.lists(st.integers(0, MERSENNE_PRIME_61 - 1), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_vectorised_matches_scalar(self, range_size, seed, items):
        h = KWiseHash(range_size, independence=2, seed=seed)
        vectorised = h.hash_array(np.array(items, dtype=np.uint64))
        assert list(vectorised) == [h(item) for item in items]

    @given(st.integers(0, 2**31 - 1), st.lists(st.integers(0, 2**40),
                                               min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_sign_values_and_determinism(self, seed, items):
        r = SignHash(seed=seed)
        first = [r(item) for item in items]
        second = [r(item) for item in items]
        assert first == second
        assert all(value in (-1, 1) for value in first)


class TestIndexedHeapProperties:
    @given(st.dictionaries(st.integers(0, 200), st.floats(-1e6, 1e6,
                                                          allow_nan=False),
                           min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_drains_in_sorted_order(self, keyed):
        heap = IndexedMinHeap()
        for node_id, key in keyed.items():
            heap.push(node_id, key)
        drained = [heap.pop() for _ in range(len(heap))]
        assert drained == sorted(drained)

    @given(st.dictionaries(st.integers(0, 200), st.floats(-1e6, 1e6,
                                                          allow_nan=False),
                           min_size=2, max_size=60),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_removal_preserves_order_of_the_rest(self, keyed, data):
        heap = IndexedMinHeap()
        for node_id, key in keyed.items():
            heap.push(node_id, key)
        victim = data.draw(st.sampled_from(sorted(keyed)))
        heap.remove(victim)
        drained = [heap.pop() for _ in range(len(heap))]
        expected = sorted((key, node_id) for node_id, key in keyed.items()
                          if node_id != victim)
        assert drained == expected


class TestBiasHeapProperties:
    @given(
        st.integers(4, 40),
        st.integers(0, 2**31 - 1),
        st.lists(
            st.tuples(st.integers(0, 10_000), st.floats(-1e4, 1e4,
                                                        allow_nan=False)),
            min_size=1,
            max_size=120,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_streaming_matches_batch_estimator_and_invariants_hold(
        self, buckets, seed, updates
    ):
        """After any update sequence the heap matches the re-sorted estimate
        (up to key ties) and its internal invariants hold."""
        rng = np.random.default_rng(seed)
        pi = rng.integers(1, 5, size=buckets).astype(float)
        head_size = max(1, buckets // 4)
        heap = BiasHeap(pi, head_size=head_size)
        w = np.zeros(buckets)
        for raw_bucket, delta in updates:
            bucket = raw_bucket % buckets
            heap.update(bucket, delta)
            w[bucket] += delta
        heap.check_invariants()

        keys = np.where(pi > 0, w / np.maximum(pi, 1e-12), 0.0)
        # only compare against the brute-force estimator when all keys are
        # distinct; with ties the middle window is not unique
        if np.unique(keys).size == keys.size:
            expected = MiddleBucketsMeanEstimator(head_size).estimate_from_buckets(
                w, pi
            )
            assert np.isclose(heap.bias(), expected, rtol=1e-9, atol=1e-9)

    @given(st.integers(4, 64), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_initialisation_from_w_matches_incremental(self, buckets, seed):
        rng = np.random.default_rng(seed)
        pi = rng.integers(1, 4, size=buckets).astype(float)
        w = rng.normal(0.0, 100.0, size=buckets)
        bulk = BiasHeap(pi, initial_w=w)
        incremental = BiasHeap(pi)
        for bucket, value in enumerate(w):
            incremental.update(bucket, float(value))
        assert np.isclose(bulk.bias(), incremental.bias(), rtol=1e-9, atol=1e-9)
        bulk.check_invariants()
        incremental.check_invariants()
