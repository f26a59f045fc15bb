"""Ablation: Bias-Heap (Algorithm 5) versus re-sorting on every query.

The streaming ℓ2 sketch needs the middle-bucket average after every update.
Two implementations are compared:

* **re-sort** — recompute the estimate from scratch (sort ``s`` buckets,
  O(s log s) per query), which is what a naive implementation would do;
* **Bias-Heap** — maintain the partition incrementally (an O(log s) search
  plus an O(distance) rank shift per update, O(1) per query), which is what
  Algorithm 5 provides.

The bench replays the same update sequence through both and times an
interleaved update+query workload, verifying they produce the same estimate.
"""

import numpy as np
import pytest

from repro.core.bias import MiddleBucketsMeanEstimator
from repro.core.bias_heap import BiasHeap
from repro.matrices.cm import CMMatrix

DIMENSION = 20_000
BUCKETS = 2_048
HEAD_SIZE = BUCKETS // 4
UPDATES = 5_000


@pytest.fixture(scope="module")
def update_sequence():
    rng = np.random.default_rng(777)
    matrix = CMMatrix(BUCKETS, DIMENSION, seed=7)
    indices = rng.integers(0, DIMENSION, size=UPDATES)
    deltas = rng.normal(50.0, 10.0, size=UPDATES)
    buckets = matrix.bucket_of[indices]
    # start from a tie-free state (distinct continuous bucket sums): when many
    # buckets are tied at exactly the same per-bucket average, the middle
    # window is not unique and the two implementations may legitimately pick
    # different — equally valid — tied buckets
    initial_w = rng.normal(1_000.0, 1.0, size=BUCKETS)
    return matrix.column_sums(), initial_w, buckets, deltas


def _run_with_heap(pi, initial_w, buckets, deltas, query_every=10):
    heap = BiasHeap(pi, head_size=HEAD_SIZE, initial_w=initial_w)
    estimates = []
    for step, (bucket, delta) in enumerate(zip(buckets, deltas)):
        heap.update(int(bucket), float(delta))
        if step % query_every == 0:
            estimates.append(heap.bias())
    return estimates


def _run_with_resort(pi, initial_w, buckets, deltas, query_every=10):
    estimator = MiddleBucketsMeanEstimator(HEAD_SIZE)
    w = initial_w.copy()
    estimates = []
    for step, (bucket, delta) in enumerate(zip(buckets, deltas)):
        w[bucket] += delta
        if step % query_every == 0:
            estimates.append(estimator.estimate_from_buckets(w, pi))
    return estimates


def test_ablation_bias_heap_matches_resort(update_sequence):
    pi, initial_w, buckets, deltas = update_sequence
    heap_estimates = _run_with_heap(pi, initial_w, buckets, deltas)
    resort_estimates = _run_with_resort(pi, initial_w, buckets, deltas)
    np.testing.assert_allclose(heap_estimates, resort_estimates,
                               rtol=1e-9, atol=1e-6)


def test_ablation_bias_heap_update_query(benchmark, update_sequence):
    pi, initial_w, buckets, deltas = update_sequence
    benchmark(_run_with_heap, pi, initial_w, buckets, deltas)


def test_ablation_resort_update_query(benchmark, update_sequence):
    pi, initial_w, buckets, deltas = update_sequence
    benchmark(_run_with_resort, pi, initial_w, buckets, deltas)
