"""The rank-array Bias-Heap answers bit for bit as the four-heap reference.

:class:`repro.core.bias_heap.BiasHeap` keeps the rank order in numpy arrays
and accumulates its middle sums with the same ``+=``/``-=`` sequence the
boundary-swapping heap of ``reference_bias_heap`` performs.  After every
update, ``bias()``, ``locations`` and both running middle sums must be
identical to the reference's — not merely close — across integer, float,
tie-heavy and turnstile deltas, zero-π buckets, every head size, builds from
``initial_w`` and restores from ``initial_locations``.  The reference's
partition is the canonical one, so matching its ``locations`` also pins the
rank order.  (``check_invariants`` is left to the structure suite: its
absolute drift tolerance does not hold at the magnitudes used here.)
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_bias_heap import BiasHeap as ReferenceBiasHeap
from repro.core.bias_heap import BiasHeap

#: values whose sums round, at magnitudes from 1e-3 to 1e5, so that any
#: change in the order of the running-sum updates shows in the last bit
INEXACT = st.builds(lambda n, scale: n / 7.0 * scale, st.integers(-10**6, 10**6),
                    st.sampled_from([1e-3, 1.0, 1e3, 1e5]))

DELTAS = {
    "integer": st.integers(-3, 3).map(float),
    "float": st.floats(-1e4, 1e4, allow_nan=False) | INEXACT,
    # unit steps over π ∈ {1, 2}: most buckets share their average with others
    "ties": st.sampled_from([-1.0, 1.0]),
    "turnstile": st.sampled_from([1e6, -1e6]) | st.floats(-1.0, 1.0),
}


def bits(value) -> bytes:
    return np.float64(value).tobytes()


def assert_identical(heap: BiasHeap, reference: ReferenceBiasHeap) -> None:
    assert bits(heap.bias()) == bits(reference.bias())
    assert bits(heap._middle_w_sum) == bits(reference._middle_w_sum)
    assert bits(heap._middle_pi_sum) == bits(reference._middle_pi_sum)
    assert np.array_equal(heap.locations, reference.locations)


@st.composite
def scenarios(draw, max_updates=60):
    """``(pi, head_size, initial_w, updates)`` for one delta kind."""
    kind = draw(st.sampled_from(sorted(DELTAS)))
    deltas = DELTAS[kind]
    buckets = draw(st.integers(1, 48))
    counts = st.integers(0, 2) if kind == "ties" else st.integers(0, 4)
    pi = np.array(draw(st.lists(counts, min_size=buckets, max_size=buckets)),
                  dtype=float)
    head_size = draw(st.sampled_from([1, max(1, buckets // 2), None])
                     | st.integers(1, buckets + 2))
    initial_w = None
    if draw(st.booleans()):
        initial_w = np.array(draw(st.lists(deltas | st.just(-0.0),
                                           min_size=buckets, max_size=buckets)))
    live = np.flatnonzero(pi > 0)
    updates = []
    if live.size:
        for raw, delta in draw(st.lists(st.tuples(st.integers(0, 10**6), deltas),
                                        max_size=max_updates)):
            updates.append((int(live[raw % live.size]), delta))
    return pi, head_size, initial_w, updates


class TestBiasHeapMatchesReference:
    @given(scenarios())
    @settings(max_examples=200, deadline=None)
    def test_identical_after_every_update(self, scenario):
        pi, head_size, initial_w, updates = scenario
        heap = BiasHeap(pi, head_size, initial_w)
        reference = ReferenceBiasHeap(pi, head_size, initial_w)
        assert_identical(heap, reference)
        for bucket, delta in updates:
            heap.update(bucket, delta)
            reference.update(bucket, delta)
            assert_identical(heap, reference)

    @given(scenarios(max_updates=30), st.lists(st.integers(0, 10**6), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_identical_after_a_restore(self, scenario, later):
        """A restore from recorded locations sums the middle set in bucket
        order, as the reference does, and keeps matching it afterwards."""
        pi, head_size, initial_w, updates = scenario
        reference = ReferenceBiasHeap(pi, head_size, initial_w)
        for bucket, delta in updates:
            reference.update(bucket, delta)
        heap = BiasHeap(pi, head_size, reference.w, reference.locations)
        reference = ReferenceBiasHeap(pi, head_size, reference.w,
                                      reference.locations)
        assert_identical(heap, reference)
        live = np.flatnonzero(pi > 0)
        for step, raw in enumerate(later if live.size else []):
            bucket = int(live[raw % live.size])
            delta = float(step % 5 - 2)
            heap.update(bucket, delta)
            reference.update(bucket, delta)
            assert_identical(heap, reference)

    @given(st.integers(4, 40), st.data())
    @settings(max_examples=150, deadline=None)
    def test_single_updates_cross_every_boundary(self, buckets, data):
        """One update carries a bucket from any rank set into any other,
        including straight across the middle window (bottom to top and top
        to bottom)."""
        pi = np.array(data.draw(st.lists(st.integers(1, 4), min_size=buckets,
                                         max_size=buckets)), dtype=float)
        # a non-empty bottom and top: low > 0 and high < s
        head_size = data.draw(st.integers(1, buckets // 2 - 1))
        low, high = buckets // 2 - head_size, buckets // 2 + head_size
        initial_w = np.array(data.draw(st.lists(INEXACT, min_size=buckets,
                                                max_size=buckets)))
        heap = BiasHeap(pi, head_size, initial_w)
        reference = ReferenceBiasHeap(pi, head_size, initial_w)
        moves = st.sampled_from([(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)])
        for source, destination in data.draw(st.lists(moves, min_size=1,
                                                      max_size=8)):
            candidates = np.flatnonzero(reference.locations == source)
            bucket = int(data.draw(st.sampled_from(list(candidates))))
            ranked = np.sort(reference.w / pi)
            target = {
                0: ranked[0] - 1.0,
                1: (ranked[low] + ranked[high - 1]) / 2.0,
                2: ranked[-1] + 1.0,
            }[destination]
            delta = target * pi[bucket] - reference.w[bucket]
            heap.update(bucket, delta)
            reference.update(bucket, delta)
            assert_identical(heap, reference)
            # ``w + (target·π − w)`` rounds at the magnitude of the old ``w``,
            # so a bucket coming down from far above can land just outside a
            # narrow middle window: rank the average it actually holds
            landed = reference.w[bucket] / pi[bucket]
            if destination != 1 or ranked[low] < landed < ranked[high - 1]:
                assert heap.locations[bucket] == destination

    def test_signed_zero_middle_sums(self):
        """A middle set of ``-0.0`` sums sums to ``0.0`` from a ``+=`` loop."""
        pi = np.ones(6)
        for head_size in (1, 2, 3):
            heap = BiasHeap(pi, head_size, np.full(6, -0.0))
            reference = ReferenceBiasHeap(pi, head_size, np.full(6, -0.0))
            assert_identical(heap, reference)
            heap.update(0, -0.0)
            reference.update(0, -0.0)
            assert_identical(heap, reference)
