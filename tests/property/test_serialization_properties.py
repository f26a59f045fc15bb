"""Property-based tests (hypothesis) for the state protocol.

Two families of invariants, each checked for *every* registered sketch:

* **round-trip fidelity** — ``from_bytes(to_bytes(s))`` restores a sketch
  whose state arrays, query results and re-encoded payload are bit-identical
  to the original, and which continues to evolve identically under further
  updates (this exercises the CML-CU generator-state restore and the
  streaming-ℓ2 heap-membership restore);
* **merge algebra** — for linear sketches, merging is associative and
  commutative on integer-weighted streams, i.e. the shard order of the
  sharded ingestion engine cannot change any answer.

Streams are integer-weighted throughout: integer scatter-adds are exact in
float64, which is what makes "bit-identical" a meaningful bar (for real
weights the guarantees hold up to floating-point summation order).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SketchConfig
from repro.sketches.registry import available_sketches, get_spec

DIMENSION = 64
WIDTH = 16
DEPTH = 3

ALL_SKETCHES = available_sketches()
LINEAR_SKETCHES = [name for name in ALL_SKETCHES if get_spec(name).linear]

seeds = st.integers(0, 2**31 - 1)

#: a short integer-weighted cash-register stream over [0, DIMENSION)
update_streams = st.lists(
    st.tuples(
        st.integers(0, DIMENSION - 1),
        st.integers(1, 8),
    ),
    min_size=1,
    max_size=60,
)


def build(name, seed):
    return SketchConfig(name, dimension=DIMENSION, width=WIDTH,
                        depth=DEPTH, seed=seed).build()


def replay(sketch, updates):
    indices = np.array([u[0] for u in updates], dtype=np.int64)
    deltas = np.array([u[1] for u in updates], dtype=np.float64)
    sketch.update_batch(indices, deltas)
    return sketch


def assert_states_identical(a, b, *, compare_meta=True):
    """Bit-identical state arrays, scalars and (optionally) meta."""
    sa, sb = a.state_dict(), b.state_dict()
    assert sa["kind"] == sb["kind"]
    assert set(sa["arrays"]) == set(sb["arrays"])
    for key in sa["arrays"]:
        assert np.array_equal(sa["arrays"][key], sb["arrays"][key]), key
    assert sa["scalars"] == sb["scalars"]
    if compare_meta:
        assert sa["meta"] == sb["meta"]


class TestRoundTrip:
    @settings(max_examples=8, deadline=None)
    @given(updates=update_streams, seed=seeds)
    def test_round_trip_is_bit_identical(self, updates, seed):
        for name in ALL_SKETCHES:
            original = replay(build(name, seed), updates)
            payload = original.to_bytes()
            restored = type(original).from_bytes(payload)

            assert_states_identical(original, restored)
            probe = np.arange(DIMENSION)
            assert np.array_equal(
                original.query_batch(probe), restored.query_batch(probe)
            ), name
            assert restored.to_bytes() == payload, name

    @settings(max_examples=8, deadline=None)
    @given(updates=update_streams, seed=seeds)
    def test_restored_sketch_evolves_identically(self, updates, seed):
        """Further updates after a restore replay exactly as they would have
        on the original — including CML-CU's randomised rounding draws."""
        for name in ALL_SKETCHES:
            original = replay(build(name, seed), updates)
            restored = type(original).from_bytes(original.to_bytes())
            replay(original, updates)
            replay(restored, updates)
            probe = np.arange(DIMENSION)
            assert np.array_equal(
                original.query_batch(probe), restored.query_batch(probe)
            ), name


class TestMergeAlgebra:
    @settings(max_examples=8, deadline=None)
    @given(updates=update_streams, seed=seeds)
    def test_merge_is_associative_and_commutative(self, updates, seed):
        """Shard order must not change answers: (A+B)+C == A+(B+C) == (C+B)+A.

        Meta is excluded from the comparison (``items_processed`` totals
        agree, but order-dependent bookkeeping like the streaming-ℓ2 heap
        membership may legitimately break rank ties differently; the query
        results still must not differ).
        """
        boundaries = [len(updates) // 3, 2 * len(updates) // 3]
        parts = [
            updates[: boundaries[0]],
            updates[boundaries[0]:boundaries[1]],
            updates[boundaries[1]:],
        ]
        probe = np.arange(DIMENSION)
        for name in LINEAR_SKETCHES:
            a, b, c = (replay(build(name, seed), part) for part in parts)
            left = (a + b) + c
            right = a + (b + c)
            reversed_ = (c + b) + a
            assert_states_identical(left, right, compare_meta=False)
            assert_states_identical(left, reversed_, compare_meta=False)
            assert np.array_equal(
                left.query_batch(probe), right.query_batch(probe)
            ), name
            assert np.array_equal(
                left.query_batch(probe), reversed_.query_batch(probe)
            ), name

    @settings(max_examples=8, deadline=None)
    @given(updates=update_streams, seed=seeds, shards=st.integers(2, 5))
    def test_contiguous_sharding_matches_single_sketch(self, updates, seed,
                                                       shards):
        """Merging sketches of contiguous shards equals sketching the whole
        stream — the exact invariant the sharded ingestion engine relies on."""
        indices = np.array([u[0] for u in updates], dtype=np.int64)
        deltas = np.array([u[1] for u in updates], dtype=np.float64)
        cuts = np.linspace(0, len(updates), shards + 1).astype(int)
        probe = np.arange(DIMENSION)
        for name in LINEAR_SKETCHES:
            whole = build(name, seed).update_batch(indices, deltas)
            merged = None
            for start, stop in zip(cuts[:-1], cuts[1:]):
                piece = build(name, seed).update_batch(
                    indices[start:stop], deltas[start:stop]
                )
                merged = piece if merged is None else merged.merge(piece)
            assert_states_identical(whole, merged, compare_meta=False)
            assert np.array_equal(
                whole.query_batch(probe), merged.query_batch(probe)
            ), name
