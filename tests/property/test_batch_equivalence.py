"""Property tests: ``update_batch`` reaches the same state as repeated ``update``.

The batched ingestion path is only usable if it is *indistinguishable* from
the paper's update-at-a-time streaming model.  For the linear sketches that
means the counter state is identical; for the conservative-update variants it
means the batch is applied with index-order semantics, which (together with a
shared RNG sequence for CML-CU) again yields identical counters.

Deltas are integer-valued so every sum is exact in floating point and the
comparisons can be bitwise; with arbitrary reals the two paths agree only up
to summation order, which is not the invariant under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SketchConfig
from repro.sketches.registry import available_sketches

DIMENSION = 96
WIDTH = 16
DEPTH = 3

#: every registered algorithm, bias-aware sketches included
ALL_ALGORITHMS = available_sketches()

#: algorithms rejecting negative increments (cash-register only)
CASH_REGISTER_ONLY = {"count_min_cu", "count_min_log_cu"}

#: state arrays compared between the two paths, where the sketch exposes them
STATE_ATTRIBUTES = ("table", "bias_buckets", "sample_values")

update_batches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=DIMENSION - 1),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=0,
    max_size=120,
)

seeds = st.integers(0, 2**31 - 1)


def _build_pair(algorithm, seed):
    scalar = SketchConfig(algorithm, dimension=DIMENSION, width=WIDTH,
                          depth=DEPTH, seed=seed).build()
    batched = SketchConfig(algorithm, dimension=DIMENSION, width=WIDTH,
                           depth=DEPTH, seed=seed).build()
    return scalar, batched


def _assert_same_state(scalar, batched):
    assert scalar.items_processed == batched.items_processed
    for attribute in STATE_ATTRIBUTES:
        if hasattr(scalar, attribute):
            np.testing.assert_array_equal(
                getattr(scalar, attribute),
                getattr(batched, attribute),
                err_msg=f"{type(scalar).__name__}.{attribute} diverged",
            )


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
@given(updates=update_batches, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_update_batch_matches_scalar_replay(algorithm, updates, seed):
    """One update_batch call equals the same updates applied one at a time."""
    scalar, batched = _build_pair(algorithm, seed)
    for index, delta in updates:
        scalar.update(index, float(delta))
    indices = np.array([index for index, _ in updates], dtype=np.int64)
    deltas = np.array([delta for _, delta in updates], dtype=np.float64)
    batched.update_batch(indices, deltas)
    _assert_same_state(scalar, batched)


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
@given(updates=update_batches, seed=seeds, chunk=st.integers(1, 17))
@settings(max_examples=15, deadline=None)
def test_chunked_batches_match_one_batch(algorithm, updates, seed, chunk):
    """Splitting a batch into ordered chunks does not change the final state."""
    whole, chunked = _build_pair(algorithm, seed)
    indices = np.array([index for index, _ in updates], dtype=np.int64)
    deltas = np.array([delta for _, delta in updates], dtype=np.float64)
    whole.update_batch(indices, deltas)
    for start in range(0, len(updates), chunk):
        chunked.update_batch(
            indices[start:start + chunk], deltas[start:start + chunk]
        )
    _assert_same_state(whole, chunked)


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
@given(updates=update_batches, seed=seeds)
@settings(max_examples=15, deadline=None)
def test_query_batch_matches_scalar_queries(algorithm, updates, seed):
    """query_batch agrees with one query() call per coordinate."""
    sketch, _ = _build_pair(algorithm, seed)
    for index, delta in updates:
        sketch.update(index, float(delta))
    queried = np.arange(0, DIMENSION, 7, dtype=np.int64)
    batched = sketch.query_batch(queried)
    scalar = np.array([sketch.query(int(i)) for i in queried])
    np.testing.assert_array_equal(batched, scalar)


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_unit_deltas_default(algorithm):
    """update_batch(indices) defaults to unit increments."""
    scalar, batched = _build_pair(algorithm, 7)
    indices = np.array([3, 5, 3, 11, 5, 3], dtype=np.int64)
    for index in indices:
        scalar.update(int(index))
    batched.update_batch(indices)
    _assert_same_state(scalar, batched)


@pytest.mark.parametrize("algorithm", sorted(CASH_REGISTER_ONLY))
def test_conservative_batch_rejects_negative_deltas(algorithm):
    sketch = SketchConfig(algorithm, dimension=DIMENSION, width=WIDTH,
                          depth=DEPTH, seed=1).build()
    with pytest.raises(ValueError):
        sketch.update_batch(np.array([1, 2]), np.array([1.0, -1.0]))


def test_batch_validation_rejects_bad_shapes():
    sketch = SketchConfig("count_min", dimension=DIMENSION, width=WIDTH,
                          depth=DEPTH, seed=1).build()
    with pytest.raises(IndexError):
        sketch.update_batch(np.array([0, DIMENSION]))
    with pytest.raises(IndexError):
        sketch.update_batch(np.array([-1]))
    with pytest.raises(ValueError):
        sketch.update_batch(np.array([[1, 2]]))
    with pytest.raises(ValueError):
        sketch.update_batch(np.array([1, 2]), np.array([1.0]))
    with pytest.raises(TypeError):
        sketch.update_batch(np.array([1.5, 2.0]))


def test_empty_batch_is_a_noop():
    for algorithm in ALL_ALGORITHMS:
        sketch = SketchConfig(algorithm, dimension=DIMENSION, width=WIDTH,
                              depth=DEPTH, seed=3).build()
        sketch.update_batch(np.array([], dtype=np.int64))
        assert sketch.items_processed == 0


def test_scalar_delta_broadcasts():
    scalar, batched = _build_pair("count_sketch", 11)
    indices = np.array([1, 4, 4, 9], dtype=np.int64)
    for index in indices:
        scalar.update(int(index), 3.0)
    batched.update_batch(indices, 3.0)
    _assert_same_state(scalar, batched)
