"""Property tests: on-demand addressing ≡ the seed-equivalent precomputed path.

For every registered sketch the refactor's contract is checked from first
principles: walk the sketch's internal ``HashedCounterTable`` instances and
compare the on-demand bucket/sign assignments against the dense tables the
old constructor would have precomputed from the same seed (regenerated here
via the per-row ``hash_all`` / ``sign_all`` evaluators); cold keys are checked
against the exact-integer scalar ``__call__`` evaluators.
A second family re-checks that ``to_bytes``/``from_bytes`` round-trips stay
byte-stable across the refactor under arbitrary integer streams.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches._tables import HashedCounterTable
from repro.sketches.registry import available_sketches, get_spec

DIMENSION = 96
WIDTH = 16
DEPTH = 4

ALL_SKETCHES = available_sketches()

seeds = st.integers(0, 2**31 - 1)

update_streams = st.lists(
    st.tuples(st.integers(0, DIMENSION - 1), st.integers(1, 8)),
    min_size=1,
    max_size=40,
)


def _tables_of(sketch):
    """Every HashedCounterTable a sketch owns (ℓ2-S/R owns two)."""
    return [value for value in vars(sketch).values()
            if isinstance(value, HashedCounterTable)]


def _precomputed_buckets(table):
    """The dense bucket table the old constructor materialised."""
    return np.vstack([h.hash_all(table.dimension) for h in table.hashes])


def _precomputed_signs(table):
    return np.vstack(
        [r.sign_all(table.dimension) for r in table.signs]
    ).astype(np.float64)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(ALL_SKETCHES), seed=seeds)
def test_on_demand_assignments_match_precomputed(name, seed):
    sketch = get_spec(name).build(DIMENSION, WIDTH, DEPTH, seed=seed)
    tables = _tables_of(sketch)
    assert tables, f"{name} owns no counter tables"
    all_keys = np.arange(DIMENSION)
    for table in tables:
        expected = _precomputed_buckets(table)
        np.testing.assert_array_equal(
            table.bucket_columns(all_keys), expected
        )
        # the scalar path agrees too
        np.testing.assert_array_equal(table.bucket_column(7), expected[:, 7])
        if table.signed:
            expected_signs = _precomputed_signs(table)
            np.testing.assert_array_equal(
                table.sign_columns(all_keys), expected_signs
            )
            np.testing.assert_array_equal(
                table.sign_column(7), expected_signs[:, 7]
            )


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_cold_keys_match_hot_cache_assignments(seed):
    """Keys beyond the hot-key cache hash identically to cached ones."""
    table = HashedCounterTable(None, WIDTH, DEPTH, signed=True, seed=seed)
    keys = np.array([0, 1, table._cache_limit - 1, table._cache_limit,
                     table._cache_limit + 17, 2**40, 2**62])
    fused = table.bucket_columns(keys)
    per_key = np.column_stack([table.bucket_column(int(k)) for k in keys])
    np.testing.assert_array_equal(fused, per_key)
    # the exact-integer scalar evaluators are the oracle: hash_array and
    # sign_array share the fused kernel under test
    expected = np.array([[h(int(k)) for k in keys] for h in table.hashes])
    np.testing.assert_array_equal(fused, expected)
    expected_signs = np.array([[r(int(k)) for k in keys] for r in table.signs])
    np.testing.assert_array_equal(table.sign_columns(keys), expected_signs)
    np.testing.assert_array_equal(
        np.column_stack([table.sign_column(int(k)) for k in keys]),
        expected_signs,
    )


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(ALL_SKETCHES), seed=seeds, stream=update_streams)
def test_round_trips_stay_byte_stable(name, seed, stream):
    """to_bytes → from_bytes → to_bytes is the identity (PR-2 contract)."""
    sketch = get_spec(name).build(DIMENSION, WIDTH, DEPTH, seed=seed)
    for index, delta in stream:
        sketch.update(index, float(delta))
    payload = sketch.to_bytes()
    assert type(sketch).from_bytes(payload).to_bytes() == payload


@settings(max_examples=20, deadline=None)
@given(seed=seeds, stream=update_streams)
def test_column_sums_match_precomputed_structure(seed, stream):
    """Blockwise π/ψ scans equal the dense per-row bincounts bit-for-bit."""
    for signed in (False, True):
        table = HashedCounterTable(
            DIMENSION, WIDTH, DEPTH, signed=signed, seed=seed
        )
        dense = _precomputed_buckets(table)
        expected = np.zeros((DEPTH, WIDTH))
        weights = _precomputed_signs(table) if signed else None
        for row in range(DEPTH):
            expected[row] = np.bincount(
                dense[row],
                weights=None if weights is None else weights[row],
                minlength=WIDTH,
            )
        np.testing.assert_array_equal(table.column_sums(), expected)
