"""Property tests: segmented CU batching ≡ scalar replay.

The segmented conservative-update engine (:mod:`repro.sketches._cu_batch`)
claims more than approximate agreement: within a conflict-free segment the
min/max rule performs the *same float operations* as the scalar path, and
the CML-CU randomised-rounding draws are consumed in the scalar order, so
the batched state must be **bit-identical** to scalar replay for integer
deltas — table, ``items_processed``, and (for CML-CU) the serialised
generator state.  Float deltas are bit-identical for CML-CU too (no
coalescing); CM-CU coalesces consecutive equal indices, which changes float
summation order, so there the contract is allclose.

The geometries are chosen adversarially: tiny widths force heavy cell
collisions (down to ``width=1``, where every run is its own segment),
duplicate-heavy and sorted/reverse-sorted streams stress run coalescing and
the conflict graph, and hashed-key mode (``dimension=None``) exercises the
unbounded-universe column mapping.

CM-CU also folds a key's repeated runs when no run between them touches
the key's cells.  The folding streams below repeat a few hot keys among
keys that collide with them in some rows, and the fold and the partition
are checked against a one-run-at-a-time reference as well as against
scalar replay.
"""

import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.sketches import _cu_batch, conservative
from repro.sketches.conservative import CountMinCU
from repro.sketches.count_min_log import CountMinLogCU

DIMENSION = 96

CU_KINDS = (CountMinCU, CountMinLogCU)

#: adversarial collision pressure: width=1 collides every run, width=2/3
#: keep segments tiny, width=64 leaves most batches conflict-free
widths = st.sampled_from([1, 2, 3, 16, 64])
depths = st.integers(1, 4)
seeds = st.integers(0, 2**31 - 1)

#: integer deltas, zeros included (a zero consumes no update and no draw)
integer_updates = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=DIMENSION - 1),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=0,
    max_size=120,
)

#: float deltas mixing zeros, fractions and integer-valued floats (the
#: integer-valued ones hit the CML encode tables' fraction == 0 rows)
float_updates = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=DIMENSION - 1),
        st.one_of(
            st.just(0.0),
            st.just(1.0),
            st.floats(min_value=0.0, max_value=8.0,
                      allow_nan=False, allow_infinity=False),
        ),
    ),
    min_size=0,
    max_size=100,
)


def _pair(cls, width, depth, seed, dimension=DIMENSION):
    return (
        cls(dimension, width, depth, seed=seed),
        cls(dimension, width, depth, seed=seed),
    )


def _replay(sketch, updates):
    for index, delta in updates:
        sketch.update(index, float(delta))


def _batch(updates):
    indices = np.array([index for index, _ in updates], dtype=np.int64)
    deltas = np.array([delta for _, delta in updates], dtype=np.float64)
    return indices, deltas


def _assert_identical(scalar, batched):
    assert scalar.items_processed == batched.items_processed
    np.testing.assert_array_equal(scalar.table, batched.table)
    if isinstance(scalar, CountMinLogCU):
        assert (
            scalar._rng.bit_generator.state == batched._rng.bit_generator.state
        ), "randomised-rounding draw sequences diverged"


# --------------------------------------------------------------------------- #
# bit-identity for integer deltas, under collision pressure
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("cls", CU_KINDS)
@given(updates=integer_updates, width=widths, depth=depths, seed=seeds)
@settings(max_examples=30, deadline=None)
def test_integer_deltas_bit_identical(cls, updates, width, depth, seed):
    scalar, batched = _pair(cls, width, depth, seed)
    _replay(scalar, updates)
    indices, deltas = _batch(updates)
    batched.update_batch(indices, deltas)
    _assert_identical(scalar, batched)


@pytest.mark.parametrize("cls", CU_KINDS)
@given(updates=integer_updates, width=widths, depth=depths, seed=seeds,
       chunk=st.integers(1, 13))
@settings(max_examples=15, deadline=None)
def test_chunk_boundaries_do_not_matter(cls, updates, width, depth, seed, chunk):
    """Segment boundaries only ever *add* at chunk edges; state is unchanged."""
    whole, chunked = _pair(cls, width, depth, seed)
    indices, deltas = _batch(updates)
    whole.update_batch(indices, deltas)
    for start in range(0, indices.size, chunk):
        chunked.update_batch(
            indices[start:start + chunk], deltas[start:start + chunk]
        )
    _assert_identical(whole, chunked)


# --------------------------------------------------------------------------- #
# float deltas: CML-CU stays bit-identical (no coalescing); CM-CU coalesces
# consecutive equal indices, so float summation order changes → allclose
# --------------------------------------------------------------------------- #
@given(updates=float_updates, width=widths, depth=depths, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_cm_cu_float_deltas_allclose(updates, width, depth, seed):
    scalar, batched = _pair(CountMinCU, width, depth, seed)
    _replay(scalar, updates)
    indices, deltas = _batch(updates)
    batched.update_batch(indices, deltas)
    assert scalar.items_processed == batched.items_processed
    np.testing.assert_allclose(scalar.table, batched.table, rtol=1e-12, atol=0)


@given(updates=float_updates, width=widths, depth=depths, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_cml_cu_float_deltas_bit_identical(updates, width, depth, seed):
    scalar, batched = _pair(CountMinLogCU, width, depth, seed)
    _replay(scalar, updates)
    indices, deltas = _batch(updates)
    batched.update_batch(indices, deltas)
    _assert_identical(scalar, batched)


# --------------------------------------------------------------------------- #
# adversarial stream shapes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("cls", CU_KINDS)
@pytest.mark.parametrize("order", ["sorted", "reversed"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_sorted_duplicate_heavy_streams(cls, order, data):
    """Sorted/reverse-sorted duplicate-heavy streams (maximal coalescing)."""
    seed = data.draw(seeds)
    width = data.draw(widths)
    raw = data.draw(
        st.lists(st.integers(0, 7), min_size=1, max_size=150)
    )
    keys = sorted(raw, reverse=(order == "reversed"))
    scalar, batched = _pair(cls, width, 3, seed)
    for key in keys:
        scalar.update(key, 2.0)
    batched.update_batch(np.array(keys, dtype=np.int64), 2.0)
    _assert_identical(scalar, batched)


@pytest.mark.parametrize("cls", CU_KINDS)
@given(keys=st.lists(st.integers(0, 2**40), min_size=0, max_size=100),
       width=widths, seed=seeds)
@settings(max_examples=20, deadline=None)
def test_hashed_key_mode_bit_identical(cls, keys, width, seed):
    """dimension=None: arbitrary 64-bit keys through the hashed column map."""
    scalar, batched = _pair(cls, width, 3, seed, dimension=None)
    for key in keys:
        scalar.update(key)
    batched.update_batch(np.array(keys, dtype=np.int64))
    _assert_identical(scalar, batched)


@pytest.mark.parametrize("cls", CU_KINDS)
@given(updates=integer_updates, seed=seeds)
@settings(max_examples=15, deadline=None)
def test_fit_matches_scalar_weighted_replay(cls, updates, seed):
    """fit() replays non-zero coordinates in index order, bit-identically."""
    vector = np.zeros(DIMENSION)
    for index, delta in updates:
        vector[index] += delta
    scalar, batched = _pair(cls, 16, 3, seed)
    for index in np.flatnonzero(vector):
        scalar.update(int(index), float(vector[index]))
    batched.fit(vector)
    _assert_identical(scalar, batched)


# --------------------------------------------------------------------------- #
# the degenerate case: every run collides, segments shrink to one run each
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("cls", CU_KINDS)
def test_all_collide_degenerate_case(cls):
    """width=1 sends every run to the same cells: segment size 1.

    Correctness must hold (each one-run segment performs exactly the scalar
    arithmetic), and the batch path must not regress to worse than the old
    per-run chunked loop — whose cost the scalar replay bounds from below.
    """
    rng = np.random.default_rng(5)
    indices = rng.integers(0, DIMENSION, size=5000)
    # distinct consecutive indices so run coalescing cannot shrink the batch
    indices[1:][indices[1:] == indices[:-1]] += 1
    indices %= DIMENSION
    deltas = rng.integers(1, 4, size=indices.size).astype(np.float64)

    scalar, batched = _pair(cls, 1, 3, seed=99)
    start = time.perf_counter()
    for index, delta in zip(indices.tolist(), deltas.tolist()):
        scalar.update(index, delta)
    scalar_time = time.perf_counter() - start

    cells = _cu_batch.flat_cells(
        batched._table.bucket_columns(indices), batched.width
    )
    bounds = _cu_batch.segment_bounds(cells, batched.width * batched.depth)
    assert bounds == list(range(indices.size + 1)), (
        "every run shares its cells, so every segment must hold one run"
    )

    start = time.perf_counter()
    batched.update_batch(indices, deltas)
    batch_time = time.perf_counter() - start

    _assert_identical(scalar, batched)
    # generous bound: both paths degrade to one python iteration per run
    assert batch_time <= scalar_time * 3.0 + 0.05, (
        f"degenerate batch path took {batch_time:.3f}s vs scalar "
        f"{scalar_time:.3f}s"
    )


@pytest.mark.parametrize("cls", CU_KINDS)
def test_zero_deltas_are_skipped_exactly(cls):
    """Zeros consume no update count and (for CML-CU) no RNG draw."""
    scalar, batched = _pair(cls, 16, 3, seed=21)
    indices = np.arange(12, dtype=np.int64) % 5
    deltas = np.where(np.arange(12) % 3 == 0, 0.0, 1.0)
    for index, delta in zip(indices.tolist(), deltas.tolist()):
        scalar.update(int(index), delta)
    batched.update_batch(indices, deltas)
    _assert_identical(scalar, batched)
    assert batched.items_processed == int(np.count_nonzero(deltas))


# --------------------------------------------------------------------------- #
# CM-CU folds a key's repeated runs; CML-CU never does
# --------------------------------------------------------------------------- #
#: the hot keys of the folding streams, and the same in hashed-key mode
HOT = (3, 7, 11)
HOT_HASHED = (2**40 + 3, 2**52 + 7, 2**62 + 11)

#: every width from the all-collide case to the benchmark's; the widths
#: where runs fold most come first, as hypothesis favours early entries
fold_widths = st.sampled_from([64, 512, 2048, 16, 3, 2, 1])


def _folding_updates(hot, deltas):
    """Two updates in three hit a few hot keys, the rest any key."""
    hot_keys = st.sampled_from(hot)
    any_key = st.integers(0, DIMENSION - 1 if hot == HOT else 2**63 - 1)
    return st.lists(
        st.tuples(st.one_of(hot_keys, hot_keys, any_key), deltas),
        min_size=6, max_size=120,
    )


@contextmanager
def _recorded_bounds():
    """``(runs, kept runs)`` of every ``segment_bounds`` call, in order."""
    calls = []
    original = _cu_batch.segment_bounds

    def recording(cells, *args, **kwargs):
        bounds = original(cells, *args, **kwargs)
        calls.append((cells.shape[1], bounds[-1]))
        return bounds

    with mock.patch.object(_cu_batch, "segment_bounds", recording):
        yield calls


def _note_folds(calls):
    if any(kept < runs for runs, kept in calls):
        event("folded")


def _reference_segments(cells, keys, deltas):
    """The fold and the greedy partition, one run at a time.

    Each run's latest conflict is found by stamping its cells; a run whose
    latest conflict has its key adds its delta to that run's chain head.
    Returns the bounds, the kept runs' cells and the chain sums.
    """
    n_runs = cells.shape[1]
    footprints = [set(cells[:, j].tolist()) for j in range(n_runs)]
    latest, head, folds = {}, list(range(n_runs)), 0
    for j in range(n_runs):
        prev = max((latest[c] for c in footprints[j] if c in latest),
                   default=-1)
        if prev >= 0 and keys[prev] == keys[j]:
            head[j] = head[prev]
            folds += 1
        for c in footprints[j]:
            latest[c] = j
    if 4 * folds < n_runs:
        kept, sums = list(range(n_runs)), list(deltas)
    else:
        total = {}
        for j in range(n_runs):
            total[head[j]] = total.get(head[j], 0.0) + deltas[j]
        kept = [j for j in range(n_runs) if head[j] == j]
        sums = [total[j] for j in kept]
    bounds, stamped = [0], set()
    for position, j in enumerate(kept):
        if stamped & footprints[j]:
            bounds.append(position)
            stamped = set()
        stamped |= footprints[j]
    bounds.append(len(kept))
    return bounds, cells[:, kept], np.array(sums, dtype=np.float64)


def _cells_of(sketch, keys):
    return _cu_batch.flat_cells(
        sketch._table.bucket_columns(np.asarray(keys, dtype=np.int64)),
        sketch.width,
    )


@given(updates=_folding_updates(HOT, st.integers(0, 4)), width=fold_widths,
       depth=depths, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_cm_cu_folding_streams_bit_identical(updates, width, depth, seed):
    """Hot-key repeats, collisions and zero deltas: still scalar replay."""
    scalar, batched = _pair(CountMinCU, width, depth, seed)
    _replay(scalar, updates)
    with _recorded_bounds() as calls:
        batched.update_batch(*_batch(updates))
    _note_folds(calls)
    _assert_identical(scalar, batched)


@given(updates=_folding_updates(HOT, st.integers(1, 4)), width=fold_widths,
       seed=seeds, block=st.integers(1, 9), split=st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_cm_cu_folding_across_chunk_boundaries(updates, width, seed, block,
                                               split):
    """Folds stay inside a chunk, of the flush or of the caller's batches."""
    scalar, batched = _pair(CountMinCU, width, 3, seed)
    _replay(scalar, updates)
    indices, deltas = _batch(updates)
    with mock.patch.object(conservative, "SCAN_BLOCK", block), \
            _recorded_bounds() as calls:
        for start in range(0, indices.size, split):
            batched.update_batch(indices[start:start + split],
                                 deltas[start:start + split])
    _note_folds(calls)
    _assert_identical(scalar, batched)


@given(updates=_folding_updates(HOT_HASHED, st.integers(0, 4)),
       width=fold_widths, seed=seeds)
@settings(max_examples=30, deadline=None)
def test_cm_cu_folding_hashed_keys(updates, width, seed):
    scalar, batched = _pair(CountMinCU, width, 3, seed, dimension=None)
    _replay(scalar, updates)
    with _recorded_bounds() as calls:
        batched.update_batch(*_batch(updates))
    _note_folds(calls)
    _assert_identical(scalar, batched)


@given(updates=_folding_updates(HOT, st.floats(0.0, 8.0, allow_nan=False,
                                              allow_infinity=False)),
       width=fold_widths, depth=depths, seed=seeds)
@settings(max_examples=30, deadline=None)
def test_cm_cu_folding_float_deltas_allclose(updates, width, depth, seed):
    """A folded chain sums its deltas first, as coalescing does."""
    scalar, batched = _pair(CountMinCU, width, depth, seed)
    _replay(scalar, updates)
    with _recorded_bounds() as calls:
        batched.update_batch(*_batch(updates))
    _note_folds(calls)
    assert scalar.items_processed == batched.items_processed
    np.testing.assert_allclose(scalar.table, batched.table, rtol=1e-12, atol=0)


@given(keys=st.lists(st.one_of(st.sampled_from(HOT), st.integers(0, 40)),
                     min_size=2, max_size=80),
       data=st.data(), width=fold_widths, depth=depths, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_segment_bounds_matches_the_reference_fold(keys, data, width, depth,
                                                   seed):
    """Bounds, kept cells and chain sums equal the one-run-at-a-time fold."""
    deltas = np.array(
        data.draw(st.lists(st.integers(1, 6), min_size=len(keys),
                           max_size=len(keys))),
        dtype=np.float64,
    )
    keys = np.array(keys, dtype=np.int64)
    cells = _cells_of(CountMinCU(DIMENSION, width, depth, seed=seed), keys)
    expected, kept_cells, sums = _reference_segments(cells, keys, deltas)
    folded_cells, folded_deltas = cells.copy(order="F"), deltas.copy()
    bounds = _cu_batch.segment_bounds(
        folded_cells, width * depth, keys, folded_deltas
    )
    kept = bounds[-1]
    if kept < keys.size:
        event("folded")
    assert bounds == expected
    np.testing.assert_array_equal(folded_cells[:, :kept], kept_cells)
    np.testing.assert_array_equal(folded_deltas[:kept], sums)


def _find_key(cols, want, start):
    """The first key from ``start`` whose bucket columns satisfy ``want``."""
    for key in range(start, cols.shape[1]):
        if want(cols[:, key]):
            return key
    raise AssertionError("no key in range has the wanted bucket columns")


def _disjoint(*others):
    return lambda c: all((c != other).all() for other in others)


def _check_remap(sketch, keys, expected):
    """Bounds as expected and as the reference's, and scalar replay."""
    deltas = np.arange(1.0, keys.size + 1.0)
    cells = _cells_of(sketch, keys)
    table_cells = sketch.width * sketch.depth
    bounds = _cu_batch.segment_bounds(
        cells.copy(order="F"), table_cells, keys, deltas.copy()
    )
    assert bounds == expected
    assert bounds == _reference_segments(cells, keys, deltas)[0]
    scalar = CountMinCU(sketch.dimension, sketch.width, sketch.depth,
                        seed=sketch.seed)
    _replay(scalar, zip(keys.tolist(), deltas.tolist()))
    sketch.update_batch(keys, deltas)
    _assert_identical(scalar, sketch)


def test_a_remapped_run_keeps_its_conflict_with_another_kept_run():
    """The remap takes the latest of all a run's kept conflicts.

    The runs are ``U A V X A Z A Y``.  ``A`` repeats with nothing on its
    cells between, so runs 4 and 6 fold into run 1 (2 of 8 runs, the
    quarter rule's minimum).  ``Y`` shares ``A``'s row-0 cell and ``X``'s
    row-1 cell, so its latest conflict is the folded run 6; among the kept
    runs its latest conflict is ``X``, not the chain head ``A``.  ``V``
    collides with ``U``, so a segment starts at ``V``; with ``A`` as ``Y``'s
    latest conflict, ``Y`` would join ``X`` in that segment.
    """
    sketch = CountMinCU(4_096, 8, 2, seed=3)
    cols = sketch._table.bucket_columns(np.arange(4_096))
    a = cols[:, 0]
    u = _find_key(cols, _disjoint(a), 1)
    v = _find_key(cols, lambda c: (c == cols[:, u]).any()
                  and _disjoint(a)(c), u + 1)
    x = _find_key(cols, _disjoint(a, cols[:, u], cols[:, v]), v + 1)
    z = _find_key(cols, _disjoint(a, cols[:, u], cols[:, v], cols[:, x]),
                  x + 1)
    y = _find_key(cols, lambda c: c[0] == a[0] and c[1] == cols[1, x]
                  and _disjoint(cols[:, z])(c), z + 1)
    keys = np.array([u, 0, v, x, 0, z, 0, y], dtype=np.int64)
    _check_remap(sketch, keys, [0, 2, 5, 6])


def test_a_remapped_run_joins_the_open_segment():
    """A run whose only kept conflict is a chain head before the segment.

    The runs are ``U A B V W A B Y``; runs 5 and 6 fold into runs 1 and 2.
    ``V`` collides with ``U``, so a segment starts at ``V``.  ``Y`` shares
    a cell with ``A`` only, so its latest kept conflict is run 1, before
    that segment, and ``Y`` joins it.  Taking the latest kept run before
    the folded run 5 instead (``W``) would cut the segment at ``Y``.
    """
    sketch = CountMinCU(4_096, 8, 2, seed=3)
    cols = sketch._table.bucket_columns(np.arange(4_096))
    a = cols[:, 0]
    u = _find_key(cols, _disjoint(a), 1)
    b = _find_key(cols, _disjoint(a, cols[:, u]), u + 1)
    v = _find_key(cols, lambda c: (c == cols[:, u]).any()
                  and _disjoint(a, cols[:, b])(c), b + 1)
    w = _find_key(cols, _disjoint(a, cols[:, u], cols[:, b], cols[:, v]),
                  v + 1)
    y = _find_key(cols, lambda c: (c == a).any() and _disjoint(
        cols[:, u], cols[:, b], cols[:, v], cols[:, w])(c), w + 1)
    keys = np.array([u, 0, b, v, w, 0, b, y], dtype=np.int64)
    _check_remap(sketch, keys, [0, 3, 6])


@pytest.mark.parametrize("width", [1, 2, 16, 128, 2048])
@pytest.mark.parametrize("depth", [1, 4])
def test_zipf_repeats_among_colliding_keys(width, depth):
    """Zipf-weighted hot keys, keys sharing some of their cells, cold keys."""
    rng = np.random.default_rng(width * 10 + depth)
    universe = 50_000
    scalar, batched = _pair(CountMinCU, width, depth, 41, dimension=universe)
    cols = batched._table.bucket_columns(np.arange(universe))
    hot = np.arange(6)
    shares = (cols[:, None, 6:] == cols[:, hot, None]).any(axis=0)
    whole = (cols[:, None, 6:] == cols[:, hot, None]).all(axis=0)
    colliders = 6 + np.flatnonzero((shares & ~whole).any(axis=0))[:200]
    size = 3_000
    weights = 1.0 / np.arange(1, hot.size + 1) ** 1.2
    indices = np.where(
        rng.random(size) < 0.6,
        rng.choice(hot, size, p=weights / weights.sum()),
        np.where(rng.random(size) < 0.5,
                 rng.choice(colliders, size) if colliders.size else 6,
                 rng.integers(6, universe, size)),
    )
    deltas = rng.integers(0, 4, size).astype(np.float64)
    _replay(scalar, zip(indices.tolist(), deltas.tolist()))
    with _recorded_bounds() as calls:
        batched.update_batch(indices, deltas)
    _assert_identical(scalar, batched)
    (runs, kept), = calls
    if width >= 128:
        # few keys touch a hot key's cells between its runs
        assert kept < runs


@given(updates=_folding_updates(HOT, st.integers(0, 4)), width=fold_widths,
       seed=seeds)
@settings(max_examples=25, deadline=None)
def test_cml_cu_never_folds(updates, width, seed):
    """Its draws follow each update, so its segments never take keys."""
    scalar, batched = _pair(CountMinLogCU, width, 3, seed)
    _replay(scalar, updates)
    original = _cu_batch.segment_bounds

    def keyless(cells, *args, **kwargs):
        assert len(args) == 1 and not kwargs, "CML-CU passed keys"
        return original(cells, *args)

    with mock.patch.object(_cu_batch, "segment_bounds", keyless):
        batched.update_batch(*_batch(updates))
    _assert_identical(scalar, batched)
    assert batched.to_bytes() == scalar.to_bytes()
