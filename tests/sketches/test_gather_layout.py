"""Bucket and sign columns are C-ordered, and ``add_batch`` is unchanged.

``HashedCounterTable._gather`` serves hot keys with one ``take`` along the key
axis of the block cache, so ``bucket_columns``/``sign_columns`` come back
C-ordered on every path: hot (the cache), cold (``hash_matrix``), mixed (one
``np.empty``) and empty.  ``add_batch`` still hands ``np.bincount`` the same
cells and weights in the same logical order, so its counters must equal, bit
for bit, those of the ``add_batch`` frozen below, which served hot keys with
``cache[:, keys]`` fancy indexing (an F-ordered copy).
"""

import numpy as np
import pytest

from repro.hashing.families import hash_matrix
from repro.hashing.signs import sign_matrix
from repro.sketches import _cu_batch
from repro.sketches._tables import DEFAULT_CACHE_BLOCK, HashedCounterTable
from repro.sketches.base import SCAN_BLOCK

WIDTH, DEPTH, SEED = 512, 7, 41

#: a bounded universe four cache blocks wide, so batches can mix hot and cold
DIMENSION = 4 * DEFAULT_CACHE_BLOCK

KINDS = ("hot", "cold", "mixed", "empty")


def _keys(kind: str, size: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "hot":
        return rng.integers(0, DEFAULT_CACHE_BLOCK, size)
    if kind == "cold":
        return rng.integers(DEFAULT_CACHE_BLOCK, DIMENSION, size)
    if kind == "mixed":
        return rng.integers(0, DIMENSION, size)
    return np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------- #
# the add_batch of the F-ordered hot-key gather, frozen
# ---------------------------------------------------------------------- #
def _frozen_gather(table, indices, cache_name, evaluate, dtype):
    indices = table._checked_keys(indices)
    if indices.size == 0:
        return np.empty((table.depth, 0), dtype=dtype)
    cold = indices >= table._cache_limit
    if not cold.any():
        table._ensure_hot_cache()
        return getattr(table, cache_name)[:, indices]
    if cold.all():
        return evaluate(indices)
    table._ensure_hot_cache()
    out = np.empty((table.depth, indices.size), dtype=dtype)
    hot = ~cold
    out[:, hot] = getattr(table, cache_name)[:, indices[hot]]
    out[:, cold] = evaluate(indices[cold])
    return out


def frozen_add_batch(table, indices, deltas) -> None:
    indices = np.asarray(indices)
    if indices.size == 0:
        return
    deltas = np.broadcast_to(deltas, indices.shape)
    for start in range(0, indices.size, SCAN_BLOCK):
        stop = start + SCAN_BLOCK
        chunk = indices[start:stop]
        cols = _frozen_gather(
            table, chunk, "_bucket_cache",
            lambda keys: hash_matrix(table.hashes, keys), np.int64,
        )
        if table.signed:
            signs = _frozen_gather(
                table, chunk, "_sign_cache",
                lambda keys: sign_matrix(table.signs, keys).astype(np.float64),
                np.float64,
            )
            weights = deltas[start:stop] * signs
        else:
            weights = np.broadcast_to(deltas[start:stop], cols.shape)
        flat = cols + table._row_offsets
        table.table += np.bincount(
            flat.ravel(), weights=weights.ravel(),
            minlength=table.table.size,
        ).reshape(table.depth, table.width)


# ---------------------------------------------------------------------- #
# layout
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_columns_are_c_ordered_and_equal_the_cache(signed, kind):
    table = HashedCounterTable(DIMENSION, WIDTH, DEPTH, signed=signed,
                               seed=SEED)
    keys = _keys(kind, 600)
    served = [(table.bucket_columns(keys), "_bucket_cache", table.bucket_column)]
    if signed:
        served.append((table.sign_columns(keys), "_sign_cache",
                       table.sign_column))
    table._ensure_hot_cache()
    hot = keys < DEFAULT_CACHE_BLOCK
    for columns, cache_name, scalar in served:
        assert columns.shape == (DEPTH, keys.size)
        assert columns.flags.c_contiguous
        np.testing.assert_array_equal(
            columns[:, hot], getattr(table, cache_name)[:, keys[hot]]
        )
        expected_cold = np.array(
            [scalar(int(key)) for key in keys[~hot]]
        ).reshape(-1, DEPTH).T
        np.testing.assert_array_equal(columns[:, ~hot], expected_cold)


def test_cu_flat_cells_keep_each_run_contiguous():
    """The CU engine reads its cells run by run: F order, whatever came in."""
    table = HashedCounterTable(DIMENSION, WIDTH, DEPTH, seed=SEED)
    for kind in ("hot", "cold", "mixed"):
        columns = table.bucket_columns(_keys(kind, 300))
        cells = _cu_batch.flat_cells(columns, WIDTH)
        assert cells.flags.f_contiguous
        np.testing.assert_array_equal(cells, columns + table._row_offsets)


# ---------------------------------------------------------------------- #
# add_batch, bit for bit
# ---------------------------------------------------------------------- #
def _deltas(kind: str, size: int):
    rng = np.random.default_rng(5)
    if kind == "integer":
        return rng.integers(-4, 9, size).astype(np.float64)
    if kind == "float":
        return rng.normal(0.0, 10.0, size)
    return 2.5  # one scalar broadcast over the batch


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("deltas", ["integer", "float", "scalar"])
@pytest.mark.parametrize("kind", ["hot", "cold", "mixed"])
def test_add_batch_equals_the_frozen_gather_bit_for_bit(signed, deltas, kind):
    # longer than one scan block, so the last chunk is a partial one
    size = SCAN_BLOCK + 4_321
    keys, values = _keys(kind, size, seed=3), _deltas(deltas, size)
    table = HashedCounterTable(DIMENSION, WIDTH, DEPTH, signed=signed,
                               seed=SEED)
    frozen = HashedCounterTable(DIMENSION, WIDTH, DEPTH, signed=signed,
                                seed=SEED)
    for _ in range(2):
        table.add_batch(keys, values)
        frozen_add_batch(frozen, keys, values)
    assert np.array_equal(table.table.view(np.int64),
                          frozen.table.view(np.int64))
