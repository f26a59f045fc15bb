"""The shared read kernel answers every point query bit for bit as before.

Every sketch kind reads through :meth:`HashedCounterTable.row_estimates`
and, for the median kinds, :func:`median_over_rows`.  The median must equal
``np.median(values, axis=0)`` in every bit — signed zeros, infinities and
NaN lanes included — on both sides of the width at which it switches from
a partition to a selection network, and the network must select the middle
of every 0/1 column (the 0-1 principle).  Every kind's ``query`` and
``query_batch`` must equal the per-class kernels frozen in
``reference_query_kernels`` (for ``count_min_log_cu`` both equal its scalar
``query``), over hot keys, cold keys beyond the 65,536-key cache, mixed
batches and hashed-key mode, on integer, float and turnstile streams, and on
both sides of both width switches: the table's width, from which a
de-biasing rule runs once per bucket, and the network's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_query_kernels as reference
from repro.api import SketchConfig
from repro.sketches._tables import (
    DEFAULT_CACHE_BLOCK, NETWORK_KEYS_PER_COMPARATOR, NETWORK_MAX_DEPTH,
    median_network, median_over_rows,
)
from repro.sketches.registry import available_sketches, get_spec

#: lanes dominated by signed zeros, with infinities, NaNs and ties mixed in
CELLS = st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf,
                         np.nan]) | st.floats(width=64)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


@given(depth=st.integers(1, 12), keys=st.integers(0, 8), data=st.data())
@settings(max_examples=300, deadline=None)
def test_median_over_rows_is_np_median_bit_for_bit(depth, keys, data):
    cells = data.draw(st.lists(CELLS, min_size=depth * keys,
                               max_size=depth * keys))
    values = np.array(cells, dtype=np.float64).reshape(depth, keys)
    with np.errstate(invalid="ignore"):
        assert np.array_equal(bits(median_over_rows(values)),
                              bits(np.median(values, axis=0)))
        for lane in values.T:
            assert bits(median_over_rows(lane)) == bits(np.median(lane))


def network_keys(depth: int) -> int:
    """The narrowest batch whose median a selection network serves."""
    return NETWORK_KEYS_PER_COMPARATOR * len(median_network(depth))


#: the odd depths a network serves (depth 1 is its own median)
SERVED_DEPTHS = [depth for depth in range(3, NETWORK_MAX_DEPTH + 1, 2)
                 if median_network(depth)]

#: the named values of CELLS but NaN, which the test puts in one lane only:
#: a NaN anywhere in a batch sends all of it to ``np.median``
NAMED_CELLS = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf])


@given(depth=st.integers(0, NETWORK_MAX_DEPTH // 2 + 1).map(lambda k: 2 * k + 1),
       side=st.sampled_from([-1, 0, 1]), nan=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_median_over_rows_is_np_median_bit_for_bit_either_side_of_the_network(
        depth, side, nan, seed):
    # one key short of the network, at its switch, or one past it; a depth
    # past NETWORK_MAX_DEPTH (or 1) partitions at the deepest switch's width
    switch = network_keys(depth if median_network(depth) else NETWORK_MAX_DEPTH)
    rng = np.random.default_rng(seed)
    cells = np.concatenate([NAMED_CELLS, rng.normal(0.0, 2.0, 7)])
    values = rng.choice(cells, size=(depth, switch + side))
    if nan:
        values[rng.integers(depth), rng.integers(values.shape[1])] = np.nan
    with np.errstate(invalid="ignore"):
        assert np.array_equal(bits(median_over_rows(values)),
                              bits(np.median(values, axis=0)))


#: 64 of the ``2**depth`` 0/1 columns share one uint64 word per row, column
#: ``64·w + b`` in bit ``b`` of word ``w``, and column ``c`` holds the bits of
#: ``c``: so bit ``b`` of row ``r < 6`` is bit ``r`` of ``b``, and a row from
#: 6 on sets its whole word ``w`` by bit ``r − 6`` of ``w``
LOW_ROW_WORDS = [sum(1 << b for b in range(64) if b >> r & 1) for r in range(6)]
#: the word whose bit ``b`` is set when ``b`` has at least ``t`` ones
AT_LEAST_ONES = np.array([sum(1 << b for b in range(64) if b.bit_count() >= t)
                          for t in range(8)], dtype=np.uint64)
WORD_BATCH = 1 << 15


@pytest.mark.parametrize("depth", SERVED_DEPTHS)
def test_the_network_selects_the_middle_of_every_0_1_column(depth):
    """The 0-1 principle: a comparator network that selects the middle of
    every one of the ``2**depth`` 0/1 columns selects it from any input.

    The min and max of 0/1 lanes are their AND and OR, so the columns run
    64 to a word, at most :data:`WORD_BATCH` words at a time; a comparator
    writes only the results its network entry keeps, as the kernel does.  Up
    to depth 15 the columns also go through :func:`median_over_rows` as one
    float batch, repeated up to the network's width.
    """
    middle, columns = depth // 2, 1 << depth
    words = max(1, columns >> 6)
    for start in range(0, words, WORD_BATCH):
        word = np.arange(start, min(start + WORD_BATCH, words), dtype=np.uint64)
        bit = [word >> np.uint64(r) & np.uint64(1) for r in range(depth - 6)]
        rows = [np.full(word.size, LOW_ROW_WORDS[r], dtype=np.uint64)
                if r < 6 else bit[r - 6] * np.uint64(2**64 - 1)
                for r in range(depth)]
        for low, high, keep_min, keep_max in median_network(depth):
            lower, upper = rows[low] & rows[high], rows[low] | rows[high]
            if keep_min:
                rows[low] = lower
            if keep_max:
                rows[high] = upper
        ones = sum(bit, np.zeros(word.size, dtype=np.uint64)).astype(int)
        wanted = AT_LEAST_ONES[np.clip(middle + 1 - ones, 0, 7)]
        used = np.uint64((1 << min(columns, 64)) - 1)
        assert np.array_equal(rows[middle] & used, wanted & used)
    if depth <= 15:
        zero_one = (np.arange(columns) >> np.arange(depth)[:, None] & 1) * 1.0
        batch = np.tile(zero_one, -(-network_keys(depth) // columns))
        assert np.array_equal(median_over_rows(batch),
                              1.0 * (batch.sum(axis=0) > middle))


@pytest.mark.parametrize("depth", [1, 2, 5, 6, 9, 12])
@pytest.mark.parametrize("keys", [3, 4_000])
def test_a_lane_of_signed_zeros_has_a_positive_zero_median(depth, keys):
    values = np.full((depth, keys), -0.0)
    values[0, 1] = 0.0
    assert not bits(median_over_rows(values)).any()


STREAMS = ("integer", "float", "turnstile")
CASH_REGISTER_ONLY = {"count_min_cu", "count_min_log_cu"}
HOT = DEFAULT_CACHE_BLOCK
WIDTH = 64


def _cases():
    for name in available_sketches():
        modes = ["hot", "cold"] + (["hashed"] if get_spec(name).unbounded else [])
        for mode in modes:
            for stream in STREAMS:
                if stream == "turnstile" and name in CASH_REGISTER_ONLY:
                    continue
                yield name, mode, stream


def _ingested(name, mode, stream, depth=5):
    """A sketch fed 3,000 updates, and the key batches to query it with.

    ``hot`` keys lie in the 65,536-key block cache; ``cold`` ones, of a
    larger bounded domain or of hashed-key mode, are hashed on demand.
    """
    rng = np.random.default_rng(sum(map(ord, name + mode + stream)))
    dimension = {"hot": 4_000, "cold": 3 * HOT, "hashed": None}[mode]
    sketch = SketchConfig(name, dimension=dimension, width=WIDTH, depth=depth,
                          seed=17).build()
    top = 4_000 if mode == "hot" else 2**62 if mode == "hashed" else 3 * HOT
    hot = rng.integers(0, min(top, HOT), 1_500)
    cold = hot if mode == "hot" else rng.integers(HOT, top, 1_500)
    keys = np.concatenate([hot, cold])
    rng.shuffle(keys)
    if stream == "integer":
        deltas = rng.integers(1, 40, keys.size).astype(np.float64)
    elif stream == "float":
        deltas = rng.random(keys.size) * 50.0
    else:
        deltas = rng.integers(-40, 40, keys.size) * rng.random(keys.size)
    sketch.update_batch(keys, deltas)
    batches = {
        "hot": hot[:200],
        "unseen": rng.integers(0, top, 50),
        "empty": np.array([], dtype=np.int64),
    }
    if mode != "hot":
        batches["cold"] = cold[:200]
        batches["mixed"] = np.concatenate([hot[:100], cold[:100], hot[:5]])
    return sketch, batches


@pytest.mark.parametrize("name,mode,stream", list(_cases()))
def test_every_kind_answers_as_its_frozen_kernel(name, mode, stream):
    sketch, batches = _ingested(name, mode, stream)
    for label, keys in batches.items():
        assert np.array_equal(bits(sketch.query_batch(keys)),
                              bits(reference.query_batch(sketch, keys))), label
        scalar = [sketch.query(int(key)) for key in keys]
        frozen = [reference.query(sketch, int(key)) for key in keys]
        assert np.array_equal(bits(scalar), bits(frozen)), label


@pytest.mark.parametrize("name,mode,stream", list(_cases()))
def test_every_kind_answers_wide_batches_as_its_frozen_kernel(name, mode,
                                                              stream):
    """Depth 9: one key either side of the table's width, where a
    de-biasing rule starts to run per bucket, and of the network's width."""
    sketch, batches = _ingested(name, mode, stream, depth=9)
    keys = np.concatenate(list(batches.values()))
    rng = np.random.default_rng(sum(map(ord, name + mode + stream)))
    for size in (WIDTH - 1, WIDTH, network_keys(9) - 1, network_keys(9),
                 2_500):
        wide = rng.choice(keys, size)
        assert np.array_equal(bits(sketch.query_batch(wide)),
                              bits(reference.query_batch(sketch, wide))), size
