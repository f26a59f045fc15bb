"""The shared read kernel answers every point query bit for bit as before.

Every sketch kind reads through :meth:`HashedCounterTable.gather` and, for
the median kinds, :func:`median_over_rows`.  The median must equal
``np.median(values, axis=0)`` in every bit — signed zeros, infinities and
NaN lanes included — and every kind's ``query`` and ``query_batch`` must equal
the per-class kernels frozen in ``reference_query_kernels`` (for
``count_min_log_cu`` both equal its scalar ``query``), over hot keys, cold
keys beyond the 65,536-key cache, mixed batches and hashed-key mode, on
integer, float and turnstile streams.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_query_kernels as reference
from repro.api import SketchConfig
from repro.sketches._tables import DEFAULT_CACHE_BLOCK, median_over_rows
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


@pytest.mark.parametrize("depth", [1, 2, 5, 6, 9, 12])
def test_a_lane_of_signed_zeros_has_a_positive_zero_median(depth):
    values = np.full((depth, 3), -0.0)
    values[0, 1] = 0.0
    assert bits(median_over_rows(values)).tolist() == [0, 0, 0]


STREAMS = ("integer", "float", "turnstile")
CASH_REGISTER_ONLY = {"count_min_cu", "count_min_log_cu"}
HOT = DEFAULT_CACHE_BLOCK


def _cases():
    for name in available_sketches():
        modes = ["hot", "cold"] + (["hashed"] if get_spec(name).unbounded else [])
        for mode in modes:
            for stream in STREAMS:
                if stream == "turnstile" and name in CASH_REGISTER_ONLY:
                    continue
                yield name, mode, stream


def _ingested(name, mode, stream):
    """A sketch fed 3,000 updates, and the key batches to query it with.

    ``hot`` keys lie in the 65,536-key block cache; ``cold`` ones, of a
    larger bounded domain or of hashed-key mode, are hashed on demand.
    """
    rng = np.random.default_rng(sum(map(ord, name + mode + stream)))
    dimension = {"hot": 4_000, "cold": 3 * HOT, "hashed": None}[mode]
    sketch = SketchConfig(name, dimension=dimension, width=64, depth=5,
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
