"""Unit tests for Count-Min with conservative update (CM-CU)."""

import numpy as np
import pytest

from repro.data.hudong import simulated_hudong
from repro.sketches import CountMin, CountMinCU, _cu_batch


class TestConservativeUpdate:
    def test_never_underestimates(self, small_count_vector):
        sketch = CountMinCU(small_count_vector.size, 32, 4, seed=1)
        sketch.fit(small_count_vector)
        assert np.all(sketch.recover() >= small_count_vector - 1e-9)

    def test_never_worse_than_plain_count_min(self, rng):
        """Conservative update tightens the Count-Min overestimate pointwise."""
        vector = rng.poisson(15.0, size=600).astype(float)
        cm = CountMin(600, 32, 4, seed=7).fit(vector)
        cu = CountMinCU(600, 32, 4, seed=7).fit(vector)
        assert np.all(cu.recover() <= cm.recover() + 1e-9)
        assert np.mean(cu.recover() - vector) < np.mean(cm.recover() - vector)

    def test_single_item_stream_is_exact(self):
        sketch = CountMinCU(100, 16, 3, seed=0)
        for _ in range(25):
            sketch.update(42, 1.0)
        assert sketch.query(42) == pytest.approx(25.0)

    def test_zero_delta_is_a_noop(self):
        sketch = CountMinCU(50, 8, 3, seed=0)
        sketch.update(1, 5.0)
        before = sketch.table.copy()
        sketch.update(2, 0.0)
        np.testing.assert_array_equal(sketch.table, before)

    def test_rejects_negative_updates(self):
        sketch = CountMinCU(50, 8, 3, seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            sketch.update(3, -1.0)

    def test_rejects_negative_vector(self):
        sketch = CountMinCU(10, 8, 2, seed=0)
        with pytest.raises(ValueError):
            sketch.fit(np.array([1.0, -2.0] + [0.0] * 8))

    def test_merge_raises_type_error(self, small_count_vector):
        """CM-CU is not linear — the library refuses to merge it.

        The refusal is the typed :class:`CapabilityError` (a ``TypeError``
        subclass, so legacy ``except TypeError`` callers keep working) and
        names the linear replacements.
        """
        from repro.api.errors import CapabilityError

        a = CountMinCU(small_count_vector.size, 32, 4, seed=1).fit(small_count_vector)
        b = CountMinCU(small_count_vector.size, 32, 4, seed=1).fit(small_count_vector)
        with pytest.raises(TypeError, match="not linear"):
            a.merge(b)
        with pytest.raises(CapabilityError, match="CountMin"):
            a.merge(b)

    def test_order_dependence_is_possible_but_estimates_stay_upper_bounds(self, rng):
        """CU is order dependent; regardless of order it never under-counts."""
        vector = rng.poisson(8.0, size=200).astype(float)
        forward = CountMinCU(200, 16, 3, seed=5)
        backward = CountMinCU(200, 16, 3, seed=5)
        nonzero = np.flatnonzero(vector)
        for index in nonzero:
            forward.update(int(index), float(vector[index]))
        for index in reversed(nonzero):
            backward.update(int(index), float(vector[index]))
        assert np.all(forward.recover() >= vector - 1e-9)
        assert np.all(backward.recover() >= vector - 1e-9)


class TestRepeatFold:
    """A key's repeated runs fold when nothing touches its cells between.

    ``H`` is a hot key; the other keys' cells are disjoint from ``H``'s and
    from each other's, so every repeat of ``H`` can fold into the first.
    """

    WIDTH, DEPTH = 64, 3

    def _keys(self, sketch, count):
        """``H`` then ``count`` keys with pairwise disjoint cells."""
        cols = sketch._table.bucket_columns(np.arange(2_000))
        chosen = [0]
        for key in range(1, cols.shape[1]):
            if all((cols[:, key] != cols[:, other]).all() for other in chosen):
                chosen.append(key)
                if len(chosen) == count + 1:
                    return chosen
        raise AssertionError("too few keys with disjoint cells")

    def _runs(self, pattern):
        """Keys for a pattern such as ``"HcHcH"`` (``c``: the next cold key)."""
        sketch = CountMinCU(2_000, self.WIDTH, self.DEPTH, seed=4)
        hot, *cold = self._keys(sketch, pattern.count("c"))
        cold = iter(cold)
        keys = np.array([hot if p == "H" else next(cold) for p in pattern])
        cells = _cu_batch.flat_cells(
            sketch._table.bucket_columns(keys), self.WIDTH
        )
        return keys, cells

    def test_a_quarter_of_the_runs_folding_is_enough(self):
        keys, cells = self._runs("HcHcHccc")   # 2 of 8 runs fold
        bounds = _cu_batch.segment_bounds(
            cells, self.WIDTH * self.DEPTH, keys, np.ones(keys.size)
        )
        assert bounds == [0, 6]

    def test_fewer_than_a_quarter_folding_keeps_every_run(self):
        keys, cells = self._runs("HcHccccc")   # 1 of 8 runs folds
        bounds = _cu_batch.segment_bounds(
            cells, self.WIDTH * self.DEPTH, keys, np.ones(keys.size)
        )
        assert bounds == [0, 2, 8]

    def test_only_the_kept_prefix_is_moved_and_applied(self):
        """``bounds[-1]`` is the kept-run count; nothing past it is read."""
        keys, cells = self._runs("HcHcHccc")
        deltas = np.arange(1.0, 9.0)
        original = cells.copy()
        folded = deltas.copy()
        bounds = _cu_batch.segment_bounds(
            cells, self.WIDTH * self.DEPTH, keys, folded
        )
        kept = bounds[-1]
        assert kept == 6
        np.testing.assert_array_equal(
            cells[:, :kept], original[:, [0, 1, 3, 5, 6, 7]]
        )
        np.testing.assert_array_equal(
            folded[:kept], [1.0 + 3.0 + 5.0, 2.0, 4.0, 6.0, 7.0, 8.0]
        )
        # poison the tail: applying past the prefix would show
        cells[:, kept:] = cells[:, :1]
        folded[kept:] = 1e9
        table = np.zeros((self.DEPTH, self.WIDTH))
        _cu_batch.apply_conservative(table, cells, folded, bounds)
        scalar = CountMinCU(2_000, self.WIDTH, self.DEPTH, seed=4)
        for key, delta in zip(keys.tolist(), deltas.tolist()):
            scalar.update(key, delta)
        np.testing.assert_array_equal(table, scalar.table)

    def test_the_fold_stays_off_on_the_figure6_stream(self, monkeypatch):
        """The CU speed gate's stream repeats keys with other runs between.

        Its chunks have 1.5-2.3% foldable runs, far under the quarter, so
        the gate replays it exactly as before the fold existed.
        """
        sources = simulated_hudong(dimension=20_000, edges=150_000,
                                   seed=66).sources
        calls = []
        original = _cu_batch.segment_bounds

        def recording(cells, *args):
            bounds = original(cells, *args)
            calls.append((cells.shape[1], bounds[-1]))
            return bounds

        monkeypatch.setattr(_cu_batch, "segment_bounds", recording)
        sketch = CountMinCU(20_000, 2_048, 9, seed=17)
        for begin in range(0, sources.size, 8_192):
            sketch.update_batch(sources[begin:begin + 8_192])
        assert len(calls) == 19
        assert all(kept == runs for runs, kept in calls)
