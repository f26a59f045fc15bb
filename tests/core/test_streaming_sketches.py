"""Unit tests for the streaming variants (Section 4.4, Algorithm 6)."""

import inspect

import numpy as np
import pytest

from repro.api import SketchConfig
from repro.core import (
    BiasHeap,
    L1BiasAwareSketch,
    L2BiasAwareSketch,
    StreamingL1BiasAwareSketch,
    StreamingL2BiasAwareSketch,
)
from repro.core.streaming_l1 import _SortedValues
from repro.streaming import SlidingWindowSketch, WindowSpec


class TestStreamingL1:
    def test_bias_matches_batch_variant(self, rng):
        vector = rng.normal(40.0, 3.0, size=2_000)
        streaming = StreamingL1BiasAwareSketch(2_000, 64, 5, seed=1)
        for index, value in enumerate(vector):
            streaming.update(index, float(value))
        batch = L1BiasAwareSketch(2_000, 64, 5, seed=1).fit(vector)
        assert streaming.estimate_bias() == pytest.approx(batch.estimate_bias())

    def test_recovery_matches_batch_variant(self, small_count_vector):
        n = small_count_vector.size
        streaming = StreamingL1BiasAwareSketch(n, 64, 5, seed=2)
        for index in np.flatnonzero(small_count_vector):
            streaming.update(int(index), float(small_count_vector[index]))
        batch = L1BiasAwareSketch(n, 64, 5, seed=2).fit(small_count_vector)
        np.testing.assert_allclose(streaming.recover(), batch.recover())

    def test_bias_available_at_every_time_step(self, rng):
        """Real-time queries: the bias estimate never needs a re-scan."""
        streaming = StreamingL1BiasAwareSketch(500, 32, 3, seed=3)
        biases = []
        for index in range(500):
            streaming.update(index, float(rng.normal(10.0, 1.0)))
            if index % 100 == 0:
                biases.append(streaming.estimate_bias())
        assert len(biases) == 5
        assert biases[-1] == pytest.approx(10.0, abs=2.0)

    def test_fit_then_updates_keeps_sorted_structure_consistent(self, rng):
        vector = rng.poisson(20.0, size=300).astype(float)
        streaming = StreamingL1BiasAwareSketch(300, 32, 3, seed=4).fit(vector)
        streaming.update(5, 7.0)
        reference = L1BiasAwareSketch(300, 32, 3, seed=4).fit(vector)
        reference.update(5, 7.0)
        assert streaming.estimate_bias() == pytest.approx(reference.estimate_bias())

    def test_copy_preserves_streaming_state(self, rng):
        streaming = StreamingL1BiasAwareSketch(200, 32, 3, seed=5)
        for index in range(100):
            streaming.update(index, float(rng.normal(5.0, 1.0)))
        clone = streaming.copy()
        assert clone.estimate_bias() == pytest.approx(streaming.estimate_bias())
        clone.update(0, 1_000.0)  # further updates do not leak back
        assert streaming.query(0) != pytest.approx(clone.query(0))


class TestStreamingL2:
    def test_bias_matches_batch_variant_on_tie_free_data(self, rng):
        vector = rng.normal(60.0, 5.0, size=2_000)
        streaming = StreamingL2BiasAwareSketch(2_000, 64, 5, seed=1)
        for index, value in enumerate(vector):
            streaming.update(index, float(value))
        batch = L2BiasAwareSketch(2_000, 64, 5, seed=1).fit(vector)
        assert streaming.estimate_bias() == pytest.approx(batch.estimate_bias())

    def test_point_queries_match_batch_variant(self, rng):
        vector = rng.normal(60.0, 5.0, size=1_000)
        streaming = StreamingL2BiasAwareSketch(1_000, 64, 5, seed=2)
        for index, value in enumerate(vector):
            streaming.update(index, float(value))
        batch = L2BiasAwareSketch(1_000, 64, 5, seed=2).fit(vector)
        for index in [0, 123, 999]:
            assert streaming.query(index) == pytest.approx(batch.query(index))

    def test_heap_invariants_after_long_stream(self, rng):
        streaming = StreamingL2BiasAwareSketch(500, 32, 3, seed=3)
        for _ in range(2_000):
            streaming.update(int(rng.integers(0, 500)), float(rng.normal(3.0, 1.0)))
        streaming.bias_heap.check_invariants()

    def test_fit_rebuilds_the_heap(self, rng):
        vector = rng.normal(30.0, 2.0, size=800)
        streaming = StreamingL2BiasAwareSketch(800, 64, 5, seed=4).fit(vector)
        batch = L2BiasAwareSketch(800, 64, 5, seed=4).fit(vector)
        assert streaming.estimate_bias() == pytest.approx(batch.estimate_bias())

    def test_merge_rebuilds_the_heap(self, rng):
        x = rng.normal(30.0, 2.0, size=400)
        y = rng.normal(50.0, 2.0, size=400)
        a = StreamingL2BiasAwareSketch(400, 32, 3, seed=5).fit(x)
        b = StreamingL2BiasAwareSketch(400, 32, 3, seed=5).fit(y)
        a.merge(b)
        direct = L2BiasAwareSketch(400, 32, 3, seed=5).fit(x + y)
        assert a.estimate_bias() == pytest.approx(direct.estimate_bias())
        np.testing.assert_allclose(a.recover(), direct.recover())

    def test_update_and_query_interleaving(self, rng):
        """Algorithm 6: queries can be issued at any point in the stream."""
        streaming = StreamingL2BiasAwareSketch(300, 64, 5, seed=6)
        truth = np.zeros(300)
        for step in range(1_500):
            index = int(rng.integers(0, 300))
            streaming.update(index, 1.0)
            truth[index] += 1.0
            if step % 500 == 499:
                queried = streaming.query(index)
                assert queried == pytest.approx(truth[index], abs=10.0)


class TestBiasHeapWork:
    """How many Bias-Heaps each path of ``l2_sr_streaming`` builds.

    A restore or a ``copy()`` restores the recorded partition from
    ``heap_locations`` and builds nothing else; every bulk path rebuilds the
    heap once; a window's merged view rebuilds it once however many panes
    it folds; a scalar update moves one bucket's rank and builds nothing.
    """

    DIMENSION = 400

    @pytest.fixture
    def heap_builds(self, monkeypatch):
        """The kind of every ``BiasHeap`` construction, in call order."""
        builds = []
        original = BiasHeap.__init__
        signature = inspect.signature(original)

        def counting(heap, *args, **kwargs):
            bound = signature.bind(heap, *args, **kwargs).arguments
            if bound.get("initial_locations") is not None:
                builds.append("restore")
            elif bound.get("initial_w") is not None:
                builds.append("rebuild")
            else:
                builds.append("empty")
            original(heap, *args, **kwargs)

        monkeypatch.setattr(BiasHeap, "__init__", counting)
        return builds

    def _sketch(self, rng, seed=7):
        sketch = StreamingL2BiasAwareSketch(self.DIMENSION, 32, 3, seed=seed)
        return sketch.fit(rng.normal(20.0, 3.0, size=self.DIMENSION))

    def test_restore_and_copy_restore_the_recorded_partition(
        self, rng, heap_builds
    ):
        sketch = self._sketch(rng)
        payload = sketch.to_bytes()
        heap_builds.clear()
        StreamingL2BiasAwareSketch.from_bytes(payload)
        assert heap_builds == ["restore"]
        heap_builds.clear()
        sketch.copy()
        assert heap_builds == ["restore"]

    @pytest.mark.parametrize("path", [
        "update_batch", "fit", "merge", "scale", "fold_state",
        "bind_state_buffers",
    ])
    def test_every_bulk_path_rebuilds_once(self, rng, heap_builds, path):
        sketch = self._sketch(rng)
        peer = self._sketch(rng)
        state = peer.state_dict()
        heap_builds.clear()
        if path == "update_batch":
            sketch.update_batch(rng.integers(0, self.DIMENSION, size=50))
        elif path == "fit":
            sketch.fit(rng.normal(20.0, 3.0, size=self.DIMENSION))
        elif path == "merge":
            sketch.merge(peer)
        elif path == "scale":
            sketch.scale(0.5)
        elif path == "fold_state":
            sketch.fold_state(state["arrays"], state["scalars"],
                              state["meta"]["items_processed"])
        else:
            sketch.bind_state_buffers({
                field: np.zeros(shape)
                for field, shape in sketch.shared_state_layout()
            })
        assert heap_builds == ["rebuild"]

    def _window(self, rng, panes=16, pane_size=64):
        spec = WindowSpec(mode="sliding", panes=panes, pane_size=pane_size)
        window = SlidingWindowSketch(SketchConfig(
            "l2_sr_streaming", dimension=self.DIMENSION, width=32, depth=3,
            seed=7, window=spec,
        ))
        updates = panes * pane_size + pane_size // 2
        window.update_batch(
            rng.integers(0, self.DIMENSION, size=updates),
            rng.integers(1, 9, size=updates).astype(float),
        )
        return window

    def test_a_window_view_rebuilds_once(self, rng, heap_builds):
        """16 live panes: the copy of the oldest restores, one fold rebuilds."""
        window = self._window(rng)
        assert window.pane_count == 16
        heap_builds.clear()
        view = window.view()
        assert heap_builds == ["restore", "rebuild"]
        # the same state as merging the panes one by one
        panes = window._closed + [window._current]
        merged = panes[0].copy()
        for pane in panes[1:]:
            merged.merge(pane)
        assert view.to_bytes() == merged.to_bytes()
        keys = np.arange(self.DIMENSION)
        np.testing.assert_array_equal(
            view.query_batch(keys), merged.query_batch(keys)
        )

    def test_folding_closed_panes_rebuilds_once(self, rng, heap_builds):
        window = self._window(rng)
        before = window.view().query_batch(np.arange(self.DIMENSION))
        heap_builds.clear()
        assert window.fold_closed_panes() == 14
        assert heap_builds == ["restore", "rebuild"]
        np.testing.assert_array_equal(
            window.view().query_batch(np.arange(self.DIMENSION)), before
        )

    def test_a_scalar_update_builds_no_heap(self, rng, heap_builds):
        sketch = self._sketch(rng)
        heap_builds.clear()
        sketch.update(3, 2.5)
        assert heap_builds == []


class TestSortedSampleWork:
    """How many sorted-sample multisets each path of ``l1_sr_streaming`` sorts.

    A restore or a ``copy()`` sorts the payload's samples once, every bulk
    path re-sorts them once, and a scalar update replaces values in place.
    """

    DIMENSION = 400

    @pytest.fixture
    def sorts(self, monkeypatch):
        """One entry per ``_SortedValues`` construction."""
        builds = []
        original = _SortedValues.__init__

        def counting(multiset, values):
            builds.append(len(values))
            original(multiset, values)

        monkeypatch.setattr(_SortedValues, "__init__", counting)
        return builds

    def _sketch(self, rng, seed=7):
        sketch = StreamingL1BiasAwareSketch(self.DIMENSION, 32, 3, seed=seed)
        return sketch.fit(rng.normal(20.0, 3.0, size=self.DIMENSION))

    def test_restore_and_copy_sort_once(self, rng, sorts):
        sketch = self._sketch(rng)
        payload = sketch.to_bytes()
        sorts.clear()
        restored = StreamingL1BiasAwareSketch.from_bytes(payload)
        assert len(sorts) == 1
        assert restored.estimate_bias() == sketch.estimate_bias()
        sorts.clear()
        copied = sketch.copy()
        assert len(sorts) == 1
        assert copied.estimate_bias() == sketch.estimate_bias()

    @pytest.mark.parametrize("path", [
        "update_batch", "fit", "merge", "scale", "fold_state",
        "bind_state_buffers",
    ])
    def test_every_bulk_path_sorts_once(self, rng, sorts, path):
        sketch = self._sketch(rng)
        peer = self._sketch(rng)
        state = peer.state_dict()
        sorts.clear()
        if path == "update_batch":
            sketch.update_batch(rng.integers(0, self.DIMENSION, size=50))
        elif path == "fit":
            sketch.fit(rng.normal(20.0, 3.0, size=self.DIMENSION))
        elif path == "merge":
            sketch.merge(peer)
        elif path == "scale":
            sketch.scale(0.5)
        elif path == "fold_state":
            sketch.fold_state(state["arrays"], state["scalars"],
                              state["meta"]["items_processed"])
        else:
            sketch.bind_state_buffers({
                field: np.zeros(shape)
                for field, shape in sketch.shared_state_layout()
            })
        assert len(sorts) == 1

    def test_a_scalar_update_sorts_nothing(self, rng, sorts):
        sketch = self._sketch(rng)
        sorts.clear()
        sketch.update(3, 2.5)
        assert sorts == []
