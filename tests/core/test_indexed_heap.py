"""Unit tests for the indexed min/max heaps backing the reference Bias-Heap."""

import pytest

from reference_bias_heap import IndexedMaxHeap, IndexedMinHeap


class TestIndexedMinHeap:
    def test_push_peek_pop_ordering(self):
        heap = IndexedMinHeap()
        for node_id, key in [(0, 5.0), (1, 1.0), (2, 3.0), (3, 4.0)]:
            heap.push(node_id, key)
        assert heap.peek() == (1.0, 1)
        assert [heap.pop()[1] for _ in range(4)] == [1, 2, 3, 0]

    def test_remove_arbitrary_node(self):
        heap = IndexedMinHeap()
        for node_id in range(10):
            heap.push(node_id, float(10 - node_id))
        heap.remove(5)
        assert 5 not in heap
        remaining = [heap.pop()[1] for _ in range(len(heap))]
        assert remaining == [9, 8, 7, 6, 4, 3, 2, 1, 0]

    def test_duplicate_push_rejected(self):
        heap = IndexedMinHeap()
        heap.push(1, 2.0)
        with pytest.raises(ValueError):
            heap.push(1, 3.0)

    def test_remove_missing_raises(self):
        heap = IndexedMinHeap()
        with pytest.raises(KeyError):
            heap.remove(3)

    def test_peek_and_pop_empty_raise(self):
        heap = IndexedMinHeap()
        with pytest.raises(IndexError):
            heap.peek()
        with pytest.raises(IndexError):
            heap.pop()

    def test_key_of(self):
        heap = IndexedMinHeap()
        heap.push(7, 3.25)
        assert heap.key_of(7) == 3.25
        with pytest.raises(KeyError):
            heap.key_of(8)

    def test_ties_broken_by_node_id(self):
        heap = IndexedMinHeap()
        heap.push(5, 1.0)
        heap.push(2, 1.0)
        heap.push(9, 1.0)
        assert [heap.pop()[1] for _ in range(3)] == [2, 5, 9]

    def test_randomised_against_sorting(self, rng):
        heap = IndexedMinHeap()
        keys = {i: float(rng.integers(0, 100)) for i in range(200)}
        for node_id, key in keys.items():
            heap.push(node_id, key)
        # remove a random subset by id
        removed = set(int(i) for i in rng.choice(200, size=60, replace=False))
        for node_id in removed:
            heap.remove(node_id)
        drained = [heap.pop() for _ in range(len(heap))]
        expected = sorted(
            (key, node_id) for node_id, key in keys.items() if node_id not in removed
        )
        assert drained == expected


class TestIndexedMaxHeap:
    def test_returns_maximum(self):
        heap = IndexedMaxHeap()
        for node_id, key in [(0, 5.0), (1, 9.0), (2, 3.0)]:
            heap.push(node_id, key)
        assert heap.peek() == (9.0, 1)
        assert heap.pop() == (9.0, 1)
        assert heap.peek() == (5.0, 0)

    def test_remove_and_key_of_preserve_sign(self):
        heap = IndexedMaxHeap()
        heap.push(4, 2.5)
        assert heap.key_of(4) == 2.5
        assert heap.remove(4) == (2.5, 4)

    def test_contains_and_len(self):
        heap = IndexedMaxHeap()
        heap.push(1, 1.0)
        heap.push(2, 2.0)
        assert 1 in heap and 3 not in heap
        assert len(heap) == 2
