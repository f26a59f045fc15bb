"""Reference Bias-Heap: the four-indexed-heap formulation of Algorithm 5.

This is the Bias-Heap as the library shipped it before the rank-array
rewrite of :class:`repro.core.bias_heap.BiasHeap`: three disjoint rank sets
(bottom / middle / top) held in indexed binary heaps keyed by the total order
``(w/π, bucket)``, rebalanced by boundary swaps after each update.  It is kept
verbatim, for tests only, as the oracle the equivalence suite compares the
library's heap against bit for bit (``bias()``, ``locations`` and both middle
sums after every update).

The module sits at the root of ``tests/`` so that it imports (as
``reference_bias_heap``) whichever test directory is run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.validation import require_positive_int


class IndexedMinHeap:
    """A binary min-heap keyed by ``(key, node_id)`` with O(log n) removal by id."""

    def __init__(self) -> None:
        self._entries: List[Tuple[float, int]] = []
        self._position: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._position

    def push(self, node_id: int, key: float) -> None:
        """Insert a node; raises if the id is already present."""
        if node_id in self._position:
            raise ValueError(f"node {node_id} is already in the heap")
        self._entries.append((key, node_id))
        self._position[node_id] = len(self._entries) - 1
        self._sift_up(len(self._entries) - 1)

    def peek(self) -> Tuple[float, int]:
        """Return ``(key, node_id)`` of the minimum without removing it."""
        if not self._entries:
            raise IndexError("peek from an empty heap")
        return self._entries[0]

    def pop(self) -> Tuple[float, int]:
        """Remove and return ``(key, node_id)`` of the minimum."""
        if not self._entries:
            raise IndexError("pop from an empty heap")
        top = self._entries[0]
        self._remove_at(0)
        return top

    def remove(self, node_id: int) -> Tuple[float, int]:
        """Remove the node with the given id and return its ``(key, node_id)``."""
        position = self._position.get(node_id)
        if position is None:
            raise KeyError(f"node {node_id} is not in the heap")
        entry = self._entries[position]
        self._remove_at(position)
        return entry

    def key_of(self, node_id: int) -> float:
        """Return the key currently stored for ``node_id``."""
        position = self._position.get(node_id)
        if position is None:
            raise KeyError(f"node {node_id} is not in the heap")
        return self._entries[position][0]

    def node_ids(self) -> List[int]:
        """All node ids currently in the heap (arbitrary order)."""
        return list(self._position)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _remove_at(self, position: int) -> None:
        last = len(self._entries) - 1
        removed_id = self._entries[position][1]
        if position != last:
            self._entries[position] = self._entries[last]
            self._position[self._entries[position][1]] = position
        self._entries.pop()
        del self._position[removed_id]
        if position <= last - 1 and self._entries:
            position = min(position, len(self._entries) - 1)
            self._sift_down(position)
            self._sift_up(position)

    @staticmethod
    def _less(a: Tuple[float, int], b: Tuple[float, int]) -> bool:
        return a < b

    def _sift_up(self, position: int) -> None:
        entry = self._entries[position]
        while position > 0:
            parent = (position - 1) // 2
            if self._less(entry, self._entries[parent]):
                self._entries[position] = self._entries[parent]
                self._position[self._entries[position][1]] = position
                position = parent
            else:
                break
        self._entries[position] = entry
        self._position[entry[1]] = position

    def _sift_down(self, position: int) -> None:
        size = len(self._entries)
        entry = self._entries[position]
        while True:
            child = 2 * position + 1
            if child >= size:
                break
            right = child + 1
            if right < size and self._less(self._entries[right], self._entries[child]):
                child = right
            if self._less(self._entries[child], entry):
                self._entries[position] = self._entries[child]
                self._position[self._entries[position][1]] = position
                position = child
            else:
                break
        self._entries[position] = entry
        self._position[entry[1]] = position


class IndexedMaxHeap:
    """A max-heap built by negating keys of an :class:`IndexedMinHeap`."""

    def __init__(self) -> None:
        self._heap = IndexedMinHeap()

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._heap

    def push(self, node_id: int, key: float) -> None:
        self._heap.push(node_id, -key)

    def peek(self) -> Tuple[float, int]:
        key, node_id = self._heap.peek()
        return -key, node_id

    def pop(self) -> Tuple[float, int]:
        key, node_id = self._heap.pop()
        return -key, node_id

    def remove(self, node_id: int) -> Tuple[float, int]:
        key, removed_id = self._heap.remove(node_id)
        return -key, removed_id

    def key_of(self, node_id: int) -> float:
        return -self._heap.key_of(node_id)

    def node_ids(self) -> List[int]:
        return self._heap.node_ids()


_BOTTOM = 0
_MIDDLE = 1
_TOP = 2


class BiasHeap:
    """Streaming structure maintaining the middle-bucket average of a CM row.

    Parameters
    ----------
    bucket_counts:
        The vector π: ``π_j`` is the number of coordinates hashed into bucket
        ``j`` (the column sums of Π(g)); data-independent and fixed.
    head_size:
        The parameter ``k``; the middle window spans ``2k`` buckets.  Defaults
        to ``s // 4`` exactly as Algorithm 5, line 2 ("set k ← s/4").
    initial_w:
        Optional initial bucket sums ``w`` (e.g. when attaching a Bias-Heap to
        a sketch that already ingested data); defaults to all zeros.
    initial_locations:
        Optional per-bucket rank-set assignment (0 = bottom, 1 = middle,
        2 = top) to restore instead of re-deriving the partition by sorting.
        Used by the state protocol so a deserialized sketch answers bias
        queries exactly as the serialized one did — including payloads
        recorded by older versions whose tie handling was update-order
        dependent.  Set sizes must match the rank boundaries.
    """

    def __init__(
        self,
        bucket_counts: np.ndarray,
        head_size: Optional[int] = None,
        initial_w: Optional[np.ndarray] = None,
        initial_locations: Optional[np.ndarray] = None,
    ) -> None:
        pi = np.asarray(bucket_counts, dtype=np.float64)
        if pi.ndim != 1 or pi.size == 0:
            raise ValueError("bucket_counts must be a non-empty 1-D array")
        if np.any(pi < 0):
            raise ValueError("bucket_counts must be non-negative")
        self.buckets = pi.size
        self.pi = pi.copy()
        if head_size is None:
            head_size = max(1, self.buckets // 4)
        self.head_size = require_positive_int(head_size, "head_size")

        s = self.buckets
        self._low = max(0, s // 2 - self.head_size)
        self._high = min(s, s // 2 + self.head_size)

        #: per-bucket running sums w_j
        if initial_w is None:
            self.w = np.zeros(s, dtype=np.float64)
        else:
            initial_w = np.asarray(initial_w, dtype=np.float64)
            if initial_w.shape != pi.shape:
                raise ValueError(
                    "initial_w must have the same shape as bucket_counts"
                )
            self.w = initial_w.copy()

        # Heaps exposing the boundary elements of each rank range.  All four
        # are min-heaps over composite keys so the rank order is total:
        # the min-boundary heaps store ``(w/π, bucket)`` and the max-boundary
        # heaps store ``(-w/π, -bucket)`` (whose minimum is the rank-largest
        # element).  A total order leaves no tie for update order to break,
        # which is what keeps incremental maintenance identical to a rebuild.
        self._bottom_max = IndexedMinHeap()
        self._middle_min = IndexedMinHeap()
        self._middle_max = IndexedMinHeap()
        self._top_min = IndexedMinHeap()
        self._location = np.empty(s, dtype=np.int8)

        # running sums over the middle set
        self._middle_w_sum = 0.0
        self._middle_pi_sum = 0.0
        # global sums (used by the fallback when the middle set is all-empty)
        self._total_w_sum = float(np.sum(self.w))
        self._total_pi_sum = float(np.sum(self.pi))

        if initial_locations is None:
            self._initialise_partition()
        else:
            self._restore_partition(np.asarray(initial_locations))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _key(self, bucket: int) -> float:
        if self.pi[bucket] > 0:
            return float(self.w[bucket] / self.pi[bucket])
        return 0.0

    def _rank(self, bucket: int):
        """The bucket's position in the total rank order: ``(w/π, bucket)``."""
        return (self._key(bucket), bucket)

    def _max_rank(self, bucket: int):
        """Rank encoded for a max-boundary heap (min of this = rank-largest)."""
        return (-self._key(bucket), -bucket)

    def _initialise_partition(self) -> None:
        keys = np.array([self._key(j) for j in range(self.buckets)])
        # a stable argsort over the float keys IS the (key, bucket) total
        # order, so the initial partition is already canonical
        order = np.argsort(keys, kind="stable")
        for rank, bucket in enumerate(order):
            bucket = int(bucket)
            if rank < self._low:
                self._location[bucket] = _BOTTOM
                self._bottom_max.push(bucket, self._max_rank(bucket))
            elif rank < self._high:
                self._location[bucket] = _MIDDLE
                self._middle_min.push(bucket, self._rank(bucket))
                self._middle_max.push(bucket, self._max_rank(bucket))
                self._middle_w_sum += self.w[bucket]
                self._middle_pi_sum += self.pi[bucket]
            else:
                self._location[bucket] = _TOP
                self._top_min.push(bucket, self._rank(bucket))

    def _restore_partition(self, locations: np.ndarray) -> None:
        """Rebuild the heaps from a recorded bottom/middle/top assignment."""
        if locations.shape != (self.buckets,):
            raise ValueError(
                f"initial_locations must have shape ({self.buckets},), got "
                f"{locations.shape}"
            )
        counts = [int(np.sum(locations == loc)) for loc in (_BOTTOM, _MIDDLE, _TOP)]
        expected = [self._low, self._high - self._low, self.buckets - self._high]
        if counts != expected:
            raise ValueError(
                f"initial_locations set sizes {counts} do not match the rank "
                f"boundaries {expected}"
            )
        for bucket in range(self.buckets):
            location = int(locations[bucket])
            self._location[bucket] = location
            if location == _BOTTOM:
                self._bottom_max.push(bucket, self._max_rank(bucket))
            elif location == _MIDDLE:
                self._middle_min.push(bucket, self._rank(bucket))
                self._middle_max.push(bucket, self._max_rank(bucket))
                self._middle_w_sum += self.w[bucket]
                self._middle_pi_sum += self.pi[bucket]
            else:
                self._top_min.push(bucket, self._rank(bucket))

    @property
    def locations(self) -> np.ndarray:
        """Per-bucket rank-set assignment (0 = bottom, 1 = middle, 2 = top)."""
        return self._location.copy()

    # ------------------------------------------------------------------ #
    # streaming updates
    # ------------------------------------------------------------------ #
    def update(self, bucket: int, delta: float) -> None:
        """Apply ``w[bucket] += delta`` and restore the rank partition."""
        if not (0 <= bucket < self.buckets):
            raise IndexError(
                f"bucket must be in [0, {self.buckets}), got {bucket}"
            )
        if self.pi[bucket] <= 0:
            raise ValueError(
                f"bucket {bucket} has no coordinates hashed to it and cannot "
                "receive updates"
            )
        delta = float(delta)
        self.w[bucket] += delta
        self._total_w_sum += delta
        if self._location[bucket] == _MIDDLE:
            self._middle_w_sum += delta

        self._reposition(bucket)
        self._rebalance()

    def _reposition(self, bucket: int) -> None:
        """Refresh the heap keys of ``bucket`` within its current set."""
        location = self._location[bucket]
        if location == _BOTTOM:
            self._bottom_max.remove(bucket)
            self._bottom_max.push(bucket, self._max_rank(bucket))
        elif location == _MIDDLE:
            self._middle_min.remove(bucket)
            self._middle_max.remove(bucket)
            self._middle_min.push(bucket, self._rank(bucket))
            self._middle_max.push(bucket, self._max_rank(bucket))
        else:
            self._top_min.remove(bucket)
            self._top_min.push(bucket, self._rank(bucket))

    def _move(self, bucket: int, destination: int) -> None:
        """Move ``bucket`` from its current set into ``destination``."""
        source = self._location[bucket]
        if source == _BOTTOM:
            self._bottom_max.remove(bucket)
        elif source == _MIDDLE:
            self._middle_min.remove(bucket)
            self._middle_max.remove(bucket)
            self._middle_w_sum -= self.w[bucket]
            self._middle_pi_sum -= self.pi[bucket]
        else:
            self._top_min.remove(bucket)

        if destination == _BOTTOM:
            self._bottom_max.push(bucket, self._max_rank(bucket))
        elif destination == _MIDDLE:
            self._middle_min.push(bucket, self._rank(bucket))
            self._middle_max.push(bucket, self._max_rank(bucket))
            self._middle_w_sum += self.w[bucket]
            self._middle_pi_sum += self.pi[bucket]
        else:
            self._top_min.push(bucket, self._rank(bucket))
        self._location[bucket] = destination

    def _rebalance(self) -> None:
        """Swap boundary elements until bottom ≤ middle ≤ top in rank order."""
        # A single key change displaces at most one element, so two boundary
        # swaps suffice after an update.  Restoring a partition recorded by an
        # older version may leave several equal-key buckets on the "wrong"
        # side of a boundary under the total order, and the first update then
        # canonicalises them all — hence a guard that scales with the bucket
        # count.  Each swap removes at least one cross-set rank inversion, so
        # the loop always terminates; the guard only protects against bugs.
        for _ in range(2 * self.buckets + 8):
            swapped = False
            if len(self._bottom_max) and len(self._middle_min):
                bottom_enc, bottom_bucket = self._bottom_max.peek()
                bottom_rank = (-bottom_enc[0], -bottom_enc[1])
                middle_rank, middle_bucket = self._middle_min.peek()
                if bottom_rank > middle_rank:
                    self._move(bottom_bucket, _MIDDLE)
                    self._move(middle_bucket, _BOTTOM)
                    swapped = True
            if len(self._middle_max) and len(self._top_min):
                middle_enc, middle_bucket = self._middle_max.peek()
                middle_rank = (-middle_enc[0], -middle_enc[1])
                top_rank, top_bucket = self._top_min.peek()
                if middle_rank > top_rank:
                    self._move(middle_bucket, _TOP)
                    self._move(top_bucket, _MIDDLE)
                    swapped = True
            if not swapped:
                return
        raise RuntimeError(
            "BiasHeap failed to rebalance; this indicates an internal bug"
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def bias(self) -> float:
        """The current bias estimate: middle-bucket sum of w over sum of π."""
        if self._middle_pi_sum > 0:
            return self._middle_w_sum / self._middle_pi_sum
        if self._total_pi_sum > 0:
            return self._total_w_sum / self._total_pi_sum
        return 0.0

    def middle_buckets(self) -> np.ndarray:
        """Indices of the buckets currently in the middle rank range (sorted)."""
        return np.array(sorted(self._middle_min.node_ids()), dtype=np.int64)

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if any internal invariant is violated.

        Used by the tests and the property-based suite; O(s) so not intended
        for per-update use in production.
        """
        sizes = (len(self._bottom_max), len(self._middle_min), len(self._top_min))
        assert sizes[0] == self._low, f"bottom size {sizes[0]} != {self._low}"
        assert sizes[1] == self._high - self._low, (
            f"middle size {sizes[1]} != {self._high - self._low}"
        )
        assert sizes[2] == self.buckets - self._high, (
            f"top size {sizes[2]} != {self.buckets - self._high}"
        )
        assert len(self._middle_max) == len(self._middle_min)

        # boundary order by float key (restored legacy partitions may break
        # exact-rank ties non-canonically until the next update, so the check
        # tolerates ties rather than demanding the full composite order)
        if len(self._bottom_max) and len(self._middle_min):
            bottom_key = -self._bottom_max.peek()[0][0]
            assert bottom_key <= self._middle_min.peek()[0][0] + 1e-9
        if len(self._middle_max) and len(self._top_min):
            middle_key = -self._middle_max.peek()[0][0]
            assert middle_key <= self._top_min.peek()[0][0] + 1e-9

        middle = self._middle_min.node_ids()
        expected_w = float(np.sum(self.w[middle])) if middle else 0.0
        expected_pi = float(np.sum(self.pi[middle])) if middle else 0.0
        assert abs(expected_w - self._middle_w_sum) < 1e-6, "middle w sum drifted"
        assert abs(expected_pi - self._middle_pi_sum) < 1e-6, "middle pi sum drifted"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BiasHeap(buckets={self.buckets}, head_size={self.head_size}, "
            f"bias={self.bias():.6g})"
        )
