"""The Bias-Heap (Algorithm 5): streaming maintenance of the ℓ2 bias estimate.

The ℓ2 recovery (Algorithm 4, line 2) needs the average of the coordinates
hashed into the middle ``2k`` of the ``s`` buckets of ``w = Π(g)x``, ordered
by per-bucket average ``w_i/π_i``.  The rank boundaries are
``low = max(0, s//2 - k)`` and ``high = min(s, s//2 + k)``, matching the
static estimator in :class:`repro.core.bias.MiddleBucketsMeanEstimator`;
ranks below ``low`` are the *bottom* set, ranks from ``high`` on the *top*.

Buckets are ranked under the total order ``(w_j/π_j, j)`` — the exact order a
stable sort of the per-bucket averages produces — so the partition is a
function of the bucket sums alone and never depends on update order.

The paper's Algorithm 5 keeps the partition in four overlapping heaps; this
implementation keeps the rank order itself, as three numpy arrays: ``order``
(rank → bucket), ``rank`` (bucket → rank) and the sorted ``(key, bucket)``
pairs.  The costs:

* **build / restore** — O(s log s) in numpy: one stable ``argsort`` of the
  keys plus a left-to-right ``cumsum`` of the middle ranks' ``w`` and ``π``;
* **update** — an O(log s) ``searchsorted`` for the bucket's new rank plus an
  O(distance) slice shift of the ranks it passes; the running sums
  ``Σ_{i∈middle} w_i`` and ``Σ_{i∈middle} π_i`` change only for the buckets
  that cross a rank boundary;
* **query** — O(1): ``bias()`` divides the two running sums.

The running sums are accumulated with the same sequence of ``+=``/``-=``
operations a boundary-swapping heap performs, so every answer is bit-for-bit
the one the four-heap formulation gives.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.utils.validation import require_positive_int

_BOTTOM = 0
_MIDDLE = 1
_TOP = 2


def _running_sum(values: np.ndarray) -> float:
    """``0.0 + v0 + v1 + ...`` accumulated left to right, as a ``+=`` loop does.

    ``np.sum`` adds pairwise and can differ in the last bit; ``cumsum`` adds
    in order.  Adding ``0.0`` last turns the ``-0.0`` an all-``-0.0`` run
    leaves into the ``0.0`` a loop starting from ``0.0`` yields.  The middle
    set is never empty (``high > low`` for every ``s ≥ 1``, ``k ≥ 1``).
    """
    return float(np.cumsum(values)[-1]) + 0.0


class BiasHeap:
    """Streaming structure maintaining the middle-bucket average of a CM row.

    The buckets are held as a rank array under the total order
    ``(w/π, bucket)``.  Building it costs O(s log s) in numpy, an
    :meth:`update` an O(log s) search plus an O(distance) rank shift, and
    :meth:`bias` O(1).

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
        2 = top) recorded by :attr:`locations`, restored by the state
        protocol.  The middle sums are taken over the recorded middle set in
        bucket-index order.  Payloads from versions whose tie handling was
        update-order dependent may record a set that differs from the
        canonical partition on ties; the heap answers from the recorded set
        until the next update re-sorts it.  Set sizes must match the rank
        boundaries.
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

        # global sums (used by the fallback when the middle set is all-empty)
        self._total_pi_sum = float(np.sum(self.pi))
        # the partition a restore recorded, while it differs from the rank order
        self._recorded: Optional[np.ndarray] = None

        if initial_locations is None:
            self._build()
        else:
            self._restore(np.asarray(initial_locations))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _sort(self) -> None:
        """Rank every bucket from scratch: ``order``, ``rank`` and sorted pairs."""
        keys = self._bucket_keys()
        # a stable argsort over the float keys IS the (key, bucket) total order
        self._order = np.argsort(keys, kind="stable")
        self._rank = np.empty(self.buckets, dtype=np.intp)
        self._rank[self._order] = np.arange(self.buckets)
        # each rank's (key, bucket) pair as ``key + bucket·j``: numpy orders
        # complex numbers lexicographically, so one searchsorted finds a rank
        self._keys = np.empty(self.buckets, dtype=np.complex128)
        self._keys.real = keys[self._order]
        self._keys.imag = self._order
        self._total_w_sum = float(np.sum(self.w))

    def _bucket_keys(self) -> np.ndarray:
        """Every bucket's average ``w/π`` (0 where ``π = 0``)."""
        keys = np.zeros(self.buckets, dtype=np.float64)
        np.divide(self.w, self.pi, out=keys, where=self.pi > 0)
        return keys

    def _build(self) -> None:
        """The canonical partition, its middle sums accumulated in rank order."""
        self._sort()
        middle = self._order[self._low:self._high]
        self._middle_w_sum = _running_sum(self.w[middle])
        self._middle_pi_sum = _running_sum(self.pi[middle])
        self._recorded = None

    def _restore(self, locations: np.ndarray) -> None:
        """Adopt a recorded bottom/middle/top assignment."""
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
        self._sort()
        middle = locations == _MIDDLE
        self._middle_w_sum = _running_sum(self.w[middle])
        self._middle_pi_sum = _running_sum(self.pi[middle])
        if not np.array_equal(locations, self.locations):
            self._recorded = locations.astype(np.int8)

    @property
    def locations(self) -> np.ndarray:
        """Per-bucket rank-set assignment (0 = bottom, 1 = middle, 2 = top)."""
        if self._recorded is not None:
            return self._recorded.copy()
        locations = np.full(self.buckets, _MIDDLE, dtype=np.int8)
        locations[self._order[:self._low]] = _BOTTOM
        locations[self._order[self._high:]] = _TOP
        return locations

    # ------------------------------------------------------------------ #
    # streaming updates
    # ------------------------------------------------------------------ #
    def update(self, bucket: int, delta: float) -> None:
        """Apply ``w[bucket] += delta`` and restore the rank partition."""
        if not (0 <= bucket < self.buckets):
            raise IndexError(
                f"bucket must be in [0, {self.buckets}), got {bucket}"
            )
        pi = float(self.pi[bucket])
        if pi <= 0:
            raise ValueError(
                f"bucket {bucket} has no coordinates hashed to it and cannot "
                "receive updates"
            )
        delta = float(delta)
        if not math.isfinite(delta):
            raise ValueError("deltas must contain only finite values")
        w = float(self.w[bucket]) + delta
        self.w[bucket] = w
        self._total_w_sum += delta
        if self._recorded is not None:
            # the first update after a non-canonical restore re-sorts
            self._build()
            return

        low, high = self._low, self._high
        order, keys, rank = self._order, self._keys, self._rank
        old = int(rank[bucket])
        if low <= old < high:
            self._middle_w_sum += delta

        # the new rank: the pairs below (key, bucket), less the bucket's own
        # old slot when its key grew
        key = w / pi
        new = int(keys.searchsorted(complex(key, bucket)))
        if new > old:
            new -= 1

        # boundary crossings, in the order boundary swaps would apply them
        if old < low:
            if new >= low:
                self._enter(bucket)
                self._leave(order[low])
                if new >= high:
                    self._leave(bucket)
                    self._enter(order[high])
        elif old < high:
            if new < low:
                self._enter(order[low - 1])
                self._leave(bucket)
            elif new >= high:
                self._leave(bucket)
                self._enter(order[high])
        elif new < high:
            self._leave(order[high - 1])
            self._enter(bucket)
            if new < low:
                self._enter(order[low - 1])
                self._leave(bucket)

        # shift the ranks between the old and the new slot by one
        if new > old:
            order[old:new] = order[old + 1:new + 1]
            keys[old:new] = keys[old + 1:new + 1]
        elif new < old:
            order[new + 1:old + 1] = order[new:old]
            keys[new + 1:old + 1] = keys[new:old]
        order[new] = bucket
        keys[new] = complex(key, bucket)
        if new != old:
            first, last = min(old, new), max(old, new) + 1
            rank[order[first:last]] = np.arange(first, last)

    def _enter(self, bucket) -> None:
        self._middle_w_sum += self.w[bucket]
        self._middle_pi_sum += self.pi[bucket]

    def _leave(self, bucket) -> None:
        self._middle_w_sum -= self.w[bucket]
        self._middle_pi_sum -= self.pi[bucket]

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
        return np.flatnonzero(self.locations == _MIDDLE).astype(np.int64)

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if any internal invariant is violated.

        Used by the tests and the property-based suite; O(s log s) so not
        intended for per-update use in production.
        """
        s = self.buckets
        order, keys = self._order, self._keys
        assert np.array_equal(np.sort(order), np.arange(s)), "order is not a permutation"
        assert np.array_equal(self._rank[order], np.arange(s)), "rank does not invert order"
        expected = self._bucket_keys()
        assert np.array_equal(keys.real, expected[order]), "sorted keys are stale"
        assert np.array_equal(keys.imag, order), "sorted keys name the wrong buckets"
        assert np.all(keys[:-1] < keys[1:]), "ranks break the (w/π, bucket) order"

        locations = self.locations
        sizes = [int(np.sum(locations == loc)) for loc in (_BOTTOM, _MIDDLE, _TOP)]
        assert sizes == [self._low, self._high - self._low, s - self._high], (
            f"set sizes {sizes} do not match the rank boundaries"
        )
        # a recorded partition may break key ties non-canonically, never order
        for below, above in ((_BOTTOM, _MIDDLE), (_MIDDLE, _TOP)):
            lower, upper = expected[locations == below], expected[locations == above]
            if lower.size and upper.size:
                assert lower.max() <= upper.min(), "rank sets overlap"

        middle = locations == _MIDDLE
        expected_w = float(np.sum(self.w[middle]))
        expected_pi = float(np.sum(self.pi[middle]))
        assert abs(expected_w - self._middle_w_sum) < 1e-6, "middle w sum drifted"
        assert abs(expected_pi - self._middle_pi_sum) < 1e-6, "middle pi sum drifted"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BiasHeap(buckets={self.buckets}, head_size={self.head_size}, "
            f"bias={self.bias():.6g})"
        )
