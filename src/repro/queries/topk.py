"""Sketch-assisted streaming top-k tracking.

A common deployment of point-query sketches (the "frequent elements"
application of the paper's introduction): while the stream is being ingested,
maintain a small candidate set of the items with the largest *estimated*
values, so that the top-k can be reported at any time without recovering the
whole vector.

The tracker is sketch-agnostic: it forwards every update to the wrapped
sketch, re-estimates the updated item, and keeps the best ``capacity``
candidates in a dictionary (re-scoring lazily on report).  With a bias-aware
sketch the scores can optionally be measured *relative to the bias*, which
turns the tracker into a streaming outlier monitor.

Because the candidate set is maintained while streaming, the tracker also
serves as the key source for candidate-driven heavy-hitter queries on
unbounded (``dimension=None``) sketches: pass :meth:`StreamingTopK.candidates`
as the ``candidates`` of
``SketchSession.query(kind="heavy_hitters", ...)``, which cannot scan an
unbounded universe itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.sketches.base import Sketch
from repro.utils.validation import require_positive_int


@dataclass(frozen=True)
class TopKEntry:
    """One reported item."""

    index: int
    estimate: float
    score: float


class StreamingTopK:
    """Track the items with the largest estimated values while streaming.

    Parameters
    ----------
    sketch:
        Any sketch implementing ``update`` and ``query``; the tracker owns the
        ingestion path, so route all updates through :meth:`update`.
    k:
        How many items to report.
    capacity:
        How many candidates to retain between reports (default ``4·k``; a
        larger buffer makes it harder for a true top-k item to be evicted by
        a temporary overestimate of another item).
    relative_to_bias:
        When True and the sketch exposes ``estimate_bias()``, candidates are
        scored by ``estimate - bias`` (outliers above the bias).
    """

    def __init__(
        self,
        sketch: Sketch,
        k: int,
        capacity: int = None,
        relative_to_bias: bool = False,
    ) -> None:
        self.sketch = sketch
        self.k = require_positive_int(k, "k")
        if capacity is None:
            capacity = 4 * self.k
        self.capacity = require_positive_int(capacity, "capacity")
        if self.capacity < self.k:
            raise ValueError(
                f"capacity ({self.capacity}) must be >= k ({self.k})"
            )
        self.relative_to_bias = bool(relative_to_bias)
        self._candidates: Dict[int, float] = {}

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def update(self, index: int, delta: float = 1.0) -> None:
        """Forward the update to the sketch and refresh the candidate set."""
        self.sketch.update(index, delta)
        self._candidates[index] = self._score(index)
        if len(self._candidates) > self.capacity:
            self._evict()

    def update_batch(self, indices, deltas=None) -> "StreamingTopK":
        """Forward a batch through the sketch's vectorised path, then refresh.

        The batch is ingested with one :meth:`Sketch.update_batch` call and
        only the *distinct* touched keys are re-scored (one batched point
        query), so the tracker rides the same vectorised ingestion engine as
        everything else.  The candidate set it reaches is the same one the
        scalar replay would reach whenever scores are current at eviction
        time (both keep the ``capacity`` best-scoring keys).
        """
        self.sketch.update_batch(indices, deltas)
        touched = np.unique(np.asarray(indices, dtype=np.int64))
        if touched.size:
            scores = np.asarray(self.sketch.query_batch(touched), dtype=float)
            if self.relative_to_bias and hasattr(self.sketch, "estimate_bias"):
                scores = scores - float(self.sketch.estimate_bias())
            for index, score in zip(touched.tolist(), scores.tolist()):
                self._candidates[index] = score
            if len(self._candidates) > self.capacity:
                self._evict()
        return self

    def _score(self, index: int) -> float:
        estimate = self.sketch.query(index)
        if self.relative_to_bias and hasattr(self.sketch, "estimate_bias"):
            return estimate - float(self.sketch.estimate_bias())
        return estimate

    def _evict(self) -> None:
        """Drop the lowest-scoring candidates down to the capacity."""
        keep = sorted(self._candidates, key=self._candidates.get, reverse=True)
        for index in keep[self.capacity:]:
            del self._candidates[index]

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def top(self) -> List[TopKEntry]:
        """Report the current top-k candidates, re-scored against the sketch."""
        rescored = {index: self._score(index) for index in self._candidates}
        best = sorted(rescored, key=rescored.get, reverse=True)[: self.k]
        entries = []
        for index in best:
            estimate = self.sketch.query(index)
            entries.append(
                TopKEntry(index=int(index), estimate=float(estimate),
                          score=float(rescored[index]))
            )
        return entries

    def top_indices(self) -> List[int]:
        """Just the indices of the current top-k."""
        return [entry.index for entry in self.top()]

    def candidates(self) -> np.ndarray:
        """All currently tracked keys (sorted) — the ``candidates`` of a
        heavy-hitters query on an unbounded session."""
        return np.array(sorted(self._candidates), dtype=np.int64)

    @property
    def candidate_count(self) -> int:
        """Number of candidates currently retained."""
        return len(self._candidates)
