"""Count-Median sketch (Cormode & Muthukrishnan; Theorem 1 of the paper).

Count-Median keeps ``d`` rows of ``s`` unsigned bucket sums and estimates a
coordinate by the **median** of its bucket sums across rows.  With
``s = Θ(k/α)`` and ``d = Θ(log n)`` it guarantees, with probability 1 - 1/n,

    ‖x̂ - x‖∞ ≤ α/k · Err_1^k(x)

which is the ℓ∞/ℓ1 guarantee the ℓ1 bias-aware sketch strictly improves on.
Unlike Count-Min it handles negative coordinates and deletions (turnstile
streams).
"""

from __future__ import annotations

import numpy as np

from repro.serialization import register_serializable
from repro.sketches._tables import HashedCounterTable, median_over_rows
from repro.sketches.base import LinearSketch
from repro.utils.rng import RandomSource


class CountMedian(LinearSketch):
    """The Count-Median linear sketch with median-of-rows estimation."""

    name = "count_median"

    def __init__(
        self,
        dimension: int,
        width: int,
        depth: int,
        seed: RandomSource = None,
    ) -> None:
        super().__init__(dimension, width, depth, seed=seed)
        self._table = HashedCounterTable(
            dimension, width, depth, signed=False, seed=seed
        )

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def update(self, index: int, delta: float = 1.0) -> None:
        index = self._check_index(index)
        self._table.add_update(index, float(delta))
        self._items_processed += 1

    def update_batch(self, indices, deltas=None) -> "CountMedian":
        """Vectorised batch ingestion: one scatter-add per chunk."""
        idx, d = self._check_batch(indices, deltas)
        self._table.add_batch(idx, d)
        self._items_processed += idx.size
        return self

    def fit(self, x) -> "CountMedian":
        arr = self._check_vector(x)
        self._table.add_vector(arr)
        self._items_processed += int(np.count_nonzero(arr))
        return self

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, index: int) -> float:
        index = self._check_index(index)
        return float(median_over_rows(self._table.row_estimates(index)))

    def query_batch(self, indices) -> np.ndarray:
        idx, _ = self._check_batch(indices, None)
        return median_over_rows(self._table.row_estimates(idx))

    # ------------------------------------------------------------------ #
    # linearity
    # ------------------------------------------------------------------ #
    def merge(self, other: "CountMedian") -> "CountMedian":
        self._check_compatible(other)
        self._table.merge_from(other._table)
        self._items_processed += other._items_processed
        return self

    def scale(self, factor: float) -> "CountMedian":
        self._table.scale_by(float(factor))
        return self

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def size_in_words(self) -> int:
        return self._table.counter_count

    def _state_arrays(self):
        return {"table": self._table.table}

    def bind_state_buffers(self, buffers) -> None:
        self._table.bind_buffer(buffers["table"])

    def _load_state_payload(self, arrays, scalars, meta) -> None:
        super()._load_state_payload(arrays, scalars, meta)
        self._table.load_table(arrays["table"])

    @property
    def table(self) -> np.ndarray:
        """The raw ``(depth, width)`` counter table (read-mostly; for inspection)."""
        return self._table.table

    def bucket_column_sums(self) -> np.ndarray:
        """Per-row π vectors (how many coordinates hash to each bucket)."""
        return self._table.column_sums().copy()


register_serializable(CountMedian)
