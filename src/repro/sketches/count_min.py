"""Count-Min sketch (Cormode & Muthukrishnan 2005).

Count-Min shares the Count-Median sketching matrix (unsigned bucket sums) but
estimates a coordinate by the **minimum** across rows.  For non-negative
vectors this never under-estimates and guarantees, with ``s = Θ(k/α)`` and
``d = Θ(log n)``,

    x_i ≤ x̂_i ≤ x_i + α/k · Err_1^k(x)    with probability 1 - 1/n.

The paper does not plot plain Count-Min (it is dominated by CM-CU) but it is
included here because CM-CU and CML-CU build on it and because it is the most
widely deployed member of the family.
"""

from __future__ import annotations

import numpy as np

from repro.serialization import register_serializable
from repro.sketches._tables import HashedCounterTable
from repro.sketches.base import LinearSketch
from repro.utils.rng import RandomSource


class CountMin(LinearSketch):
    """The Count-Min linear sketch with min-of-rows estimation."""

    name = "count_min"

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

    def update(self, index: int, delta: float = 1.0) -> None:
        index = self._check_index(index)
        self._table.add_update(index, float(delta))
        self._items_processed += 1

    def update_batch(self, indices, deltas=None) -> "CountMin":
        """Vectorised batch ingestion: one scatter-add per chunk."""
        idx, d = self._check_batch(indices, deltas)
        self._table.add_batch(idx, d)
        self._items_processed += idx.size
        return self

    def fit(self, x) -> "CountMin":
        arr = self._check_vector(x)
        if np.any(arr < 0):
            raise ValueError(
                "Count-Min requires a non-negative frequency vector; "
                "use CountMedian or CountSketch for signed data"
            )
        self._table.add_vector(arr)
        self._items_processed += int(np.count_nonzero(arr))
        return self

    def query(self, index: int) -> float:
        index = self._check_index(index)
        return float(np.min(self._table.row_estimates(index)))

    def query_batch(self, indices) -> np.ndarray:
        idx, _ = self._check_batch(indices, None)
        return np.min(self._table.row_estimates(idx), axis=0)

    def merge(self, other: "CountMin") -> "CountMin":
        self._check_compatible(other)
        self._table.merge_from(other._table)
        self._items_processed += other._items_processed
        return self

    def scale(self, factor: float) -> "CountMin":
        if factor < 0:
            raise ValueError("Count-Min state cannot be scaled by a negative factor")
        self._table.scale_by(float(factor))
        return self

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
        """The raw ``(depth, width)`` counter table (for inspection)."""
        return self._table.table


register_serializable(CountMin)
