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
        self._tables = {"table": self._table}

    def _estimate(self, keys):
        return median_over_rows(self._table.row_estimates(keys))

    def bucket_column_sums(self) -> np.ndarray:
        """Per-row π vectors (how many coordinates hash to each bucket)."""
        return self._table.column_sums().copy()


register_serializable(CountMedian)
