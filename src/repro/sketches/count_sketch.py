"""Count-Sketch (Charikar, Chen & Farach-Colton; Theorem 2 of the paper).

Count-Sketch multiplies every update by a per-row random sign before adding it
to its bucket, and estimates a coordinate by the median across rows of the
sign-corrected bucket values.  With ``s = Θ(k/α)`` and ``d = Θ(log n)`` it
guarantees, with probability 1 - 1/n,

    ‖x̂ - x‖∞ ≤ α/√k · Err_2^k(x)

— the ℓ∞/ℓ2 guarantee that the ℓ2 bias-aware sketch strictly improves on.
"""

from __future__ import annotations

import numpy as np

from repro.serialization import register_serializable
from repro.sketches._tables import HashedCounterTable, median_over_rows
from repro.sketches.base import LinearSketch
from repro.utils.rng import RandomSource


class CountSketch(LinearSketch):
    """The Count-Sketch linear sketch with signed buckets and median estimation."""

    name = "count_sketch"

    def __init__(
        self,
        dimension: int,
        width: int,
        depth: int,
        seed: RandomSource = None,
    ) -> None:
        super().__init__(dimension, width, depth, seed=seed)
        self._table = HashedCounterTable(
            dimension, width, depth, signed=True, seed=seed
        )
        self._tables = {"table": self._table}

    def _estimate(self, keys):
        return median_over_rows(self._table.row_estimates(keys))

    def bucket_sign_sums(self) -> np.ndarray:
        """Per-row ψ vectors (per-bucket sums of signs), used by ℓ2-S/R."""
        return self._table.column_sums().copy()


register_serializable(CountSketch)
