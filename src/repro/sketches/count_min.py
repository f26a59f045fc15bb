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
        self._tables = {"table": self._table}

    def _check_vector(self, x) -> np.ndarray:
        arr = super()._check_vector(x)
        if np.any(arr < 0):
            raise ValueError(
                "Count-Min requires a non-negative frequency vector; "
                "use CountMedian or CountSketch for signed data"
            )
        return arr

    def _estimate(self, keys):
        return np.min(self._table.row_estimates(keys), axis=0)

    def scale(self, factor: float) -> "CountMin":
        if factor < 0:
            raise ValueError("Count-Min state cannot be scaled by a negative factor")
        return super().scale(factor)


register_serializable(CountMin)
