"""Debiased Count-Min (Deng & Rafiei 2007), the related-work comparator of [14].

Section 2 of the paper describes the earlier attempt by Deng and Rafiei to
remove bias from Count-Min: when recovering a coordinate mapped to a bucket,
estimate the "background" contribution of that bucket as the average mass of
the *other* buckets in the same row, and subtract it.  Concretely, for row
``r`` and queried coordinate ``j`` hashed to bucket ``b = h_r(j)``,

    estimate_r(j) = counter[r, b] - (‖x‖_1 - counter[r, b]) / (s - 1) · (π[r, b] - 1) / π̄

is the classical "CM with noise subtraction" estimator; the common simplified
form (and the one implemented here, following the description in the paper's
related-work section) subtracts the per-item average of the remaining mass:

    estimate_r(j) = counter[r, b] - (‖x‖_1 - counter[r, b]) / (n - π[r, b]) · (π[r, b] - 1)

i.e. the expected contribution of the π[r, b] - 1 colliding coordinates if
they behaved like an average coordinate outside the bucket.  The row
estimates are combined by the median (the estimator is no longer an upper
bound, so the min rule loses its meaning).

As the paper notes, this bias estimate is "too rough to be useful" beyond
bringing CM roughly to Count-Sketch quality — which is exactly what the
ablation benchmark shows.  It is included as an additional baseline so that
claim can be checked; it is linear (the correction is a linear function of
the counters and ``‖x‖_1``, which is itself maintained linearly).
"""

from __future__ import annotations

import numpy as np

from repro.serialization import register_serializable
from repro.sketches._tables import HashedCounterTable, median_over_rows
from repro.sketches.base import LinearSketch
from repro.utils.rng import RandomSource


class _TotalMass:
    """``‖x‖_1`` for non-negative inputs: the running sum of every delta.

    It adds an empty batch's ``0.0`` sum too, which turns a ``-0.0`` total
    (a zero total scaled by −1) into ``0.0``.
    """

    def __init__(self) -> None:
        self.value = 0.0

    def update(self, index: int, delta: float) -> None:
        self.value += delta

    def update_batch(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        self.value += float(np.sum(deltas))

    def ingest_vector(self, x: np.ndarray) -> None:
        self.value += float(np.sum(x))

    def size_in_words(self) -> int:
        return 1


class DebiasedCountMin(LinearSketch):
    """Count-Min with the Deng-Rafiei per-bucket background subtraction."""

    name = "debiased_count_min"

    #: the running total ‖x‖_1, serialized as the ``total_mass`` scalar
    _side_scalars = {"total_mass": "value"}

    def __init__(
        self,
        dimension: int,
        width: int,
        depth: int,
        seed: RandomSource = None,
    ) -> None:
        if dimension is None:
            raise ValueError(
                "DebiasedCountMin requires a bounded dimension: its "
                "background subtraction divides by the number of coordinates "
                "outside each bucket"
            )
        super().__init__(dimension, width, depth, seed=seed)
        self._table = HashedCounterTable(
            dimension, width, depth, signed=False, seed=seed
        )
        self._tables = {"table": self._table}
        self._side_state = _TotalMass()

    @property
    def _pi(self) -> np.ndarray:
        return self._table.cached_column_sums()

    @property
    def _total_mass(self) -> float:
        return self._side_state.value

    def _estimate(self, keys) -> np.ndarray:
        """Subtract each bucket's background and median-combine, per key."""
        return median_over_rows(
            self._table.row_estimates(keys, self._debiased, self._pi)
        )

    def _debiased(self, counters: np.ndarray,
                  bucket_sizes: np.ndarray) -> np.ndarray:
        """Each counter less its bucket's background, cell by cell."""
        outside_mass = self._total_mass - counters
        outside_items = np.maximum(self.dimension - bucket_sizes, 1.0)
        background = outside_mass / outside_items * (bucket_sizes - 1.0)
        return counters - background

    @property
    def total_mass(self) -> float:
        """The maintained ``‖x‖_1`` (for non-negative inputs)."""
        return self._total_mass


register_serializable(DebiasedCountMin)
