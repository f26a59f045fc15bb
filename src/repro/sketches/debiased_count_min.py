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


class DebiasedCountMin(LinearSketch):
    """Count-Min with the Deng-Rafiei per-bucket background subtraction."""

    name = "debiased_count_min"

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
        self._total_mass = 0.0

    @property
    def _pi(self) -> np.ndarray:
        return self._table.cached_column_sums()

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def update(self, index: int, delta: float = 1.0) -> None:
        index = self._check_index(index)
        delta = float(delta)
        self._table.add_update(index, delta)
        self._total_mass += delta
        self._items_processed += 1

    def update_batch(self, indices, deltas=None) -> "DebiasedCountMin":
        """Vectorised batch ingestion: scatter-add plus the running ‖x‖₁."""
        idx, d = self._check_batch(indices, deltas)
        self._table.add_batch(idx, d)
        self._total_mass += float(np.sum(d))
        self._items_processed += idx.size
        return self

    def fit(self, x) -> "DebiasedCountMin":
        arr = self._check_vector(x)
        self._table.add_vector(arr)
        self._total_mass += float(np.sum(arr))
        self._items_processed += int(np.count_nonzero(arr))
        return self

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def query(self, index: int) -> float:
        index = self._check_index(index)
        return float(self._estimate(index))

    def query_batch(self, indices) -> np.ndarray:
        idx, _ = self._check_batch(indices, None)
        return self._estimate(idx)

    def _estimate(self, keys) -> np.ndarray:
        """Subtract each bucket's background and median-combine, per key."""
        counters, bucket_sizes = self._table.gather(keys, self._pi)
        outside_mass = self._total_mass - counters
        outside_items = np.maximum(self.dimension - bucket_sizes, 1.0)
        background = outside_mass / outside_items * (bucket_sizes - 1.0)
        return median_over_rows(counters - background)

    # ------------------------------------------------------------------ #
    # linearity
    # ------------------------------------------------------------------ #
    def merge(self, other: "DebiasedCountMin") -> "DebiasedCountMin":
        self._check_compatible(other)
        self._table.merge_from(other._table)
        self._total_mass += other._total_mass
        self._items_processed += other._items_processed
        return self

    def scale(self, factor: float) -> "DebiasedCountMin":
        factor = float(factor)
        self._table.scale_by(factor)
        self._total_mass *= factor
        return self

    def size_in_words(self) -> int:
        # the counters plus the single running total ‖x‖_1
        return self._table.counter_count + 1

    def _state_arrays(self):
        return {"table": self._table.table}

    def _state_scalars(self):
        return {"total_mass": float(self._total_mass)}

    def bind_state_buffers(self, buffers) -> None:
        self._table.bind_buffer(buffers["table"])

    def _fold_scalars(self, scalars) -> None:
        self._total_mass += float(scalars["total_mass"])

    def _load_state_payload(self, arrays, scalars, meta) -> None:
        super()._load_state_payload(arrays, scalars, meta)
        self._table.load_table(arrays["table"])
        self._total_mass = float(scalars["total_mass"])

    @property
    def table(self) -> np.ndarray:
        """The raw ``(depth, width)`` counter table (for inspection)."""
        return self._table.table

    @property
    def total_mass(self) -> float:
        """The maintained ``‖x‖_1`` (for non-negative inputs)."""
        return self._total_mass


register_serializable(DebiasedCountMin)
