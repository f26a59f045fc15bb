"""ℓ1-mean / ℓ2-mean: bias-aware sketches that use the plain mean as the bias.

Section 5.4 of the paper compares ℓ1-S/R and ℓ2-S/R with two simple
heuristics, ``ℓ1-mean`` and ``ℓ2-mean``, which subtract the mean of *all*
coordinates instead of an outlier-robust bias estimate.  The heuristics keep
the same recovery machinery (Count-Median for the ℓ1 variant, Count-Sketch
for the ℓ2 variant) but their bias estimate carries no guarantee: as the
warm-up discussion in Section 4.1 shows, a handful of extreme outliers can
drag the mean arbitrarily far from the optimal bias (this is exactly what
Figure 8c-8d demonstrates with 500 shifted entries).

Both variants are linear: the running sum of the vector is a linear function
of it, so the heuristic sketches still merge in the distributed model.
"""

from __future__ import annotations

import numpy as np

from repro.core.bias import MeanEstimator
from repro.serialization import register_serializable
from repro.sketches._tables import HashedCounterTable, median_over_rows
from repro.sketches.base import LinearSketch
from repro.utils.rng import RandomSource


class MeanBiasSketch(LinearSketch):
    """Common machinery of the mean-heuristic sketches.

    Parameters
    ----------
    dimension, width, depth, seed:
        As for the other table sketches.
    signed:
        ``True`` gives the ℓ2 variant (Count-Sketch rows), ``False`` the ℓ1
        variant (Count-Median rows).
    """

    name = "mean_bias"

    def __init__(
        self,
        dimension: int,
        width: int,
        depth: int,
        signed: bool,
        seed: RandomSource = None,
    ) -> None:
        if dimension is None:
            raise ValueError(
                "the mean-heuristic sketches require a bounded dimension: "
                "the mean of all coordinates is undefined over an unbounded "
                "universe"
            )
        super().__init__(dimension, width, depth, seed=seed)
        self.signed = bool(signed)
        self._table = HashedCounterTable(
            dimension, width, depth, signed=self.signed, seed=seed
        )
        self._bias_estimator = MeanEstimator(dimension)

    @property
    def _column_sums(self) -> np.ndarray:
        return self._table.cached_column_sums()

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def update(self, index: int, delta: float = 1.0) -> None:
        index = self._check_index(index)
        delta = float(delta)
        self._table.add_update(index, delta)
        self._bias_estimator.update(index, delta)
        self._items_processed += 1

    def update_batch(self, indices, deltas=None) -> "MeanBiasSketch":
        """Vectorised batch ingestion: scatter-add plus the running sum."""
        idx, d = self._check_batch(indices, deltas)
        self._table.add_batch(idx, d)
        self._bias_estimator.update_batch(idx, d)
        self._items_processed += idx.size
        return self

    def fit(self, x) -> "MeanBiasSketch":
        arr = self._check_vector(x)
        self._table.add_vector(arr)
        self._bias_estimator.ingest_vector(arr)
        self._items_processed += int(np.count_nonzero(arr))
        return self

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def estimate_bias(self) -> float:
        """β̂ = (running sum) / n — the plain mean of all coordinates."""
        return self._bias_estimator.current_estimate()

    def query(self, index: int) -> float:
        index = self._check_index(index)
        return float(self._estimate(index))

    def query_batch(self, indices) -> np.ndarray:
        idx, _ = self._check_batch(indices, None)
        return self._estimate(idx)

    def _estimate(self, keys) -> np.ndarray:
        """De-bias by the mean and median-combine one validated key or a batch."""
        beta = self.estimate_bias()
        values = self._table.gather(keys, self._column_sums)
        debiased = values[0] - beta * values[1]
        if self.signed:
            debiased = debiased * values[2]
        return median_over_rows(debiased) + beta

    # ------------------------------------------------------------------ #
    # linearity
    # ------------------------------------------------------------------ #
    def merge(self, other: "MeanBiasSketch") -> "MeanBiasSketch":
        self._check_compatible(other)
        if other.signed != self.signed:
            raise ValueError("cannot merge ℓ1-mean with ℓ2-mean sketches")
        self._table.merge_from(other._table)
        self._bias_estimator.merge(other._bias_estimator)
        self._items_processed += other._items_processed
        return self

    def scale(self, factor: float) -> "MeanBiasSketch":
        factor = float(factor)
        self._table.scale_by(factor)
        self._bias_estimator.scale(factor)
        return self

    def size_in_words(self) -> int:
        return self._table.counter_count + self._bias_estimator.size_in_words()

    def _config_dict(self):
        config = super()._config_dict()
        config["signed"] = self.signed
        return config

    @classmethod
    def _from_config(cls, config):
        if cls is MeanBiasSketch:
            return cls(config["dimension"], config["width"], config["depth"],
                       bool(config.get("signed")), seed=config.get("seed"))
        return cls(config["dimension"], config["width"], config["depth"],
                   seed=config.get("seed"))

    def _state_arrays(self):
        return {"table": self._table.table}

    def _state_scalars(self):
        return {"running_sum": float(self._bias_estimator._running_sum)}

    def bind_state_buffers(self, buffers) -> None:
        self._table.bind_buffer(buffers["table"])

    def _fold_scalars(self, scalars) -> None:
        self._bias_estimator._running_sum += float(scalars["running_sum"])

    def _load_state_payload(self, arrays, scalars, meta) -> None:
        super()._load_state_payload(arrays, scalars, meta)
        self._table.load_table(arrays["table"])
        self._bias_estimator._running_sum = float(scalars["running_sum"])

    @property
    def table(self) -> np.ndarray:
        """The raw ``(depth, width)`` counter table (for inspection)."""
        return self._table.table


class L1MeanSketch(MeanBiasSketch):
    """``ℓ1-mean``: Count-Median rows de-biased by the plain mean."""

    name = "l1_mean"

    def __init__(
        self,
        dimension: int,
        width: int,
        depth: int,
        seed: RandomSource = None,
    ) -> None:
        super().__init__(dimension, width, depth, signed=False, seed=seed)


class L2MeanSketch(MeanBiasSketch):
    """``ℓ2-mean``: Count-Sketch rows de-biased by the plain mean."""

    name = "l2_mean"

    def __init__(
        self,
        dimension: int,
        width: int,
        depth: int,
        seed: RandomSource = None,
    ) -> None:
        super().__init__(dimension, width, depth, signed=True, seed=seed)


register_serializable(MeanBiasSketch)
register_serializable(L1MeanSketch)
register_serializable(L2MeanSketch)
