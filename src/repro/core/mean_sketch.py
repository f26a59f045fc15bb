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

    #: the running sum of the vector, serialized as the ``running_sum`` scalar
    _side_scalars = {"running_sum": "_running_sum"}

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
        self._tables = {"table": self._table}
        self._bias_estimator = MeanEstimator(dimension)
        self._side_state = self._bias_estimator

    @property
    def _column_sums(self) -> np.ndarray:
        return self._table.cached_column_sums()

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def estimate_bias(self) -> float:
        """β̂ = (running sum) / n — the plain mean of all coordinates."""
        return self._bias_estimator.current_estimate()

    def _estimate(self, keys) -> np.ndarray:
        """De-bias by the mean and median-combine one validated key or a batch."""
        beta = self.estimate_bias()
        debiased = self._table.row_estimates(
            keys, lambda counters, sums: counters - beta * sums,
            self._column_sums,
        )
        return median_over_rows(debiased) + beta

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    def _check_compatible(self, other: "MeanBiasSketch") -> None:
        super()._check_compatible(other)
        if other.signed != self.signed:
            raise ValueError("cannot merge ℓ1-mean with ℓ2-mean sketches")

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
