"""ℓ1-S/R: the bias-aware sketch with ℓ∞/ℓ1 guarantee (Algorithms 1-2).

Sketching (Algorithm 1)
    The sketch of ``x`` is ``d`` Count-Median rows ``y_i = Π(h_i)x`` plus the
    sampled coordinates ``S = Υx`` of a sampling matrix with Θ(log n) rows.

Recovery (Algorithm 2)
    1. β̂ ← median of the sampled coordinates.
    2. For every row, subtract β̂·π_i from the buckets, where π_i is the
       per-bucket count of coordinates (the column sums of Π(h_i)); this is the
       sketch of the de-biased vector ``x - β̂·1`` by linearity.
    3. Run Count-Median recovery on the de-biased buckets to get ẑ.
    4. Return x̂ = ẑ + β̂.

Guarantee (Theorem 3): with probability 1 - O(1/n),

    ‖x̂ - x‖∞ ≤ C/k · min_β Err_1^k(x - β·1).

The class is a :class:`~repro.sketches.base.LinearSketch`: both the CM rows
and the samples are linear in ``x``, so sketches of partial vectors merge.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bias import SamplingMedianEstimator
from repro.serialization import register_serializable
from repro.sketches._tables import HashedCounterTable, median_over_rows
from repro.sketches.base import LinearSketch
from repro.utils.rng import RandomSource, derive_seed


class L1BiasAwareSketch(LinearSketch):
    """The ℓ1 bias-aware sketch (``ℓ1-S/R`` in the paper's figures).

    Parameters
    ----------
    dimension:
        Dimension ``n`` of the frequency vector.
    width:
        Buckets per Count-Median row, ``s = c_s·k`` with ``c_s ≥ 4``.
    depth:
        Number of Count-Median rows ``d`` (the paper uses 9).
    bias_samples:
        Number of sampled coordinates used for the bias estimate.  Defaults to
        ``width``, matching the paper's experimental setup (Section 5.1: "we
        use s extra words for both ℓ1-S/R and ℓ2-S/R"); pass
        ``int(20·log n)`` to follow the theoretical construction instead.
    seed:
        Randomness for hash functions and the sampling matrix.
    """

    name = "l1_sr"

    #: the sampled coordinates S = Υx, serialized as the ``samples`` array
    _side_arrays = {"samples": "sample_values"}

    def __init__(
        self,
        dimension: int,
        width: int,
        depth: int,
        bias_samples: Optional[int] = None,
        seed: RandomSource = None,
    ) -> None:
        if dimension is None:
            raise ValueError(
                "the ℓ1 bias-aware sketch requires a bounded dimension: its "
                "recovery subtracts β̂·π, the per-bucket count of coordinates "
                "over the whole universe"
            )
        super().__init__(dimension, width, depth, seed=seed)
        self._table = HashedCounterTable(
            dimension, width, depth, signed=False, seed=seed
        )
        self._tables = {"table": self._table}
        if bias_samples is None:
            bias_samples = width
        self._bias_estimator = SamplingMedianEstimator(
            dimension, bias_samples, seed=derive_seed(seed, 404)
        )
        self._side_state = self._bias_estimator

    @property
    def _pi(self) -> np.ndarray:
        return self._table.cached_column_sums()

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def estimate_bias(self) -> float:
        """β̂: the median of the maintained sampled coordinates (Alg. 2, line 1)."""
        return self._bias_estimator.current_estimate()

    def _estimate(self, keys) -> np.ndarray:
        """Algorithm 2's recovery of one validated key or a batch of them."""
        beta = self.estimate_bias()
        debiased = self._table.row_estimates(
            keys, lambda counters, pi: counters - beta * pi, self._pi
        )
        return median_over_rows(debiased) + beta

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    def _check_compatible(self, other: "L1BiasAwareSketch") -> None:
        super()._check_compatible(other)
        if other._bias_estimator.samples != self._bias_estimator.samples:
            raise ValueError(
                "sketches must use the same number of bias samples to be merged"
            )

    def _config_dict(self):
        config = super()._config_dict()
        config["bias_samples"] = self._bias_estimator.samples
        return config

    @classmethod
    def _from_config(cls, config):
        return cls(config["dimension"], config["width"], config["depth"],
                   bias_samples=config.get("bias_samples"),
                   seed=config.get("seed"))

    @property
    def sample_values(self) -> np.ndarray:
        """The maintained sampled coordinates S = Υx (for inspection)."""
        return self._bias_estimator.sample_values


register_serializable(L1BiasAwareSketch)
