"""ℓ2-S/R: the bias-aware sketch with ℓ∞/ℓ2 guarantee (Algorithms 3-4).

Sketching (Algorithm 3)
    The sketch of ``x`` is one Count-Median row ``w = Π(g)x`` (used only for
    bias estimation) plus ``d`` Count-Sketch rows ``y_i = Ψ(h_i, r_i)x``.

Recovery (Algorithm 4)
    1. Sort the buckets of ``w`` by their per-bucket average ``w_i/π_i`` and
       set β̂ to the ratio of sums over the middle ``2k`` buckets
       (π = column sums of Π(g)).
    2. Subtract β̂·ψ_i from each Count-Sketch row, where ψ_i is the per-bucket
       sum of signs (column sums of Ψ(h_i, r_i)); by linearity this yields the
       Count-Sketch of the de-biased vector ``x - β̂·1``.
    3. Run Count-Sketch recovery on the de-biased rows to get ẑ.
    4. Return x̂ = ẑ + β̂.

Guarantee (Theorem 4): with probability 1 - O(1/n),

    ‖x̂ - x‖∞ ≤ C/√k · min_β Err_2^k(x - β·1).

The sketch is linear and therefore mergeable; its streaming variant with O(1)
bias queries lives in :mod:`repro.core.streaming_l2`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bias import MiddleBucketsMeanEstimator
from repro.serialization import register_serializable
from repro.sketches._tables import HashedCounterTable, median_over_rows
from repro.sketches.base import LinearSketch
from repro.utils.rng import RandomSource, derive_seed


class L2BiasAwareSketch(LinearSketch):
    """The ℓ2 bias-aware sketch (``ℓ2-S/R`` in the paper's figures).

    Parameters
    ----------
    dimension:
        Dimension ``n`` of the frequency vector.
    width:
        Buckets per row, ``s = c_s·k`` with ``c_s ≥ 4``.
    depth:
        Number of Count-Sketch rows ``d`` (the paper uses 9); the extra bias
        row ``w`` is on top of these.
    head_size:
        The parameter ``k`` controlling the middle-bucket window (``2k``
        buckets are averaged).  Defaults to ``width // 4``, i.e. ``c_s = 4``,
        which is the setting of Algorithm 5 in the paper.
    seed:
        Randomness for all hash and sign functions.
    """

    name = "l2_sr"

    def __init__(
        self,
        dimension: int,
        width: int,
        depth: int,
        head_size: Optional[int] = None,
        seed: RandomSource = None,
    ) -> None:
        if dimension is None:
            raise ValueError(
                "the ℓ2 bias-aware sketch requires a bounded dimension: its "
                "recovery subtracts β̂·ψ, the per-bucket sum of signs over "
                "the whole universe"
            )
        super().__init__(dimension, width, depth, seed=seed)
        if head_size is None:
            head_size = max(1, width // 4)
        if head_size < 1 or 2 * head_size > width:
            raise ValueError(
                f"head_size must satisfy 1 <= head_size <= width/2, got "
                f"{head_size} with width {width}"
            )
        self.head_size = int(head_size)

        # the d Count-Sketch data rows
        self._cs_table = HashedCounterTable(
            dimension, width, depth, signed=True, seed=seed
        )
        # the single Count-Median bias row w = Π(g)x
        self._bias_row = HashedCounterTable(
            dimension, width, 1, signed=False, seed=derive_seed(seed, 505)
        )
        self._tables = {"table": self._cs_table, "bias_row": self._bias_row}
        self._bias_estimator = MiddleBucketsMeanEstimator(self.head_size)

    @property
    def _psi(self) -> np.ndarray:
        return self._cs_table.cached_column_sums()

    @property
    def _pi_g(self) -> np.ndarray:
        return self._bias_row.cached_column_sums()[0]

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def estimate_bias(self) -> float:
        """β̂: the middle-2k-bucket average of the bias row (Alg. 4, line 2)."""
        return self._bias_estimator.estimate_from_buckets(
            self._bias_row.table[0], self._pi_g
        )

    def _estimate(self, keys) -> np.ndarray:
        """Algorithm 4's recovery of one validated key or a batch of them."""
        beta = self.estimate_bias()
        debiased = self._cs_table.row_estimates(
            keys, lambda counters, psi: counters - beta * psi, self._psi
        )
        return median_over_rows(debiased) + beta

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    def _check_compatible(self, other: "L2BiasAwareSketch") -> None:
        super()._check_compatible(other)
        if other.head_size != self.head_size:
            raise ValueError(
                "sketches must use the same head_size (k) to be merged"
            )

    def _config_dict(self):
        config = super()._config_dict()
        config["head_size"] = self.head_size
        return config

    @classmethod
    def _from_config(cls, config):
        return cls(config["dimension"], config["width"], config["depth"],
                   head_size=config.get("head_size"), seed=config.get("seed"))

    @property
    def bias_buckets(self) -> np.ndarray:
        """The bias row ``w = Π(g)x`` (for inspection and the streaming variant)."""
        return self._bias_row.table[0]

    @property
    def bias_bucket_counts(self) -> np.ndarray:
        """π for the bias row: how many coordinates hash to each bucket of g."""
        return self._pi_g.copy()


register_serializable(L2BiasAwareSketch)
