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
        if bias_samples is None:
            bias_samples = width
        self._bias_estimator = SamplingMedianEstimator(
            dimension, bias_samples, seed=derive_seed(seed, 404)
        )

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
        self._bias_estimator.update(index, delta)
        self._items_processed += 1

    def update_batch(self, indices, deltas=None) -> "L1BiasAwareSketch":
        """Vectorised batch ingestion: scatter-add plus the sampled coordinates."""
        idx, d = self._check_batch(indices, deltas)
        self._table.add_batch(idx, d)
        self._bias_estimator.update_batch(idx, d)
        self._items_processed += idx.size
        return self

    def fit(self, x) -> "L1BiasAwareSketch":
        arr = self._check_vector(x)
        self._table.add_vector(arr)
        self._bias_estimator.ingest_vector(arr)
        self._items_processed += int(np.count_nonzero(arr))
        return self

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def estimate_bias(self) -> float:
        """β̂: the median of the maintained sampled coordinates (Alg. 2, line 1)."""
        return self._bias_estimator.current_estimate()

    def query(self, index: int) -> float:
        index = self._check_index(index)
        return float(self._estimate(index))

    def query_batch(self, indices) -> np.ndarray:
        idx, _ = self._check_batch(indices, None)
        return self._estimate(idx)

    def _estimate(self, keys) -> np.ndarray:
        """Algorithm 2's recovery of one validated key or a batch of them."""
        beta = self.estimate_bias()
        counters, pi = self._table.gather(keys, self._pi)
        return median_over_rows(counters - beta * pi) + beta

    # ------------------------------------------------------------------ #
    # linearity
    # ------------------------------------------------------------------ #
    def merge(self, other: "L1BiasAwareSketch") -> "L1BiasAwareSketch":
        self._check_compatible(other)
        self._table.merge_from(other._table)
        self._bias_estimator.merge(other._bias_estimator)
        self._items_processed += other._items_processed
        return self

    def scale(self, factor: float) -> "L1BiasAwareSketch":
        factor = float(factor)
        self._table.scale_by(factor)
        self._bias_estimator.scale(factor)
        return self

    def _check_compatible(self, other: "L1BiasAwareSketch") -> None:
        super()._check_compatible(other)
        if other._bias_estimator.samples != self._bias_estimator.samples:
            raise ValueError(
                "sketches must use the same number of bias samples to be merged"
            )

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def size_in_words(self) -> int:
        return self._table.counter_count + self._bias_estimator.size_in_words()

    def _config_dict(self):
        config = super()._config_dict()
        config["bias_samples"] = self._bias_estimator.samples
        return config

    @classmethod
    def _from_config(cls, config):
        return cls(config["dimension"], config["width"], config["depth"],
                   bias_samples=config.get("bias_samples"),
                   seed=config.get("seed"))

    def _state_arrays(self):
        return {
            "table": self._table.table,
            "samples": self._bias_estimator.sample_values,
        }

    def bind_state_buffers(self, buffers) -> None:
        self._table.bind_buffer(buffers["table"])
        self._bias_estimator.bind_sample_buffer(buffers["samples"])

    def _load_state_payload(self, arrays, scalars, meta) -> None:
        super()._load_state_payload(arrays, scalars, meta)
        self._table.load_table(arrays["table"])
        self._bias_estimator.load_sample_values(arrays["samples"])

    @property
    def table(self) -> np.ndarray:
        """The raw ``(depth, width)`` Count-Median counter table (for inspection)."""
        return self._table.table

    @property
    def sample_values(self) -> np.ndarray:
        """The maintained sampled coordinates S = Υx (for inspection)."""
        return self._bias_estimator.sample_values


register_serializable(L1BiasAwareSketch)
