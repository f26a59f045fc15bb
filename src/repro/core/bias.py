"""Bias estimators.

The whole point of the paper's algorithms is to estimate the bias β from a
small linear sketch so that it can be subtracted before recovery.  The two
estimators the paper proves guarantees for are:

* **sampling median** (Algorithm 1 / 2, Lemmas 2-3): the median of Θ(log n)
  uniformly sampled coordinates — a constant-factor approximation of the
  ℓ1-optimal bias with probability 1 - 1/n;
* **middle-bucket mean** (Algorithm 4 line 2, Lemmas 6-7): hash the vector
  into ``s = c_s·k`` buckets with a CM-matrix, sort the buckets by their
  per-bucket average ``w_i/π_i`` and average the coordinates hashed into the
  middle ``2k`` buckets — within O(σ(x*)) of the ℓ2-optimal bias.

Two more estimators are provided for the comparisons in Section 5.4 and for
the ablation benchmarks: the plain **mean** (no guarantee — Section 4.1 shows
it fails under extreme outliers) and the **exact optimal bias** (needs the
full vector; ground truth only).

Each estimator has a vectorised ``estimate_from_vector`` path (used when
sketching a full vector) and, where meaningful, incremental state so that the
streaming sketches can keep the estimate current per update.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.core.errors import optimal_bias
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import ensure_1d_float_array, require_positive_int


class BiasEstimator(abc.ABC):
    """Interface for bias estimators."""

    @abc.abstractmethod
    def estimate_from_vector(self, x: np.ndarray) -> float:
        """Estimate the bias of a full frequency vector."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SamplingMedianEstimator(BiasEstimator):
    """Median of uniformly sampled coordinates (the ℓ1-S/R bias estimator).

    Parameters
    ----------
    dimension:
        Dimension ``n`` of the vector being sampled.
    samples:
        Number of sampled coordinates ``t``.  The paper's analysis uses
        ``t = 20 log n`` (Lemma 3); its implementation uses ``t = s`` extra
        words to match the ℓ2 sketch's footprint (Section 5.1).
    seed:
        Randomness for choosing the sampled coordinates.
    """

    def __init__(
        self,
        dimension: int,
        samples: int,
        seed: RandomSource = None,
    ) -> None:
        self.dimension = require_positive_int(dimension, "dimension")
        self.samples = require_positive_int(samples, "samples")
        rng = as_rng(seed)
        #: the sampled coordinate index of each of the ``samples`` slots
        self.sampled_indices = rng.integers(0, dimension, size=self.samples)
        #: current value of each sampled coordinate (maintained under updates)
        self.sample_values = np.zeros(self.samples, dtype=np.float64)
        # map coordinate -> sample slots, for O(1) streaming updates
        self._slots_of = {}
        for slot, index in enumerate(self.sampled_indices):
            self._slots_of.setdefault(int(index), []).append(slot)

    @classmethod
    def theta_log_n(
        cls,
        dimension: int,
        constant: float = 20.0,
        seed: RandomSource = None,
    ) -> "SamplingMedianEstimator":
        """Build the ``t = constant·log n`` estimator of Lemma 3."""
        samples = max(1, int(np.ceil(constant * np.log(max(dimension, 2)))))
        return cls(dimension, samples, seed=seed)

    # -- vectorised path ------------------------------------------------ #
    def estimate_from_vector(self, x: np.ndarray) -> float:
        arr = ensure_1d_float_array(x, "x")
        if arr.size != self.dimension:
            raise ValueError(
                f"vector has dimension {arr.size}, estimator expects {self.dimension}"
            )
        return float(np.median(arr[self.sampled_indices]))

    # -- streaming path -------------------------------------------------- #
    def ingest_vector(self, x: np.ndarray) -> None:
        """Add a whole vector's contribution to the maintained sample values."""
        arr = ensure_1d_float_array(x, "x")
        if arr.size != self.dimension:
            raise ValueError(
                f"vector has dimension {arr.size}, estimator expects {self.dimension}"
            )
        self.sample_values += arr[self.sampled_indices]

    def update(self, index: int, delta: float) -> None:
        """Apply the streaming update ``x[index] += delta`` to the samples."""
        for slot in self._slots_of.get(int(index), ()):
            self.sample_values[slot] += delta

    def update_batch(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Apply a batch of updates to the samples (order-preserving).

        Only the batch entries that hit a sampled coordinate are visited, so
        the cost is ``O(m log t)`` for the membership test plus work linear in
        the (typically tiny) number of hits.
        """
        if len(indices) == 0:
            return
        hits = np.isin(indices, self.sampled_indices)
        if not np.any(hits):
            return
        for index, delta in zip(indices[hits].tolist(), deltas[hits].tolist()):
            for slot in self._slots_of[int(index)]:
                self.sample_values[slot] += delta

    def current_estimate(self) -> float:
        """The bias estimate from the currently maintained sample values."""
        return float(np.median(self.sample_values))

    def size_in_words(self) -> int:
        """Extra sketch words consumed by the estimator."""
        return self.samples


class MiddleBucketsMeanEstimator(BiasEstimator):
    """Mean of the middle-2k CM buckets (the ℓ2-S/R bias estimator).

    This estimator operates on an already-computed CM row: the per-bucket sums
    ``w = Π(g)x`` and the per-bucket coordinate counts ``π``.  It is stateless;
    the ℓ2 sketch owns ``w`` and calls :meth:`estimate_from_buckets`.

    Parameters
    ----------
    head_size:
        The parameter ``k``; the middle window spans ``2k`` buckets
        (ranks ``s/2 - k`` to ``s/2 + k - 1`` of the buckets sorted by
        per-bucket average).
    """

    def __init__(self, head_size: int) -> None:
        self.head_size = require_positive_int(head_size, "head_size")

    def estimate_from_buckets(self, w: np.ndarray, pi: np.ndarray) -> float:
        """Estimate β from bucket sums ``w`` and bucket counts ``π``.

        Buckets are sorted by average ``w_i/π_i`` (empty buckets sort with key
        0, contributing nothing to either sum) and the sums of ``w`` and ``π``
        over the middle ``2k`` buckets are divided.
        """
        w = np.asarray(w, dtype=np.float64)
        pi = np.asarray(pi, dtype=np.float64)
        if w.shape != pi.shape or w.ndim != 1:
            raise ValueError("w and pi must be 1-D arrays of the same length")
        s = w.size
        keys = np.zeros(s, dtype=np.float64)
        non_empty = pi > 0
        keys[non_empty] = w[non_empty] / pi[non_empty]
        order = np.argsort(keys, kind="stable")

        k = self.head_size
        low = max(0, s // 2 - k)
        high = min(s, s // 2 + k)
        middle = order[low:high]
        pi_sum = float(np.sum(pi[middle]))
        if pi_sum <= 0:
            # every middle bucket is empty — fall back to the global average
            total_pi = float(np.sum(pi))
            return float(np.sum(w) / total_pi) if total_pi > 0 else 0.0
        return float(np.sum(w[middle]) / pi_sum)

    def estimate_from_vector(self, x: np.ndarray) -> float:
        """Not supported directly — the estimator needs the CM buckets.

        The ℓ2 sketch always calls :meth:`estimate_from_buckets`; this method
        exists only to satisfy the interface and raises to prevent misuse.
        """
        raise NotImplementedError(
            "MiddleBucketsMeanEstimator estimates from CM buckets; "
            "use estimate_from_buckets(w, pi)"
        )


class MeanEstimator(BiasEstimator):
    """Plain mean of all coordinates (the ℓ1-mean / ℓ2-mean heuristic).

    Maintaining the mean only needs the running sum (the dimension is known),
    which is trivially linear, so the heuristic sketches remain mergeable.
    As Section 4.1 of the paper shows, a handful of extreme outliers can drag
    the mean arbitrarily far from the optimal bias — there is no guarantee.
    """

    def __init__(self, dimension: int) -> None:
        self.dimension = require_positive_int(dimension, "dimension")
        self._running_sum = 0.0

    def estimate_from_vector(self, x: np.ndarray) -> float:
        arr = ensure_1d_float_array(x, "x")
        if arr.size != self.dimension:
            raise ValueError(
                f"vector has dimension {arr.size}, estimator expects {self.dimension}"
            )
        return float(np.mean(arr))

    def ingest_vector(self, x: np.ndarray) -> None:
        """Add a whole vector's contribution to the running sum."""
        arr = ensure_1d_float_array(x, "x")
        if arr.size != self.dimension:
            raise ValueError(
                f"vector has dimension {arr.size}, estimator expects {self.dimension}"
            )
        self._running_sum += float(np.sum(arr))

    def update(self, index: int, delta: float) -> None:
        """Apply the streaming update ``x[index] += delta`` to the running sum."""
        self._running_sum += delta

    def update_batch(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Apply a batch of updates to the running sum in one reduction."""
        if len(deltas):
            self._running_sum += float(np.sum(deltas))

    def current_estimate(self) -> float:
        """The bias estimate from the running sum."""
        return self._running_sum / self.dimension

    def size_in_words(self) -> int:
        """Extra sketch words consumed by the estimator (a single running sum)."""
        return 1


class ExactBiasEstimator(BiasEstimator):
    """Ground-truth estimator returning the exact ``argmin_β Err_p^k(x - β·1)``.

    Needs the full vector, so it is not a sketching component — it exists for
    tests and for the bias-estimator ablation benchmark.
    """

    def __init__(self, head_size: int, p: int = 2) -> None:
        self.head_size = require_positive_int(head_size, "head_size")
        if p not in (1, 2):
            raise ValueError(f"p must be 1 or 2, got {p!r}")
        self.p = int(p)

    def estimate_from_vector(self, x: np.ndarray) -> float:
        return optimal_bias(x, self.head_size, self.p).beta


def make_bias_estimator(
    kind: str,
    dimension: int,
    head_size: Optional[int] = None,
    samples: Optional[int] = None,
    seed: RandomSource = None,
) -> BiasEstimator:
    """Factory used by the ablation benchmarks.

    ``kind`` is one of ``"sampling_median"``, ``"mean"``, ``"exact_l1"``,
    ``"exact_l2"``.  (The middle-bucket estimator is constructed by the ℓ2
    sketch itself since it needs the CM buckets.)
    """
    if kind == "sampling_median":
        count = samples if samples is not None else max(
            1, int(np.ceil(20.0 * np.log(max(dimension, 2))))
        )
        return SamplingMedianEstimator(dimension, count, seed=seed)
    if kind == "mean":
        return MeanEstimator(dimension)
    if kind == "exact_l1":
        if head_size is None:
            raise ValueError("exact_l1 requires head_size")
        return ExactBiasEstimator(head_size, p=1)
    if kind == "exact_l2":
        if head_size is None:
            raise ValueError("exact_l2 requires head_size")
        return ExactBiasEstimator(head_size, p=2)
    raise ValueError(
        f"unknown bias estimator kind {kind!r}; expected one of "
        "'sampling_median', 'mean', 'exact_l1', 'exact_l2'"
    )
