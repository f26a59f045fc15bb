"""Streaming ℓ1-S/R with a sorted-sample structure for fast bias queries.

Section 4.4 of the paper observes that for the ℓ∞/ℓ1 guarantee a good bias
estimate can be maintained in the streaming model by simply keeping the
Θ(log n) sampled coordinates *sorted* (e.g. in a balanced BST), so that the
median — and hence the bias — is available at any time step without work at
query time.

:class:`StreamingL1BiasAwareSketch` extends :class:`L1BiasAwareSketch` with
exactly that: a sorted multiset of the current sample values, kept in sync on
every update, so :meth:`estimate_bias` is O(1) and a point query costs only
the O(d) bucket reads.  (The sorted multiset is implemented with ``bisect``
over a python list: insertion is O(t) in the worst case due to list shifting,
but ``t`` is Θ(log n) — a few hundred at most — so this is comfortably below
the O(d) cost of the rest of the update.)
"""

from __future__ import annotations

import bisect
from typing import Optional

import numpy as np

from repro.core.l1_sketch import L1BiasAwareSketch
from repro.serialization import register_serializable
from repro.utils.rng import RandomSource


class _SortedValues:
    """A sorted multiset of floats supporting replace and O(1) median."""

    def __init__(self, values: np.ndarray) -> None:
        self._values = sorted(float(v) for v in values)

    def replace(self, old: float, new: float) -> None:
        """Replace one occurrence of ``old`` with ``new``."""
        position = bisect.bisect_left(self._values, old)
        if position >= len(self._values) or self._values[position] != old:
            raise ValueError(f"value {old} not present in the sorted samples")
        self._values.pop(position)
        bisect.insort(self._values, new)

    def median(self) -> float:
        """The median of the stored values."""
        values = self._values
        count = len(values)
        if count == 0:
            return 0.0
        middle = count // 2
        if count % 2 == 1:
            return values[middle]
        return 0.5 * (values[middle - 1] + values[middle])

    def __len__(self) -> int:
        return len(self._values)


class StreamingL1BiasAwareSketch(L1BiasAwareSketch):
    """ℓ1-S/R with the bias estimate maintained incrementally (Section 4.4)."""

    name = "l1_sr_streaming"

    def __init__(
        self,
        dimension: int,
        width: int,
        depth: int,
        bias_samples: Optional[int] = None,
        seed: RandomSource = None,
    ) -> None:
        super().__init__(
            dimension, width, depth, bias_samples=bias_samples, seed=seed
        )
        self._sorted_samples = _SortedValues(self._bias_estimator.sample_values)

    @classmethod
    def _from_config(cls, config):
        """A blank sketch for a restore, without the sorted samples.

        Every restore (and so every ``copy()``) ends in :meth:`_post_fold`,
        which sorts the payload's samples, so the multiset ``__init__``
        sorts would be thrown away at once.
        """
        sketch = cls.__new__(cls)
        L1BiasAwareSketch.__init__(
            sketch, config["dimension"], config["width"], config["depth"],
            bias_samples=config.get("bias_samples"), seed=config.get("seed"),
        )
        return sketch

    def update(self, index: int, delta: float = 1.0) -> None:
        index = self._check_index(index)
        # checked before the sorted samples change, not only in the base update
        delta = self._check_delta(delta)
        # replace affected sample values in the sorted structure before the
        # estimator mutates them
        for slot in self._bias_estimator._slots_of.get(int(index), ()):
            old = float(self._bias_estimator.sample_values[slot])
            self._sorted_samples.replace(old, old + delta)
        super().update(index, delta)

    def _post_fold(self, meta=None) -> None:
        """Rebuild the sorted multiset from the samples after a bulk change.

        Every bulk path (a batch, ``fit``, ``merge``, ``scale``, a pool
        fold, a rebind, a restore) rebuilds it once, in ``O(t log t)``.
        The multiset is canonical given the sample values, so it is exactly
        the structure the per-update replacements would have maintained,
        and a restored sketch answers bias queries bit-identically to the
        one that was serialized.
        """
        self._sorted_samples = _SortedValues(self._bias_estimator.sample_values)

    def estimate_bias(self) -> float:
        """β̂ from the maintained sorted samples — O(1) at query time."""
        return self._sorted_samples.median()


register_serializable(StreamingL1BiasAwareSketch)
