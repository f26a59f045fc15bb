"""Streaming ℓ2-S/R (Algorithm 6): real-time point queries with a Bias-Heap.

Algorithm 6 of the paper augments the ℓ2 bias-aware sketch for the streaming
model: the Count-Sketch rows are updated as usual, the single CM bias row is
routed through the :class:`~repro.core.bias_heap.BiasHeap` of Algorithm 5, and
a point query reads the current bias β̂ from the heap in O(1), de-biases the
``d`` bucket values of the queried coordinate and returns the sign-corrected
median plus β̂ — no post-processing pass, no re-sorting.

:class:`StreamingL2BiasAwareSketch` keeps the exact interface of
:class:`~repro.core.l2_sketch.L2BiasAwareSketch`; only the bias-estimate
maintenance differs.  The heap keeps the bias row's buckets as a rank array
under the total order ``(w/π, bucket)`` — the same order a stable sort
produces — so the estimates match the batch variant exactly, including on
ties between equal per-bucket averages.  A scalar update moves one bucket's
rank; every bulk path (``update_batch``, ``fit``, ``merge``, ``scale``, a
pool fold, a restore) rebuilds the heap with one vectorised sort, O(s log s)
in numpy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bias_heap import BiasHeap
from repro.core.l2_sketch import L2BiasAwareSketch
from repro.serialization import register_serializable
from repro.utils.rng import RandomSource


class StreamingL2BiasAwareSketch(L2BiasAwareSketch):
    """ℓ2-S/R with the bias maintained by a Bias-Heap (Algorithm 6)."""

    name = "l2_sr_streaming"

    def __init__(
        self,
        dimension: int,
        width: int,
        depth: int,
        head_size: Optional[int] = None,
        seed: RandomSource = None,
    ) -> None:
        super().__init__(
            dimension, width, depth, head_size=head_size, seed=seed
        )
        self._bias_heap = BiasHeap(self._pi_g, head_size=self.head_size)

    @classmethod
    def _from_config(cls, config):
        """A blank sketch for a restore, without the empty Bias-Heap.

        Every restore (and so every ``copy()``) ends in :meth:`_post_fold`,
        which builds the heap from the payload, so the empty one
        ``__init__`` builds would be thrown away at once.
        """
        sketch = cls.__new__(cls)
        L2BiasAwareSketch.__init__(
            sketch, config["dimension"], config["width"], config["depth"],
            head_size=config.get("head_size"), seed=config.get("seed"),
        )
        return sketch

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def update(self, index: int, delta: float = 1.0) -> None:
        index = self._check_index(index)
        delta = float(delta)
        super().update(index, delta)
        bucket = int(self._bias_row.bucket_column(index)[0])
        self._bias_heap.update(bucket, delta)

    def _state_meta(self):
        # the heap's bottom/middle/top membership is recorded so that a
        # restored sketch answers from the same middle set as the serialized
        # one, including payloads whose older heap broke ties differently
        meta = super()._state_meta()
        meta["heap_locations"] = self._bias_heap.locations.tolist()
        return meta

    def _post_fold(self, meta=None) -> None:
        """Rebuild the Bias-Heap from the bias row after a bulk change.

        The rebuild is one stable argsort of the bucket averages.  Its
        partition is identical to what per-update maintenance would have
        produced: both rank buckets under the same total order
        ``(w/π, bucket)``, so the rebuild introduces no tie-break drift.
        A restore whose payload records ``heap_locations`` restores that
        partition instead (the heap copies ``w``, so it is rebuilt on a
        rebind to shared buffers too).
        """
        locations = None if meta is None else meta.get("heap_locations")
        self._bias_heap = BiasHeap(
            self._pi_g,
            head_size=self.head_size,
            initial_w=self._bias_row.table[0],
            initial_locations=(
                None if locations is None
                else np.asarray(locations, dtype=np.int8)
            ),
        )

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def estimate_bias(self) -> float:
        """β̂ from the Bias-Heap — O(1) at query time (Algorithm 6, line 8)."""
        return self._bias_heap.bias()

    @property
    def bias_heap(self) -> BiasHeap:
        """The underlying Bias-Heap (for inspection and tests)."""
        return self._bias_heap


register_serializable(StreamingL2BiasAwareSketch)
