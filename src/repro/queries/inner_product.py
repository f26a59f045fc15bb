"""Inner-product estimation between a sketched vector and an explicit vector."""

from __future__ import annotations

import numpy as np

from repro.sketches.base import SCAN_BLOCK, Sketch
from repro.utils.validation import ensure_1d_float_array


def _inner_product_estimate(sketch: Sketch, y) -> float:
    """Estimate ``⟨x, y⟩`` where ``x`` is the sketched vector and ``y`` is given.

    The estimator is ``⟨x̂, y⟩`` with ``x̂`` the sketch's recovered vector; by
    Hölder its error is bounded by ``‖x - x̂‖_∞ · ‖y‖_1``, so the bias-aware
    sketches' tighter ℓ∞ guarantee carries over directly.  The dot product
    is accumulated over blocks of batched point queries, so no dense
    ``(n,)`` recovery is materialised.
    """
    if sketch.dimension is None:
        raise ValueError(
            "inner-product estimation requires a bounded dimension; an "
            "unbounded (dimension=None) sketch has no fixed-length vector "
            "to pair y with"
        )
    arr = ensure_1d_float_array(y, "y")
    if arr.size != sketch.dimension:
        raise ValueError(
            f"y has dimension {arr.size}, sketch expects {sketch.dimension}"
        )
    total = 0.0
    for start in range(0, arr.size, SCAN_BLOCK):
        stop = min(start + SCAN_BLOCK, arr.size)
        block = np.arange(start, stop)
        total += float(np.dot(sketch.query_batch(block), arr[start:stop]))
    return total

