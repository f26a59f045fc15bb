"""Range-sum queries on top of point queries.

A range query asks for ``Σ_{i ∈ [low, high)} x_i``.  With only a point-query
sketch available the natural estimator sums the point estimates over the
range; its error grows with the range length, which is acceptable for the
short ranges typical of time-windowed count vectors (the WorldCup / Wiki
workloads).  For a bias-aware sketch the estimate decomposes into
``(range length)·β̂`` plus the sum of the de-biased estimates, so the bias is
accounted for exactly rather than once per coordinate.
"""

from __future__ import annotations

import numpy as np

from repro.sketches.base import SCAN_BLOCK, Sketch
from repro.utils.validation import require_index

#: widest key range an unbounded (dimension=None) sketch will evaluate —
#: every key in the range costs one point query, and a sparse 64-bit key
#: space makes arbitrarily wide ranges a near-infinite loop of hash noise
MAX_UNBOUNDED_RANGE = 1 << 24


def _range_sum(sketch: Sketch, low: int, high: int) -> float:
    """Estimate ``Σ_{i=low}^{high-1} x_i`` by summing batched point estimates.

    ``low`` is inclusive, ``high`` exclusive; both must address coordinates of
    the sketch's vector, and ``high`` may equal the dimension.  The range is
    evaluated in blocks of batched point queries rather than one python-loop
    query per coordinate, so long ranges run at numpy speed in O(block)
    memory — which also makes key-range queries usable in hashed-key mode
    (``dimension=None``), for ranges up to :data:`MAX_UNBOUNDED_RANGE` keys
    (every key costs one point query; a wider span over a sparse 64-bit key
    space would sum hash noise for hours).
    """
    low = require_index(low, sketch.dimension, "low")
    if sketch.dimension is None or high != sketch.dimension:
        high = require_index(high, sketch.dimension, "high")
    if high < low:
        raise ValueError(f"high ({high}) must be >= low ({low})")
    if sketch.dimension is None and high - low > MAX_UNBOUNDED_RANGE:
        raise ValueError(
            f"range [{low}, {high}) spans {high - low} keys; an unbounded "
            f"(dimension=None) sketch evaluates ranges of at most "
            f"{MAX_UNBOUNDED_RANGE} keys — query narrower ranges or "
            "candidate key sets instead"
        )
    total = 0.0
    for start in range(low, high, SCAN_BLOCK):
        block = np.arange(start, min(start + SCAN_BLOCK, high))
        total += float(np.sum(sketch.query_batch(block)))
    return total

