"""Statistical queries built on top of recovering sketches.

The paper motivates the point-query primitive as the building block for the
standard repertoire of frequency-vector queries (Section 1: "point query,
frequent elements, range query, etc.").  This package provides those derived
queries over any sketch implementing the :class:`~repro.sketches.base.Sketch`
interface — in particular over the bias-aware sketches, whose improved point
estimates translate directly into better heavy-hitter and range answers on
biased data.
"""

from repro.queries.heavy_hitters import HeavyHitter
from repro.queries.quantiles import approximate_quantile
from repro.queries.dyadic import DyadicRangeSketch
from repro.queries.topk import StreamingTopK, TopKEntry

__all__ = [
    "HeavyHitter",
    "approximate_quantile",
    "DyadicRangeSketch",
    "StreamingTopK",
    "TopKEntry",
]
