"""Heavy hitters (frequent elements) on top of a recovering sketch.

A coordinate is reported as a heavy hitter when its *estimated* value exceeds
a threshold, expressed either absolutely or as a fraction φ of the total mass.
For biased vectors the interesting heavy hitters are the coordinates far
*above the bias*; the ``relative_to_bias`` mode subtracts the sketch's own
bias estimate (when it has one) before thresholding, which is the natural
"outlier detection" reading of the paper's motivation (cf. the BOMP
discussion in Section 2).

Evaluation is candidate-driven: with an explicit ``candidates`` key set only
those keys are estimated (the only option for unbounded ``dimension=None``
sketches, typically fed from the tracked set of a
:class:`~repro.queries.topk.StreamingTopK`); without one, a bounded domain
is scanned in fixed-size blocks of batched point queries, so memory stays
O(block) instead of materialising all ``n`` estimates at once.

A ``phi`` query needs the total mass before it can threshold anything.  When
the mass and the reported keys are the same keys (the whole bounded domain,
or the candidates of an unbounded sketch) and they fit in one
:data:`SCAN_BLOCK`, each key is estimated once and the block serves both
passes; a larger scan estimates its keys twice, so memory stays O(block).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.sketches.base import SCAN_BLOCK, Sketch
from repro.utils.validation import ensure_batch_arrays


@dataclass(frozen=True)
class HeavyHitter:
    """A reported heavy hitter."""

    index: int
    estimate: float
    score: float


def _scan_keys(sketch: Sketch, candidates) -> Optional[np.ndarray]:
    """The unique valid ``candidates``, or ``None`` for the bounded domain."""
    if candidates is not None:
        # the same validation the ingest path applies (dtype, bounds, and
        # the uint64-above-2^63 pre-check that keeps error messages naming
        # the key the caller actually passed)
        arr, _ = ensure_batch_arrays(candidates, None, sketch.dimension,
                                     name="candidates")
        return np.unique(arr)
    if sketch.dimension is None:
        raise ValueError(
            "an unbounded (dimension=None) sketch cannot be scanned for "
            "heavy hitters; pass candidates=... with the keys to evaluate "
            "(e.g. the tracked set of a StreamingTopK)"
        )
    return None


def _estimated_blocks(
    sketch: Sketch, keys: Optional[np.ndarray]
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(indices, estimates)`` per :data:`SCAN_BLOCK` of ``keys``.

    ``keys=None`` scans the sketch's bounded domain, so no ``(n,)`` index
    or estimates array is ever materialised.
    """
    size = sketch.dimension if keys is None else keys.size
    for start in range(0, size, SCAN_BLOCK):
        stop = min(start + SCAN_BLOCK, size)
        idx = np.arange(start, stop) if keys is None else keys[start:stop]
        yield idx, np.asarray(sketch.query_batch(idx), dtype=np.float64)


def _heavy_hitters(
    sketch: Sketch,
    threshold: Optional[float] = None,
    phi: Optional[float] = None,
    total_mass: Optional[float] = None,
    relative_to_bias: bool = False,
    top_k: Optional[int] = None,
    candidates=None,
) -> List[HeavyHitter]:
    """Report coordinates whose estimate exceeds a threshold.

    Parameters
    ----------
    sketch:
        Any sketch supporting batched point queries.
    threshold:
        Absolute threshold on the (possibly de-biased) estimate.
    phi:
        Relative threshold: report coordinates whose estimate exceeds
        ``phi · total_mass``.  ``total_mass`` defaults to the sum of the
        absolute estimates over the whole (bounded) domain — also when
        ``candidates`` merely restricts which keys are *reported*, so phi
        keeps its stream-relative meaning.  Only an unbounded sketch,
        whose domain cannot be scanned, falls back to the candidate-set
        mass; pass ``total_mass`` explicitly there to anchor phi to a
        known stream total.
    relative_to_bias:
        When True and the sketch exposes ``estimate_bias()``, the bias is
        subtracted before thresholding (detect "outliers above the bias"
        instead of "large absolute counts").
    top_k:
        When given, return only the ``top_k`` highest-scoring hitters.
    candidates:
        Optional key set to evaluate instead of scanning the whole domain —
        required for unbounded (``dimension=None``) sketches, whose universe
        cannot be enumerated.  Duplicates are ignored.

    Exactly one of ``threshold`` and ``phi`` must be provided.
    """
    if (threshold is None) == (phi is None):
        raise ValueError("provide exactly one of threshold and phi")

    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")

    bias = 0.0
    if relative_to_bias and hasattr(sketch, "estimate_bias"):
        bias = float(sketch.estimate_bias())

    if phi is not None and not (0.0 < phi < 1.0):
        raise ValueError(f"phi must lie in (0, 1), got {phi}")

    keys = _scan_keys(sketch, candidates)
    blocks = _estimated_blocks(sketch, keys)
    if phi is not None:
        if total_mass is None:
            # the total needs every estimate before any can be thresholded.
            # On a bounded sketch the phi base is always the whole domain
            # (candidates only restrict which keys are reported); an
            # unbounded domain cannot be scanned, so candidate mass is the
            # only fallback.
            scanned = sketch.dimension if keys is None else keys.size
            if candidates is not None and sketch.dimension is not None:
                mass_blocks = _estimated_blocks(sketch, None)
            elif scanned <= SCAN_BLOCK:
                # the mass pass scans the reported keys, in one block:
                # estimate it once and keep it for the threshold pass
                blocks = mass_blocks = list(blocks)
            else:
                # re-scan to threshold — twice the hashing, but memory stays
                # O(block) even at dimension 10^8 (or 10^7 candidates)
                mass_blocks = _estimated_blocks(sketch, keys)
            total_mass = sum(
                float(np.sum(np.abs(estimates)))
                for _, estimates in mass_blocks
            )
        threshold = phi * total_mass

    hitters: List[HeavyHitter] = []
    for idx, estimates in blocks:
        scores = estimates - bias
        hot = np.flatnonzero(scores > threshold)
        block_hitters = [
            HeavyHitter(index=int(idx[i]), estimate=float(estimates[i]),
                        score=float(scores[i]))
            for i in hot
        ]
        if top_k is None:
            hitters.extend(block_hitters)
        else:
            # truncate per block so memory stays O(top_k + block) even when
            # a permissive threshold passes the whole domain
            hitters = heapq.nlargest(
                top_k, hitters + block_hitters, key=lambda h: h.score
            )
    hitters.sort(key=lambda h: h.score, reverse=True)
    return hitters

