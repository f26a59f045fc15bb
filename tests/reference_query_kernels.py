"""Reference query kernels: every sketch kind's point query before the shared
read kernel, and the two-pass heavy-hitter scan.

Each sketch class used to carry its own copy of the gather and the median:
``take_along_axis`` of the counters (and of π/ψ for the bias-aware kinds) at
the key batch's bucket columns, then a generic ``np.median`` over the depth
axis, while ``query()`` gathered one key with fancy indexing.  Those bodies
are kept here verbatim, reading the sketch's state through the same private
attributes, as the oracle the library's
:class:`~repro.sketches._tables.HashedCounterTable` read kernel is compared
against bit for bit.  ``count_min_log_cu`` has one reference for both
paths, its scalar ``query()``: its batched decode used ``np.power``, which
rounded the last ulp differently, and the library now decodes a batch with
the scalar arithmetic on purpose.

:func:`heavy_hitters` is ``repro.queries.heavy_hitters._heavy_hitters`` as it
was before it learned to estimate a scan of one block once: a ``phi`` query
accumulates the mass in a first pass and re-scans to threshold.

The module sits at the root of ``tests/`` so that it imports (as
``reference_query_kernels``) whichever test directory is run.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.queries.heavy_hitters import HeavyHitter
from repro.sketches.base import SCAN_BLOCK
from repro.utils.validation import ensure_batch_arrays


# ---------------------------------------------------------------------- #
# HashedCounterTable.row_estimates / row_estimates_batch
# ---------------------------------------------------------------------- #
def _row_estimates(table, index: int) -> np.ndarray:
    rows = np.arange(table.depth)
    values = table.table[rows, table.bucket_column(index)]
    if table.signed:
        values = values * table.sign_column(index)
    return values


def _row_estimates_batch(table, indices: np.ndarray) -> np.ndarray:
    cols = table.bucket_columns(indices)
    values = np.take_along_axis(table.table, cols, axis=1)
    if table.signed:
        values = values * table.sign_columns(indices)
    return values


# ---------------------------------------------------------------------- #
# count_sketch and count_median
# ---------------------------------------------------------------------- #
def _median_of_rows_query(sketch, index: int) -> float:
    index = sketch._check_index(index)
    return float(np.median(_row_estimates(sketch._table, index)))


def _median_of_rows_query_batch(sketch, indices) -> np.ndarray:
    idx, _ = sketch._check_batch(indices, None)
    return np.median(_row_estimates_batch(sketch._table, idx), axis=0)


# ---------------------------------------------------------------------- #
# count_min and count_min_cu
# ---------------------------------------------------------------------- #
def _min_of_rows_query(sketch, index: int) -> float:
    index = sketch._check_index(index)
    return float(np.min(_row_estimates(sketch._table, index)))


def _min_of_rows_query_batch(sketch, indices) -> np.ndarray:
    idx, _ = sketch._check_batch(indices, None)
    return np.min(_row_estimates_batch(sketch._table, idx), axis=0)


# ---------------------------------------------------------------------- #
# count_min_log_cu: the scalar query is the reference for both paths
# ---------------------------------------------------------------------- #
def _log_counter_query(sketch, index: int) -> float:
    index = sketch._check_index(index)
    min_counter = float(np.min(_row_estimates(sketch._table, index)))
    return (sketch.base ** min_counter - 1.0) / (sketch.base - 1.0)


def _log_counter_query_batch(sketch, indices) -> np.ndarray:
    idx, _ = sketch._check_batch(indices, None)
    return np.array([_log_counter_query(sketch, int(i)) for i in idx],
                    dtype=np.float64)


# ---------------------------------------------------------------------- #
# l1_sr and l1_sr_streaming
# ---------------------------------------------------------------------- #
def _l1_sr_query(sketch, index: int) -> float:
    index = sketch._check_index(index)
    beta = sketch.estimate_bias()
    buckets = sketch._table.bucket_column(index)
    rows = np.arange(sketch.depth)
    debiased = (
        sketch._table.table[rows, buckets] - beta * sketch._pi[rows, buckets]
    )
    return float(np.median(debiased)) + beta


def _l1_sr_query_batch(sketch, indices) -> np.ndarray:
    idx, _ = sketch._check_batch(indices, None)
    beta = sketch.estimate_bias()
    cols = sketch._table.bucket_columns(idx)
    debiased = (
        np.take_along_axis(sketch._table.table, cols, axis=1)
        - beta * np.take_along_axis(sketch._pi, cols, axis=1)
    )
    return np.median(debiased, axis=0) + beta


# ---------------------------------------------------------------------- #
# l2_sr and l2_sr_streaming
# ---------------------------------------------------------------------- #
def _l2_sr_query(sketch, index: int) -> float:
    index = sketch._check_index(index)
    beta = sketch.estimate_bias()
    buckets = sketch._cs_table.bucket_column(index)
    rows = np.arange(sketch.depth)
    debiased = (
        sketch._cs_table.table[rows, buckets]
        - beta * sketch._psi[rows, buckets]
    )
    signed = debiased * sketch._cs_table.sign_column(index)
    return float(np.median(signed)) + beta


def _l2_sr_query_batch(sketch, indices) -> np.ndarray:
    idx, _ = sketch._check_batch(indices, None)
    beta = sketch.estimate_bias()
    cols = sketch._cs_table.bucket_columns(idx)
    debiased = (
        np.take_along_axis(sketch._cs_table.table, cols, axis=1)
        - beta * np.take_along_axis(sketch._psi, cols, axis=1)
    )
    signed = debiased * sketch._cs_table.sign_columns(idx)
    return np.median(signed, axis=0) + beta


# ---------------------------------------------------------------------- #
# l1_mean and l2_mean
# ---------------------------------------------------------------------- #
def _mean_query(sketch, index: int) -> float:
    index = sketch._check_index(index)
    beta = sketch.estimate_bias()
    buckets = sketch._table.bucket_column(index)
    rows = np.arange(sketch.depth)
    debiased = (
        sketch._table.table[rows, buckets]
        - beta * sketch._column_sums[rows, buckets]
    )
    if sketch.signed:
        debiased = debiased * sketch._table.sign_column(index)
    return float(np.median(debiased)) + beta


def _mean_query_batch(sketch, indices) -> np.ndarray:
    idx, _ = sketch._check_batch(indices, None)
    beta = sketch.estimate_bias()
    cols = sketch._table.bucket_columns(idx)
    debiased = (
        np.take_along_axis(sketch._table.table, cols, axis=1)
        - beta * np.take_along_axis(sketch._column_sums, cols, axis=1)
    )
    if sketch.signed:
        debiased = debiased * sketch._table.sign_columns(idx)
    return np.median(debiased, axis=0) + beta


# ---------------------------------------------------------------------- #
# debiased_count_min
# ---------------------------------------------------------------------- #
def _debiased_count_min_query(sketch, index: int) -> float:
    index = sketch._check_index(index)
    rows = np.arange(sketch.depth)
    buckets = sketch._table.bucket_column(index)
    counters = sketch._table.table[rows, buckets]
    bucket_sizes = sketch._pi[rows, buckets]
    outside_mass = sketch._total_mass - counters
    outside_items = np.maximum(sketch.dimension - bucket_sizes, 1.0)
    background = outside_mass / outside_items * (bucket_sizes - 1.0)
    return float(np.median(counters - background))


def _debiased_count_min_query_batch(sketch, indices) -> np.ndarray:
    idx, _ = sketch._check_batch(indices, None)
    cols = sketch._table.bucket_columns(idx)
    counters = np.take_along_axis(sketch._table.table, cols, axis=1)
    bucket_sizes = np.take_along_axis(sketch._pi, cols, axis=1)
    outside_mass = sketch._total_mass - counters
    outside_items = np.maximum(sketch.dimension - bucket_sizes, 1.0)
    background = outside_mass / outside_items * (bucket_sizes - 1.0)
    return np.median(counters - background, axis=0)


#: registry name → (reference ``query``, reference ``query_batch``)
KERNELS = {
    "count_sketch": (_median_of_rows_query, _median_of_rows_query_batch),
    "count_median": (_median_of_rows_query, _median_of_rows_query_batch),
    "count_min": (_min_of_rows_query, _min_of_rows_query_batch),
    "count_min_cu": (_min_of_rows_query, _min_of_rows_query_batch),
    "count_min_log_cu": (_log_counter_query, _log_counter_query_batch),
    "l1_sr": (_l1_sr_query, _l1_sr_query_batch),
    "l1_sr_streaming": (_l1_sr_query, _l1_sr_query_batch),
    "l2_sr": (_l2_sr_query, _l2_sr_query_batch),
    "l2_sr_streaming": (_l2_sr_query, _l2_sr_query_batch),
    "l1_mean": (_mean_query, _mean_query_batch),
    "l2_mean": (_mean_query, _mean_query_batch),
    "debiased_count_min": (_debiased_count_min_query,
                           _debiased_count_min_query_batch),
}


def query(sketch, index: int) -> float:
    """The reference point estimate of ``index`` for any registered kind."""
    return KERNELS[sketch.name][0](sketch, index)


def query_batch(sketch, indices) -> np.ndarray:
    """The reference point estimates of a key batch for any registered kind."""
    return KERNELS[sketch.name][1](sketch, indices)


# ---------------------------------------------------------------------- #
# the two-pass heavy-hitter scan
# ---------------------------------------------------------------------- #
def _candidate_blocks(
    sketch, candidates
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    if candidates is not None:
        arr, _ = ensure_batch_arrays(candidates, None, sketch.dimension,
                                     name="candidates")
        idx = np.unique(arr)
        for start in range(0, idx.size, SCAN_BLOCK):
            chunk = idx[start:start + SCAN_BLOCK]
            yield chunk, np.asarray(sketch.query_batch(chunk),
                                    dtype=np.float64)
        return
    if sketch.dimension is None:
        raise ValueError(
            "an unbounded (dimension=None) sketch cannot be scanned for "
            "heavy hitters; pass candidates=... with the keys to evaluate "
            "(e.g. the tracked set of a StreamingTopK)"
        )
    for start in range(0, sketch.dimension, SCAN_BLOCK):
        idx = np.arange(start, min(start + SCAN_BLOCK, sketch.dimension))
        yield idx, np.asarray(sketch.query_batch(idx), dtype=np.float64)


def heavy_hitters(
    sketch,
    threshold: Optional[float] = None,
    phi: Optional[float] = None,
    total_mass: Optional[float] = None,
    relative_to_bias: bool = False,
    top_k: Optional[int] = None,
    candidates=None,
) -> List[HeavyHitter]:
    if (threshold is None) == (phi is None):
        raise ValueError("provide exactly one of threshold and phi")

    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")

    bias = 0.0
    if relative_to_bias and hasattr(sketch, "estimate_bias"):
        bias = float(sketch.estimate_bias())

    if phi is not None:
        if not (0.0 < phi < 1.0):
            raise ValueError(f"phi must lie in (0, 1), got {phi}")
        if total_mass is None:
            mass_keys = candidates if sketch.dimension is None else None
            total_mass = sum(
                float(np.sum(np.abs(estimates)))
                for _, estimates in _candidate_blocks(sketch, mass_keys)
            )
        threshold = phi * total_mass

    hitters: List[HeavyHitter] = []
    for idx, estimates in _candidate_blocks(sketch, candidates):
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
            hitters = heapq.nlargest(
                top_k, hitters + block_hitters, key=lambda h: h.score
            )
    hitters.sort(key=lambda h: h.score, reverse=True)
    return hitters
