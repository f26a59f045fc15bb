"""Segmented conservative-update batching engine.

Conservative update (CM-CU / CML-CU) is order-dependent: every update reads
the *current* minimum of its counters before writing, so a batch cannot be
applied as one scatter-add the way the linear sketches are.  What it *can*
do is run in **conflict-free segments**.

The segment invariant
---------------------
Partition a run-coalesced batch into maximal groups of *consecutive* runs
whose ``(row, bucket)`` footprints are pairwise disjoint.  Within such a
segment no run can read a counter that another run in the segment writes, so
every run still observes exactly the table state left behind by the previous
segment — the same state the scalar replay would observe.  The conservative
min/max rule therefore vectorises *exactly* over the segment:

* one fancy-indexed gather of all the segment's counters,
* ``min`` over the depth axis,
* ``target = min + Δ`` per run,
* one ``np.maximum`` scatter back.

Because the segment's cells are pairwise distinct the scatter is
well-defined (no duplicate writes), and because ``min``/``max``/``+`` are
the very same float operations the scalar path performs, the final table is
bit-identical to scalar replay for integer deltas (float deltas match to
summation order, as consecutive equal indices are coalesced first).  Only a
true collision — two runs of the batch sharing a cell — forces a segment
boundary, and order across segments is preserved.

Segment construction
--------------------
Conceptually each run stamps its ``depth`` cells into a generation-stamped
visited array over the ``depth × width`` table; a run that touches an
already-stamped cell starts a new segment (bump the generation, no
clearing), which is O(batch × depth).  This module realises the same greedy
partition with array primitives so no per-run Python loop is needed:

1. flatten each run's cells to ids in ``[0, depth·width)`` and stable-sort
   the run-major cell stream (a radix sort for tables up to 2^16 cells);
2. equal adjacent sorted cells are conflict pairs ``(earlier, later)`` —
   within one sorted cell group run numbers increase, so adjacent pairs
   carry every constraint that matters (farther pairs are implied
   transitively through the running maximum);
3. a max-scatter of the pairs produces ``prev[j]`` — the nearest earlier
   run sharing a cell with run ``j`` — whose running maximum ``m`` is
   non-decreasing, so "first conflict at or after start ``s``" is a binary
   search; one vectorised ``searchsorted`` of every possible start yields a
   jump table the greedy scan follows.

The jump table equals the sequential stamped-array scan because boundaries
only advance: when a segment starts at ``s`` every conflict whose earlier
run precedes ``s`` is buried in completed segments, so the greedy boundary
is the first ``j`` with ``m[j] >= s`` (and ``prev[j] < j`` guarantees
strict progress).

Folding a key's repeated runs (CM-CU)
-------------------------------------
Two runs of one key share every cell, so on a skewed stream the heaviest
key alone sets the segment count: an 8,192-update Zipf(1.2) batch
coalesces to ~7,800 runs, ~1,200 of them the top key's, and needs
1,300–1,400 segments.  CM-CU therefore folds run ``j`` into ``prev[j]``
whenever both have the same key.  The fold is exact:

* no run between the two runs of the key touches its cells — ``prev[j]``
  is the *latest* run sharing a cell with ``j``, and an earlier run of the
  key shares all of them;
* runs with disjoint footprints commute, so run ``j`` can move up to sit
  right after ``prev[j]``;
* with ``Δ₁, Δ₂ ≥ 0``, two adjacent updates of one key equal one update of
  ``Δ₁ + Δ₂``, the identity :func:`coalesce_runs` already uses.

Folded runs form chains behind a kept head.  The heads come from pointer
doubling over ``prev``, each chain's deltas are summed with
``np.bincount`` in run order, ``prev`` is recomputed only for the kept
runs whose latest conflict was folded away, and the same greedy jump table
then runs over the kept runs.  That batch falls to 3,600–4,100 runs in
260–450 segments.

A chunk folds only when at least a quarter of its runs can fold.  The
share is a property of the input: 47–54% of the runs can fold on the
hashed Zipf benchmark stream (same-key repeats cause 81–91% of its segment
cuts), 1.5–2.3% on the Figure-6 Hudong stream (1.8% of its cuts), where
folding every chunk removed under 1% of the segments and cost the CU
speed gate's replay a quarter more CPU.

The fold works **in place**: :func:`segment_bounds` moves the kept runs, in
order, to the front of the ``cells`` and ``deltas`` it is given, each with
its chain's summed delta, and the last bound it returns is their count, so
a caller applies only that prefix.  It still sorts and returns its list
inside the one call, so a trace of ``segment_bounds`` counts the runs it
was given and the segments it made.  CML-CU passes no keys and never folds:
its randomised-rounding draws depend on each individual update.

Both :class:`~repro.sketches.conservative.CountMinCU` and
:class:`~repro.sketches.count_min_log.CountMinLogCU` flush through this
module; the log variant folds its probabilistic randomised-rounding
increments per segment through its own generator, keeping
seed-reproducibility.  The draws for a whole batch are taken as one block
up front (:meth:`numpy.random.Generator.random` consumes the identical
PCG64 stream whether drawn one at a time or as a block) and indexed by the
running count of fraction-bearing runs; the unused tail is handed back by
rewinding the bit generator, so the consumed stream — and the serialised
``rng_state`` — is exactly the scalar path's.

Numerical discipline: ``np.log``/``np.power`` may round the last ulp
differently from ``math.log``/``**`` (the SIMD loops round independently),
so all log-counter conversion tables are built with the scalar arithmetic
of ``counter_to_value``/``value_to_counter`` — bit-identity with the
scalar path is a test-pinned contract, not an accident.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

__all__ = [
    "coalesce_runs",
    "flat_cells",
    "segment_bounds",
    "apply_conservative",
    "LogCounterCodec",
    "apply_log_conservative",
]

#: stable argsort is a radix sort for ids this narrow — sorting the cell
#: stream dominates segmentation, so the dtype matters
_RADIX_MAX = np.iinfo(np.uint16).max

#: a chunk folds its repeated runs only when at least one run in this many
#: can fold (see :func:`segment_bounds`)
_FOLD_SHARE = 4

#: encode tables are cached per distinct delta; constant-delta batches are
#: the streaming norm, so the cache stays tiny — bound it anyway
_MAX_ENCODE_TABLES = 16

#: ``_min_over_rows(current, 0)`` is ``current.min(axis=0)`` without the
#: python-level wrapper, which costs as much as the reduction itself on a
#: segment of a few dozen runs
_min_over_rows = np.minimum.reduce


def coalesce_runs(indices: np.ndarray, deltas: np.ndarray):
    """Coalesce consecutive runs of the same index into one weighted update.

    Exact for CM-CU (applying ``Δ₁`` then ``Δ₂`` to the same item raises its
    counters exactly as ``Δ₁ + Δ₂`` does, bit-identically for integer
    deltas); must NOT be used for CML-CU, whose randomised-rounding draw
    sequence depends on the individual updates.
    """
    starts = np.concatenate(([0], np.flatnonzero(np.diff(indices) != 0) + 1))
    return indices[starts], np.add.reduceat(deltas, starts)


def flat_cells(columns: np.ndarray, width: int) -> np.ndarray:
    """Flatten a ``(depth, n)`` bucket-column matrix into flat cell ids.

    Cell ids live in ``[0, depth·width)``; within one run (one column of the
    matrix) the ids are distinct because the rows occupy disjoint ranges.
    The result is F-ordered, so each run's cells are adjacent in memory:
    :func:`segment_bounds` reads the run-major stream without a copy and
    every segment ``cells[:, s:e]`` is one contiguous block.
    """
    depth = columns.shape[0]
    offsets = (np.arange(depth, dtype=np.int64) * width)[:, None]
    return np.add(columns, offsets, order="F")


def segment_bounds(
    cells: np.ndarray,
    table_cells: int,
    keys: Optional[np.ndarray] = None,
    deltas: Optional[np.ndarray] = None,
) -> list:
    """Greedy conflict-free segmentation of a run-major cell footprint.

    ``cells`` is the ``(depth, n_runs)`` flat-cell matrix; the return value
    is the list of segment boundaries ``b`` with ``b[0] == 0`` such that
    runs ``b[k]:b[k+1]`` have pairwise disjoint footprints and every
    segment is maximal (extending any segment by one run would introduce a
    duplicate cell).

    Without ``keys``, ``b[-1] == n_runs``.  CM-CU passes each run's key
    and its non-negative ``deltas`` as well, so a run whose latest
    conflicting run has the same key can fold into it.  That is exact:

    * no run between the two runs of the key touches its cells (the
      earlier run is the *latest* that shares a cell with the later one,
      and two runs of one key share every cell);
    * runs with disjoint footprints commute, so the later run can move up
      to sit right after the earlier one;
    * with ``Δ₁, Δ₂ ≥ 0``, two adjacent updates of one key equal one
      update of ``Δ₁ + Δ₂`` (the identity :func:`coalesce_runs` uses).

    The fold happens only when at least a quarter of the runs can fold
    (about half can on the hashed Zipf benchmark stream, 1.5–2.3% on the
    Figure-6 Hudong stream, where folding would only cost time).  It then
    moves the kept runs, in order, to the front of ``cells`` and
    ``deltas`` **in place**, with each kept run's delta the sum of its
    chain, and ``b[-1]`` is their count: apply only that prefix.
    """
    depth, n_runs = cells.shape
    if n_runs <= 1:
        return [0, n_runs] if n_runs else [0]
    stream = np.ascontiguousarray(cells.T).reshape(-1)
    if table_cells <= _RADIX_MAX:
        stream = stream.astype(np.uint16)
    order = np.argsort(stream, kind="stable")
    sorted_runs = order // depth
    sorted_cells = stream[order]
    positions = np.flatnonzero(sorted_cells[1:] == sorted_cells[:-1])
    if positions.size == 0:
        return [0, n_runs]
    prev = np.full(n_runs, -1, dtype=np.int64)
    # the pair arrays stay temporaries: holding them until the call returns
    # slowed the whole CML-CU flush of the Figure-6 stream by 8-10%
    np.maximum.at(prev, sorted_runs[positions + 1], sorted_runs[positions])
    if keys is not None:
        prev = _fold_repeats(cells, keys, deltas, prev, sorted_runs, positions)
    n_runs = prev.size
    m = np.maximum.accumulate(prev)
    jump = np.searchsorted(m, np.arange(n_runs), side="left").tolist()
    bounds = [0]
    append = bounds.append
    s = jump[0]
    while s < n_runs:
        append(s)
        s = jump[s]
    append(n_runs)
    return bounds


def _fold_repeats(cells, keys, deltas, prev, sorted_runs, positions):
    """Fold each run into its latest conflict when both have one key.

    ``prev[j]`` is the latest run sharing a cell with run ``j``, scattered
    from the conflict pairs ``sorted_runs[positions]`` (earlier) and
    ``sorted_runs[positions + 1]`` (later).  Returns ``prev`` of the kept
    runs, renumbered in kept order, after moving the kept runs and their
    chain sums to the front of ``cells`` and ``deltas``; returns ``prev``
    unchanged when too few runs fold.
    """
    n_runs = prev.size
    folds = np.flatnonzero((keys[prev] == keys) & (prev >= 0))
    if folds.size * _FOLD_SHARE < n_runs:
        return prev
    # chain heads by pointer doubling: a folded run points at the run it
    # folds into until every pointer reaches a kept run
    head = np.arange(n_runs)
    parents = head[folds] = prev[folds]
    while True:
        grand = head[parents]
        if np.array_equal(grand, parents):
            break
        head[folds] = parents = grand
    sums = np.bincount(head, weights=deltas, minlength=n_runs)
    kept = np.ones(n_runs, dtype=bool)
    kept[folds] = False
    # a kept run whose latest conflict folded away conflicts last with the
    # latest head among its conflicts: in a folded run's cells the runs
    # since its head are all of the head's chain
    stale = kept & ~kept[prev] & (prev >= 0)
    if stale.any():
        prev[stale] = -1
        later = sorted_runs[positions + 1]
        pairs = np.flatnonzero(stale[later])
        np.maximum.at(
            prev, later[pairs], head[sorted_runs[positions[pairs]]]
        )
    runs = np.flatnonzero(kept)
    rank = np.cumsum(kept) - 1
    prev = prev[runs]
    prev = np.where(prev >= 0, rank[prev], -1)
    cells[:, :runs.size] = cells[:, runs]
    deltas[:runs.size] = sums[runs]
    return prev


def apply_conservative(
    table: np.ndarray,
    cells: np.ndarray,
    deltas: np.ndarray,
    bounds: list,
) -> None:
    """Flush CM-CU segments: gather → min over depth → ``max(cur, min+Δ)``.

    Mutates ``table`` in place.  Within a segment the cells are pairwise
    distinct, so the fancy-indexed assignment is a well-defined scatter and
    the arithmetic matches the scalar path operation for operation.
    """
    flat = table.reshape(-1)
    maximum, min_over_rows = np.maximum, _min_over_rows
    s = bounds[0]
    for e in bounds[1:]:
        seg = cells[:, s:e]
        current = flat[seg]
        target = min_over_rows(current, 0) + deltas[s:e]
        flat[seg] = maximum(current, target)
        s = e


class LogCounterCodec:
    """Exact log-counter conversion tables for :class:`CountMinLogCU`.

    Stored counters are integral, so decoding is a table lookup, and for a
    constant-delta batch the *encode* of ``value(c) + Δ`` is a function of
    the integer counter alone — one lookup replaces the whole
    decode → add → ``math.log`` pipeline in the hot loop.  Every table is
    built with the scalar ``**``/``math.log`` arithmetic of
    ``counter_to_value``/``value_to_counter`` (``np.power``/``np.log`` may
    round the last ulp differently), which keeps the batched path
    bit-identical to scalar replay.
    """

    def __init__(self, base: float, log_base: float) -> None:
        self.base = base
        self.log_base = log_base
        self._decode = np.empty(0, dtype=np.float64)
        self._encode = {}

    def decode_table(self, top_counter: int) -> np.ndarray:
        """Decode values for counters up to ``top_counter`` (inclusive)."""
        # return the table checked here: a codec is shared across threads
        # (see shared_log_codec), and another may swap in a shorter one
        decode = self._decode
        if top_counter >= decode.size:
            grow_to = max(top_counter + 1, 2 * decode.size, 1024)
            base, denom = self.base, self.base - 1.0
            decode = self._decode = np.array(
                [(base ** float(k) - 1.0) / denom for k in range(grow_to)],
                dtype=np.float64,
            )
        return decode

    def encode_tables(self, delta: float, top_counter: int):
        """Target floors and fractions for ``value(c) + delta``, ``c`` integral.

        Returns ``(floor, fraction)`` — ``np.modf`` of the fractional target
        counter — so the hot loop's rounding needs no per-segment ``modf``.
        """
        tables = self._encode.get(delta)
        if tables is None or tables[0].size <= top_counter:
            decode = self.decode_table(top_counter)
            scale, log_base, log = self.base - 1.0, self.log_base, math.log
            fractional = np.array(
                [
                    log((v + delta) * scale + 1.0) / log_base
                    for v in decode.tolist()
                ],
                dtype=np.float64,
            )
            fraction, floor = np.modf(fractional)
            if len(self._encode) >= _MAX_ENCODE_TABLES:
                self._encode.clear()
            tables = self._encode[delta] = (floor, fraction)
        return tables

    def top_counter(self, table: np.ndarray, deltas: np.ndarray) -> int:
        """Size estimate for the batch's lookup tables.

        The encode of the current total value plus everything the batch
        adds.  This is *almost always* an upper bound on any counter the
        batch produces, but not quite: a randomised round-up inflates the
        decoded value of a counter slightly, and under extreme collision
        pressure (every update contending for the same minimum counters)
        the inflation compounds past the estimate.
        :func:`apply_log_conservative` therefore treats this as a sizing
        hint and grows the tables on demand when a live counter outruns
        them.
        """
        scale = self.base - 1.0
        top_value = (
            (self.base ** float(table.max()) - 1.0) / scale
            + float(np.sum(deltas))
        )
        return int(math.log(top_value * scale + 1.0) / self.log_base) + 2


@functools.lru_cache(maxsize=8)
def shared_log_codec(base: float) -> LogCounterCodec:
    """The one :class:`LogCounterCodec` of ``base`` in this process.

    Its tables are a pure function of the base and the delta, so every
    pane, restore and ``copy()`` of a CML-CU sketch reads one set of
    tables instead of rebuilding its own on its first batch (11–21 ms of
    scalar ``**``/``math.log`` calls at the counters of the Figure-6
    stream on a 2-core host).
    """
    return LogCounterCodec(base, math.log(base))


def apply_log_conservative(
    table: np.ndarray,
    cells: np.ndarray,
    deltas: np.ndarray,
    bounds: list,
    codec: LogCounterCodec,
    rng: np.random.Generator,
) -> None:
    """Flush CML-CU segments with per-segment randomised rounding.

    Per segment: decode the minimum counters, add the deltas in value
    space, re-encode with the scalar arithmetic of ``value_to_counter``
    (via the codec's exact lookup tables on the constant-delta fast path)
    and resolve the fractional parts against the pre-drawn block —
    consuming one draw per strictly-positive fraction, in run order,
    exactly as the scalar path does.  The unused tail of the block is
    rewound afterwards so the generator state matches scalar replay bit
    for bit.
    """
    n_runs = cells.shape[1]
    if n_runs == 0:
        return
    flat = table.reshape(-1)
    top = codec.top_counter(flat, deltas)
    first = deltas[0]
    constant_delta = bool(np.all(deltas == first))
    if constant_delta:
        floors, fractions = codec.encode_tables(float(first), top)
        floor_take, fraction_take = floors.take, fractions.take
    else:
        decode_take = codec.decode_table(top).take
        scale, log_base, log = codec.base - 1.0, codec.log_base, math.log
    # counters are integral, so the batch can run on an int64 image of the
    # table (exact both ways below 2^53) — lookup indices then need no
    # per-segment astype, and scatter assignment casts the targets back
    counters = flat.astype(np.int64)
    draws = rng.random(n_runs)
    maximum, modf = np.maximum, np.modf
    min_over_rows, count_nonzero = _min_over_rows, np.count_nonzero
    used = 0
    s = bounds[0]
    for e in bounds[1:]:
        seg = cells[:, s:e]
        current = counters[seg]
        minimum = min_over_rows(current, 0)
        while True:
            try:
                if constant_delta:
                    target = floor_take(minimum)
                    fraction = fraction_take(minimum)
                else:
                    values = decode_take(minimum) + deltas[s:e]
                    fraction, target = modf(
                        np.array(
                            [
                                log(v * scale + 1.0) / log_base
                                for v in values.tolist()
                            ]
                        )
                    )
                break
            except IndexError:
                # compounding randomised round-ups outran the sizing
                # estimate (see top_counter); grow past the largest live
                # counter (geometric growth inside the codec) and retry —
                # the failed take had no side effects
                grown = int(minimum.max())
                if constant_delta:
                    floors, fractions = codec.encode_tables(
                        float(first), grown
                    )
                    floor_take, fraction_take = floors.take, fractions.take
                else:
                    decode_take = codec.decode_table(grown).take
        # count_nonzero answers "every fraction positive?" at a quarter of
        # the cost of fraction.all() on a segment this short
        if count_nonzero(fraction) == e - s:
            stop = used + (e - s)
            target += draws[used:stop] < fraction
        else:
            rounds_up = np.flatnonzero(fraction)
            stop = used + rounds_up.size
            target[rounds_up] += draws[used:stop] < fraction[rounds_up]
        used = stop
        counters[seg] = maximum(current, target)
        s = e
    np.copyto(flat, counters, casting="unsafe")
    if used < n_runs:
        # hand the unconsumed draws back so the generator state — which is
        # serialised with the sketch — matches the scalar replay exactly
        rng.bit_generator.advance(used - n_runs)
