"""Count-Min with conservative update (CM-CU) [Estan & Varghese 2002; Goyal et al. 2012].

Conservative update only raises a counter as far as is necessary for the
current item's estimate to reflect the new total: on an update ``(i, Δ)`` the
current estimate ``m = min_r table[r, h_r(i)]`` is computed and every counter
of item ``i`` is set to ``max(counter, m + Δ)``.  This strictly tightens the
Count-Min over-estimate, which is why the paper compares against CM-CU rather
than plain Count-Min (Section 5.1).

The price is the loss of linearity: CM-CU sketches of two sub-streams cannot
be merged into the sketch of their union, so CM-CU cannot be used in the
distributed model.  Accordingly this class implements :class:`Sketch` but not
:class:`LinearSketch`; calling :meth:`merge` raises
:class:`~repro.api.CapabilityError` (a ``TypeError`` subclass).

Order-dependence does **not** force scalar ingestion, though.  Batches flush
through the segmented engine of :mod:`repro.sketches._cu_batch`: a
run-coalesced batch is split into maximal *conflict-free segments* —
consecutive runs whose ``(row, bucket)`` footprints are pairwise disjoint.
Within a segment no run can read a counter another run writes, so every run
observes exactly the table state the scalar replay would show it, and the
min/max rule vectorises over the whole segment (one gather, ``min`` over
depth, ``target = min + Δ``, one ``np.maximum`` scatter).  Only true
collisions force a segment boundary and order across segments is preserved.
Two updates of one key coalesce into one whenever no update between them
touches the key's counters — consecutive repeats always, and repeats with
other keys' runs between them when at least a quarter of a chunk's runs
can fold that way, as the repeats of a skewed stream's heavy keys do.  So
the batched state is **bit-identical** to scalar replay for integer deltas
(float deltas match to coalescing order).  This is what makes CM-CU
*exact-batchable* without being linear — the capability
(``SketchSpec.exact_batch``) that lets tumbling-mode windows accept CU
kinds: tumbling panes are independent and never merge, so the pane ring
never needs the merge algebra (sliding and decay windows still do, and
still reject CU kinds).

Only non-negative increments are supported (cash-register streams), matching
the original definition.
"""

from __future__ import annotations

import numpy as np

from repro.serialization import register_serializable
from repro.sketches import _cu_batch
from repro.sketches._tables import HashedCounterTable
from repro.sketches.base import SCAN_BLOCK, Sketch
from repro.utils.rng import RandomSource


class _ConservativeUpdateSketch(Sketch):
    """What the two conservative-update kinds share.

    One unsigned counter table, deltas and dense vectors that must be
    non-negative, and a :meth:`merge` that raises
    :class:`~repro.api.CapabilityError`.
    A dense vector is ingested by the default :meth:`Sketch.fit`: one
    weighted conservative update per non-zero coordinate, in increasing
    index order, through the segmented batch path — for CML-CU the draw
    sequence, and hence the table and generator state, is exactly the
    scalar loop's.
    """

    #: the kind's name in error messages, in full and abbreviated
    _labels = ("Count-Min with conservative update", "CM-CU")

    def __init__(
        self,
        dimension: int,
        width: int,
        depth: int,
        seed: RandomSource = None,
    ) -> None:
        super().__init__(dimension, width, depth, seed=seed)
        self._table = HashedCounterTable(
            dimension, width, depth, signed=False, seed=seed
        )
        self._tables = {"table": self._table}
        self._rows = np.arange(depth)

    def _check_vector(self, x) -> np.ndarray:
        arr = super()._check_vector(x)
        if np.any(arr < 0):
            raise ValueError(
                f"{self._labels[1]} requires a non-negative frequency vector"
            )
        return arr

    def _negative_delta(self) -> ValueError:
        return ValueError(
            f"{self._labels[0]} only supports non-negative increments"
        )

    def _check_delta(self, delta) -> float:
        delta = super()._check_delta(delta)
        if delta < 0:
            raise self._negative_delta()
        return delta

    def _check_batch(self, indices, deltas):
        """Every kind's batch checks, then the cash-register rule.

        A server runs this at the door too (through
        :meth:`~repro.api.SketchSession.check_batch`), so it refuses on the
        connection any batch its writer would drop.
        """
        idx, d = super()._check_batch(indices, deltas)
        if np.any(d < 0):
            raise self._negative_delta()
        return idx, d

    def merge(self, other) -> "_ConservativeUpdateSketch":
        """Conservative update is not linear; merging is undefined."""
        # local import: repro.api.errors is below the sketch layer only at
        # runtime (the registry imports this module at api import time)
        from repro.api.errors import CapabilityError

        raise CapabilityError(
            f"{self._labels[0]} is not linear and cannot be merged; use "
            "CountMin, CountMedian, CountSketch or the bias-aware sketches "
            "in the distributed model"
        )


class CountMinCU(_ConservativeUpdateSketch):
    """Count-Min with conservative update (non-linear, cash-register only)."""

    name = "count_min_cu"

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def update(self, index: int, delta: float = 1.0) -> None:
        index = self._check_index(index)
        delta = self._check_delta(delta)
        if delta == 0:
            return
        cols = self._table.bucket_column(index)
        current = self._table.table[self._rows, cols]
        target = float(np.min(current)) + delta
        self._table.table[self._rows, cols] = np.maximum(current, target)
        self._items_processed += 1

    def update_batch(self, indices, deltas=None) -> "CountMinCU":
        """Segmented vectorised batch ingestion preserving stream order.

        Consecutive runs of the same index are coalesced into one weighted
        update (exact for CM-CU: applying ``Δ₁`` then ``Δ₂`` to an untouched
        item raises its counters exactly as ``Δ₁ + Δ₂`` does), then the runs
        flush through the conflict-free segments of
        :mod:`repro.sketches._cu_batch`, which also folds a key's repeated
        runs into one when no run between them touches the key's counters
        — the final state equals scalar replay bit-identically for integer
        deltas.  Work proceeds one :data:`SCAN_BLOCK` chunk at a time so
        transient memory stays O(depth × block) however large the batch.
        """
        idx, d = self._check_batch(indices, deltas)
        if idx.size == 0:
            return self
        applied = int(np.count_nonzero(d))
        run_indices, run_deltas = _cu_batch.coalesce_runs(idx, d)
        live = run_deltas != 0
        if not live.all():
            run_indices = run_indices[live]
            run_deltas = run_deltas[live]
        self._flush_runs(run_indices, run_deltas)
        self._items_processed += applied
        return self

    def _flush_runs(self, run_indices: np.ndarray, run_deltas: np.ndarray) -> None:
        """Apply coalesced non-zero runs through the segmented engine."""
        table = self._table.table
        table_cells = self.depth * self.width
        for begin in range(0, run_indices.size, SCAN_BLOCK):
            stop = begin + SCAN_BLOCK
            keys, deltas = run_indices[begin:stop], run_deltas[begin:stop]
            cells = _cu_batch.flat_cells(
                self._table.bucket_columns(keys), self.width
            )
            # may fold a key's repeated runs into the front of cells and
            # deltas; the bounds then cover only the kept runs
            bounds = _cu_batch.segment_bounds(cells, table_cells, keys, deltas)
            _cu_batch.apply_conservative(table, cells, deltas, bounds)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def _estimate(self, keys):
        return np.min(self._table.row_estimates(keys), axis=0)


register_serializable(CountMinCU)
