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
collisions force a segment boundary and order across segments is preserved,
so the batched state is **bit-identical** to scalar replay for integer
deltas (float deltas match to coalescing order).  This is what makes CM-CU
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


class CountMinCU(Sketch):
    """Count-Min with conservative update (non-linear, cash-register only)."""

    name = "count_min_cu"

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
        self._rows = np.arange(depth)

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def update(self, index: int, delta: float = 1.0) -> None:
        index = self._check_index(index)
        delta = float(delta)
        if delta < 0:
            raise ValueError(
                "conservative update only supports non-negative increments"
            )
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
        :mod:`repro.sketches._cu_batch` — the final state equals scalar
        replay bit-identically for integer deltas.  Work proceeds one
        :data:`SCAN_BLOCK` chunk at a time so transient memory stays
        O(depth × block) however large the batch.
        """
        idx, d = self._check_batch(indices, deltas)
        if np.any(d < 0):
            raise ValueError(
                "conservative update only supports non-negative increments"
            )
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
            cols = self._table.bucket_columns(run_indices[begin:stop])
            cells = _cu_batch.flat_cells(cols, self.width)
            bounds = _cu_batch.segment_bounds(cells, table_cells)
            _cu_batch.apply_conservative(
                table, cells, run_deltas[begin:stop], bounds
            )

    def fit(self, x) -> "CountMinCU":
        """Ingest a frequency vector by one weighted conservative update per item.

        Conservative update is order-dependent; this replays the non-zero
        coordinates in increasing index order with their full weight — the
        standard batch convention, and what the evaluation harness uses for
        every algorithm so the comparison stays fair.  The replay rides the
        segmented batch path (the coordinates are distinct and sorted, so
        coalescing is a no-op and the result matches the scalar loop
        bit-identically).
        """
        arr = self._check_vector(x)
        if np.any(arr < 0):
            raise ValueError("CM-CU requires a non-negative frequency vector")
        indices = np.flatnonzero(arr)
        if indices.size:
            self.update_batch(indices, arr[indices])
        return self

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, index: int) -> float:
        index = self._check_index(index)
        return float(np.min(self._table.row_estimates(index)))

    def query_batch(self, indices) -> np.ndarray:
        idx, _ = self._check_batch(indices, None)
        return np.min(self._table.row_estimates(idx), axis=0)

    # ------------------------------------------------------------------ #
    # non-linearity is the point
    # ------------------------------------------------------------------ #
    def merge(self, other) -> "CountMinCU":
        """CM-CU is not a linear sketch; merging is undefined."""
        # local import: repro.api.errors is below the sketch layer only at
        # runtime (the registry imports this module at api import time)
        from repro.api.errors import CapabilityError

        raise CapabilityError(
            "Count-Min with conservative update is not linear and cannot be "
            "merged; use CountMin, CountMedian, CountSketch or the bias-aware "
            "sketches in the distributed model"
        )

    def size_in_words(self) -> int:
        return self._table.counter_count

    def _state_arrays(self):
        return {"table": self._table.table}

    def _load_state_payload(self, arrays, scalars, meta) -> None:
        super()._load_state_payload(arrays, scalars, meta)
        self._table.load_table(arrays["table"])

    @property
    def table(self) -> np.ndarray:
        """The raw ``(depth, width)`` counter table (for inspection)."""
        return self._table.table


register_serializable(CountMinCU)
