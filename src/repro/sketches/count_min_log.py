"""Count-Min-Log with conservative update (CML-CU) [Pitel & Fouquier 2015].

Count-Min-Log replaces the linear counters of Count-Min with *logarithmic*
counters: a cell holding the integer value ``c`` represents the estimate

    value(c) = (base^c - 1) / (base - 1)

so that a small (8/16-bit) counter can represent very large counts, at the
cost of multiplicative noise.  Increments are probabilistic — a unit increment
raises ``c`` by one with probability ``base^{-c}`` — and conservative update
raises only the minimal counters.  The paper evaluates CML-CU with
``base = 1.00025`` (Section 5.1), where the log counters behave almost
linearly but still introduce the extra variance visible in its error curves.

For weighted updates (ingesting a whole frequency vector, or streams with
large deltas) this implementation uses the standard batch generalisation:
the target *value* ``min-estimate + Δ`` is converted back to counter units,
``c' = log_base(target · (base-1) + 1)``, and the fractional part is resolved
by a Bernoulli draw so the update is unbiased in counter space.  Unit
increments with ``Δ = 1`` reduce to (a numerically equivalent form of) the
original probabilistic increment.

Like CM-CU this sketch is not linear and cannot be merged
(:meth:`merge` raises :class:`~repro.api.CapabilityError`), but it *is*
exact-batchable: batches flush through the conflict-free segments of
:mod:`repro.sketches._cu_batch`, folding the randomised-rounding draws per
segment through the sketch's own generator in the scalar draw order — the
batched table **and** the serialised RNG state are bit-identical to scalar
replay.
"""

from __future__ import annotations

import math

import numpy as np

from repro.serialization import register_serializable
from repro.sketches import _cu_batch
from repro.sketches.base import SCAN_BLOCK
from repro.sketches.conservative import _ConservativeUpdateSketch
from repro.utils.rng import RandomSource, as_rng, derive_seed

#: the counter base used throughout the paper's experiments
PAPER_BASE = 1.00025


class CountMinLogCU(_ConservativeUpdateSketch):
    """Count-Min-Log with conservative update (non-linear, cash-register only)."""

    name = "count_min_log_cu"

    _labels = ("Count-Min-Log with conservative update", "CML-CU")

    def __init__(
        self,
        dimension: int,
        width: int,
        depth: int,
        base: float = PAPER_BASE,
        seed: RandomSource = None,
    ) -> None:
        super().__init__(dimension, width, depth, seed=seed)
        base = float(base)
        if base <= 1.0:
            raise ValueError(f"base must be > 1, got {base}")
        self.base = base
        self._log_base = math.log(base)
        self._rng = as_rng(derive_seed(seed, 303))

    # ------------------------------------------------------------------ #
    # log-counter arithmetic
    # ------------------------------------------------------------------ #
    def counter_to_value(self, counter: float) -> float:
        """Decode a log counter into the count it represents."""
        return (self.base ** counter - 1.0) / (self.base - 1.0)

    def value_to_counter(self, value: float) -> float:
        """Encode a count into (fractional) log-counter units."""
        if value < 0:
            raise ValueError(f"counts must be non-negative, got {value}")
        return math.log(value * (self.base - 1.0) + 1.0) / self._log_base

    def _log_codec(self) -> _cu_batch.LogCounterCodec:
        """The exact conversion tables, shared by every sketch of this base.

        Derived state only: never serialized, built on first use.
        """
        return _cu_batch.shared_log_codec(self.base)

    def _randomised_round(self, counter: float) -> float:
        """Round a fractional counter to an integer, unbiasedly in counter space."""
        floor = math.floor(counter)
        fraction = counter - floor
        if fraction > 0 and self._rng.random() < fraction:
            floor += 1
        return float(floor)

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def update(self, index: int, delta: float = 1.0) -> None:
        index = self._check_index(index)
        delta = self._check_delta(delta)
        if delta == 0:
            return
        cols = self._table.bucket_column(index)
        counters = self._table.table[self._rows, cols]
        current_value = self.counter_to_value(float(np.min(counters)))
        target_counter = self._randomised_round(
            self.value_to_counter(current_value + delta)
        )
        # conservative update: only raise counters below the target
        self._table.table[self._rows, cols] = np.maximum(counters, target_counter)
        self._items_processed += 1

    def update_batch(self, indices, deltas=None) -> "CountMinLogCU":
        """Segmented vectorised batch ingestion preserving stream order.

        The updates flush through the conflict-free segments of
        :mod:`repro.sketches._cu_batch`, applying exactly the arithmetic of
        :meth:`update` in stream order and consuming the randomised-rounding
        draws in the scalar sequence (one block draw per chunk, indexed in
        run order, unused tail rewound), so the batched path reaches a
        bit-identical state — table *and* generator.  (Unlike CM-CU,
        consecutive equal indices are *not* coalesced: merging them would
        change the draw sequence.)  Work proceeds one :data:`SCAN_BLOCK`
        chunk at a time so transient memory stays O(depth × block) however
        large the batch.
        """
        idx, d = self._check_batch(indices, deltas)
        # zero-delta updates consume no draw on the scalar path either;
        # drop them before anything touches the generator
        live = d != 0
        if not live.all():
            idx = idx[live]
            d = d[live]
        if idx.size == 0:
            return self
        codec = self._log_codec()
        table = self._table.table
        table_cells = self.depth * self.width
        for begin in range(0, idx.size, SCAN_BLOCK):
            stop = begin + SCAN_BLOCK
            cols = self._table.bucket_columns(idx[begin:stop])
            cells = _cu_batch.flat_cells(cols, self.width)
            bounds = _cu_batch.segment_bounds(cells, table_cells)
            _cu_batch.apply_log_conservative(
                table, cells, d[begin:stop], bounds, codec, self._rng
            )
        self._items_processed += int(idx.size)
        return self

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def _estimate(self, keys):
        min_counters = np.min(self._table.row_estimates(keys), axis=0)
        if isinstance(keys, int):
            return self.counter_to_value(float(min_counters))
        # the counters are integral, so decoding is a lookup in a table built
        # with the scalar arithmetic of counter_to_value: a batch answers each
        # key exactly as query() does (np.power rounds the last ulp
        # differently, and the subtraction magnifies it)
        top = int(min_counters.max()) if min_counters.size else 0
        decode = self._log_codec().decode_table(top)
        return decode[min_counters.astype(np.int64)]

    def _config_dict(self):
        config = super()._config_dict()
        config["base"] = self.base
        return config

    @classmethod
    def _from_config(cls, config):
        return cls(config["dimension"], config["width"], config["depth"],
                   base=config.get("base", PAPER_BASE), seed=config.get("seed"))

    def _state_meta(self):
        # the generator state makes post-restore randomised rounding replay
        # the exact draw sequence the original sketch would have used
        return {"rng_state": self._rng.bit_generator.state}

    def _load_state_payload(self, arrays, scalars, meta) -> None:
        super()._load_state_payload(arrays, scalars, meta)
        if "rng_state" in meta:
            self._rng.bit_generator.state = meta["rng_state"]


register_serializable(CountMinLogCU)
