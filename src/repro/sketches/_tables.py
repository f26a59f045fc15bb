"""Internal helper: a depth × width counter table addressed by hashed buckets.

All table-based sketches (Count-Min, Count-Median, Count-Sketch and their
conservative-update variants, plus the bias-aware sketches built on top) share
the same storage layout: a ``(depth, width)`` array of counters, a per-row
hash function assigning coordinates to buckets, and optionally a per-row sign
function.  This module centralises that machinery so the individual sketch
classes stay focused on their estimation rule.

Bucket (and sign) assignments are computed **on demand** with the fused
row-stacked :func:`~repro.hashing.families.hash_matrix` evaluator rather than
being precomputed per coordinate, so a table occupies O(depth × width) memory
regardless of the universe size — ``dimension`` may even be ``None``
(hashed-key mode), in which case any non-negative 64-bit integer is a valid
key.  A small block cache keeps the assignments of the hottest (lowest) keys
materialised, which restores the one-gather fast path for the dense small
universes the evaluation harness sweeps.  Every batch of bucket or sign
columns comes back C-ordered, whichever path served it: hot keys by one
``take`` along the key axis of the cache, cold keys by ``hash_matrix``, and a
mixed batch filled into one ``np.empty``.  So ``add_batch`` ravels its flat
cells and weights, and the read kernel takes at its cells, without a copy;
plain ``cache[:, keys]`` fancy indexing would return an F-ordered array that
both copy again.  (The conservative-update engine reads its cells run by
run and asks for F order itself, in ``_cu_batch.flat_cells``.)

Data-independent structure that *is* O(width) — the per-bucket coordinate
counts π / sign sums ψ needed by the bias-aware recovery — is computed by a
blockwise scan over the (necessarily bounded) domain and memoised in a
module-level cache keyed by the table's structural identity, so copies,
restored shards and distributed replicas share one array instead of paying
the O(n) scan each.  The hash and sign families of an integer seed are
memoised the same way, so a restore, a ``copy()`` or a fresh window pane
does not re-draw them.

Every point query reads through one kernel.
:meth:`HashedCounterTable.row_estimates` turns a key batch into flat cells
once (bucket columns plus row offsets) and reads the ``(depth, keys)`` row
estimates at them, under the kind's elementwise de-biasing rule if it has
one: per cell for a batch narrower than the table, once per bucket of the
whole table for a wider one.  The min kinds take the minimum of the rows,
and :func:`median_over_rows` combines the rows of the median kinds, by a
selection network on a wide batch of an odd depth and by a partition
otherwise.  Both switches are sizes the kernel sees, so a narrow point query
keeps the per-cell rule and the partition, and only a wide read (a
heavy-hitter scan, ``recover()``, a range sum) takes the other side.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hashing.families import (
    KWiseHash, hash_family, hash_key, hash_matrix,
)
from repro.hashing.signs import SignHash, sign_family, sign_key, sign_matrix
from repro.sketches.base import SCAN_BLOCK, _bound_buffer
from repro.utils.rng import RandomSource, derive_seed

#: keys below this bound have their bucket/sign assignments cached (hot-key
#: block cache); memory cost is O(depth × block), independent of ``dimension``,
#: and for universes up to the block size the cache restores the exact
#: one-gather fast path of the old precomputed tables
DEFAULT_CACHE_BLOCK = 1 << 16


#: memoised column sums shared across tables with identical structure;
#: bounded both by entry count and by total bytes so a long-lived process
#: sweeping many seeds (or large widths) cannot pin unbounded memory
_COLUMN_SUMS_CACHE: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
_COLUMN_SUMS_CACHE_LIMIT = 32
_COLUMN_SUMS_CACHE_MAX_BYTES = 64 * 2**20

#: memoised hot-key block caches (bucket + sign assignments of the lowest
#: keys), shared across tables with identical structure the same way: the
#: assignments are pure functions of the seed-derived hash family, so the
#: panes of a sliding window, shard replicas and copies all read one
#: read-only block instead of re-hashing the hot range per instance
_HOT_BLOCK_CACHE: "OrderedDict[Tuple, Tuple]" = OrderedDict()
_HOT_BLOCK_CACHE_LIMIT = 16
_HOT_BLOCK_CACHE_MAX_BYTES = 128 * 2**20


def _draw_families(seed: RandomSource, width: int, depth: int,
                   signed: bool) -> Tuple[List[KWiseHash],
                                          Optional[List[SignHash]]]:
    """The hash family, then the sign family of a signed table, of ``seed``."""
    hashes = hash_family(depth, width, seed=derive_seed(seed, 101))
    signs = sign_family(depth, seed=derive_seed(seed, 202)) if signed else None
    return hashes, signs


@functools.lru_cache(maxsize=64)
def _seeded_families(structure_key: Tuple):
    """:func:`_draw_families` memoised per structural identity.

    An integer seed's families are a pure function of it, so every restore,
    ``copy()``, pane and replica of a table shares one read-only pair instead
    of re-drawing ``depth`` (or ``2 × depth``) hash functions.  An entry is a
    few KB, so a count bound is enough.
    """
    seed, _, width, depth, signed = structure_key
    return _draw_families(seed, width, depth, signed)


#: the deepest odd depth whose median a selection network serves: its
#: comparators stream the whole batch once each, and from depth 27 on a
#: 20,000-key batch they cost more than one ``np.partition``
NETWORK_MAX_DEPTH = 25

#: a batch takes the network once it has this many keys per comparator;
#: at every depth measured the network overtook the partition below 32
NETWORK_KEYS_PER_COMPARATOR = 64


def _batcher_comparators(size: int) -> List[Tuple[int, int]]:
    """Batcher's odd–even merge sort of ``size`` (a power of two) rows."""
    pairs = []
    merged = 1
    while merged < size:
        step = merged
        while step >= 1:
            for base in range(step % merged, size - step, 2 * step):
                for offset in range(min(step, size - base - step)):
                    low = base + offset
                    if low // (2 * merged) == (low + step) // (2 * merged):
                        pairs.append((low, low + step))
            step //= 2
        merged *= 2
    return pairs


@functools.lru_cache(maxsize=32)
def median_network(depth: int) -> Optional[Tuple[Tuple[int, int, bool, bool],
                                                 ...]]:
    """The compare-exchanges that bring the middle of ``depth`` rows to its row.

    Each entry ``(low, high, keep_min, keep_max)`` moves the smaller of rows
    ``low < high`` to ``low`` and the larger to ``high``, and names which of
    the two results a later entry (or the middle row itself) still reads.
    Built from Batcher's sort of the next power of two: a comparator that
    touches a row ``>= depth`` would face +∞ padding and never swap, and one
    on no path to the middle row is dropped.  That leaves 8 comparators at
    depth 5 and 24 at depth 9.  ``None`` for an even depth, or one deeper
    than :data:`NETWORK_MAX_DEPTH`.
    """
    if depth % 2 == 0 or depth > NETWORK_MAX_DEPTH:
        return None
    size = 1 << (depth - 1).bit_length()
    live = {depth // 2}
    kept = []
    for low, high in reversed(_batcher_comparators(size)):
        if high < depth and (low in live or high in live):
            kept.append((low, high, low in live, high in live))
            live.update((low, high))
    return tuple(reversed(kept))


def _network_middle(values: np.ndarray, network) -> np.ndarray:
    """Run ``network`` over a scratch copy of the rows; the middle row.

    The copy has one spare row: a comparator whose two results are both read
    later writes its minimum there and swaps it in for ``low``, so no
    comparator allocates.
    """
    depth = values.shape[0]
    scratch = np.empty((depth + 1, values.shape[1]), dtype=values.dtype)
    scratch[:depth] = values
    rows = list(scratch)
    spare = rows.pop()
    for low, high, keep_min, keep_max in network:
        if keep_min and keep_max:
            np.minimum(rows[low], rows[high], out=spare)
            np.maximum(rows[low], rows[high], out=rows[high])
            rows[low], spare = spare, rows[low]
        elif keep_min:
            np.minimum(rows[low], rows[high], out=rows[low])
        else:
            np.maximum(rows[low], rows[high], out=rows[high])
    return rows[depth // 2]


def median_over_rows(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=0)``, bit for bit, without its generic overhead.

    ``np.median`` partitions on the middle rank(s) *and* on ``-1`` for its NaN
    check, then takes the ``np.mean`` of the middle slice.  For an odd depth
    this selects the middle rank alone and adds the ``0.0`` that the mean's
    sum starts from (which turns a ``-0.0`` median into ``0.0``, and makes the
    result independent of which signed zero the selection leaves in the
    middle).  A batch at least :data:`NETWORK_KEYS_PER_COMPARATOR` keys wide
    per comparator of its :func:`median_network` selects by that network;
    a narrower one partitions on the middle rank.  An even depth takes
    numpy's own mean of the two middle rows.  A batch holding a NaN falls
    back to ``np.median`` itself.
    """
    if np.isnan(values).any():
        return np.median(values, axis=0)
    middle = values.shape[0] // 2
    if values.shape[0] % 2:
        # a narrow batch leaves at the first test: no network is that short
        if values.shape[-1] >= NETWORK_KEYS_PER_COMPARATOR and values.ndim == 2:
            network = median_network(values.shape[0])
            if network and (values.shape[1]
                            >= NETWORK_KEYS_PER_COMPARATOR * len(network)):
                return _network_middle(values, network) + 0.0
        return np.partition(values, middle, axis=0)[middle] + 0.0
    part = np.partition(values, (middle - 1, middle), axis=0)
    return np.mean(part[middle - 1:middle + 1], axis=0)


def _unbounded_error(operation: str) -> ValueError:
    return ValueError(
        f"{operation} requires a bounded dimension; this table was built in "
        "hashed-key mode (dimension=None), where the key universe cannot be "
        "enumerated"
    )


class HashedCounterTable:
    """A ``(depth, width)`` counter table with per-row hashed bucket assignment.

    Parameters
    ----------
    dimension:
        Vector dimension ``n``, or ``None`` for hashed-key mode (any
        non-negative 64-bit integer key; domain-enumerating operations
        such as :meth:`add_vector` and :meth:`column_sums` become
        unavailable).
    width, depth:
        Buckets per row ``s``, number of rows ``d``.
    signed:
        When True, a per-row random sign function is drawn and applied to
        every update (Count-Sketch layout); when False updates are unsigned
        (Count-Min / Count-Median layout).
    seed:
        Randomness for the hash (and sign) functions.  The table derives
        distinct child seeds for the hash family and the sign family so that
        tables built from the same seed are identical.
    """

    def __init__(
        self,
        dimension: Optional[int],
        width: int,
        depth: int,
        signed: bool = False,
        seed: RandomSource = None,
    ) -> None:
        self.dimension = None if dimension is None else int(dimension)
        self.width = int(width)
        self.depth = int(depth)
        self.signed = bool(signed)
        self._seed = seed

        # shared between the tables of one integer seed: read-only, like π/ψ
        key = self._structure_key()
        families = (
            _draw_families(seed, self.width, self.depth, self.signed)
            if key is None else _seeded_families(key)
        )
        self.hashes: List[KWiseHash] = families[0]
        self.signs: Optional[List[SignHash]] = families[1]

        #: the counters themselves — the only O(width) mutable state
        self.table = np.zeros((depth, width), dtype=np.float64)
        # per-row offsets into the flattened table, used by the batched
        # scatter-add (shape (depth, 1) so it broadcasts against gathers)
        self._row_offsets = (np.arange(depth, dtype=np.int64) * width)[:, None]

        # hot-key block cache: assignments of keys in [0, cache_limit)
        if self.dimension is None:
            self._cache_limit = DEFAULT_CACHE_BLOCK
        else:
            self._cache_limit = min(self.dimension, DEFAULT_CACHE_BLOCK)
        self._bucket_cache: Optional[np.ndarray] = None
        self._sign_cache: Optional[np.ndarray] = None
        if self.dimension is not None and self.dimension <= DEFAULT_CACHE_BLOCK:
            # a small bounded universe is fully covered by the cache — fill
            # it now, which is exactly the (capped) precomputation the old
            # dense tables did at construction; large and unbounded
            # universes stay lazy so construction is O(depth × width)
            self._ensure_hot_cache()
        # per-instance memo of column_sums() (which itself consults the
        # module-level structural cache); the bias-aware sketches read their
        # π/ψ through this
        self._cached_column_sums: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # on-demand addressing
    # ------------------------------------------------------------------ #
    def _ensure_hot_cache(self) -> None:
        if self._bucket_cache is not None:
            return
        key = self._structure_key()
        if key is not None:
            cached = _HOT_BLOCK_CACHE.get(key)
            if cached is not None:
                _HOT_BLOCK_CACHE.move_to_end(key)
                self._bucket_cache, self._sign_cache = cached
                return
        hot = np.arange(self._cache_limit, dtype=np.int64)
        self._bucket_cache = hash_matrix(self.hashes, hot)
        if self.signed:
            self._sign_cache = sign_matrix(self.signs, hot).astype(np.float64)
        if key is not None:
            self._bucket_cache.setflags(write=False)
            if self._sign_cache is not None:
                self._sign_cache.setflags(write=False)
            _HOT_BLOCK_CACHE[key] = (self._bucket_cache, self._sign_cache)
            while len(_HOT_BLOCK_CACHE) > _HOT_BLOCK_CACHE_LIMIT or (
                len(_HOT_BLOCK_CACHE) > 1
                and sum(
                    bucket.nbytes + (0 if sign is None else sign.nbytes)
                    for bucket, sign in _HOT_BLOCK_CACHE.values()
                ) > _HOT_BLOCK_CACHE_MAX_BYTES
            ):
                _HOT_BLOCK_CACHE.popitem(last=False)

    def _checked_keys(self, indices) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size:
            low = int(indices.min())
            if low < 0:
                raise IndexError(f"keys must be non-negative, got {low}")
            if self.dimension is not None:
                high = int(indices.max())
                if high >= self.dimension:
                    raise IndexError(
                        f"keys must be in [0, {self.dimension}), got {high}"
                    )
        return indices

    def _gather(self, indices: np.ndarray, cache_name: str, evaluate,
                dtype) -> np.ndarray:
        """Serve a batch of keys from the hot cache, ``evaluate``, or both.

        The result is a C-ordered ``(depth, len(indices))`` array on every
        path.
        """
        indices = self._checked_keys(indices)
        if indices.size == 0:
            return np.empty((self.depth, 0), dtype=dtype)
        cold = indices >= self._cache_limit
        if not cold.any():
            self._ensure_hot_cache()
            return getattr(self, cache_name).take(indices, axis=1)
        if cold.all():
            return evaluate(indices)
        self._ensure_hot_cache()
        out = np.empty((self.depth, indices.size), dtype=dtype)
        hot = ~cold
        out[:, hot] = getattr(self, cache_name).take(indices[hot], axis=1)
        out[:, cold] = evaluate(indices[cold])
        return out

    def bucket_columns(self, indices: np.ndarray) -> np.ndarray:
        """The ``(depth, len(indices))`` bucket matrix for a batch of keys.

        Column ``j`` holds ``h_r(indices[j])`` for every row ``r``, computed
        with one fused :func:`hash_matrix` pass (hot keys come from the block
        cache instead).
        """
        return self._gather(
            indices, "_bucket_cache",
            lambda keys: hash_matrix(self.hashes, keys), np.int64,
        )

    def _checked_key(self, index: int) -> None:
        if index < 0:
            raise IndexError(f"keys must be non-negative, got {index}")
        if self.dimension is not None and index >= self.dimension:
            raise IndexError(
                f"keys must be in [0, {self.dimension}), got {index}"
            )

    def bucket_column(self, index: int) -> np.ndarray:
        """The ``(depth,)`` bucket assignments of one key."""
        self._checked_key(index)
        if index < self._cache_limit:
            self._ensure_hot_cache()
            return self._bucket_cache[:, index]
        # cold scalar path: exact integers, mixing the key once, beat
        # one-element numpy array machinery by several microseconds
        return np.array(hash_key(self.hashes, index), dtype=np.int64)

    def _require_signed(self) -> None:
        if not self.signed:
            raise ValueError(
                "this table is unsigned (Count-Min / Count-Median layout); "
                "sign functions exist only for signed (Count-Sketch) tables"
            )

    def sign_columns(self, indices: np.ndarray) -> np.ndarray:
        """The ``(depth, len(indices))`` ±1 sign matrix for a batch of keys."""
        self._require_signed()
        return self._gather(
            indices, "_sign_cache",
            lambda keys: sign_matrix(self.signs, keys).astype(np.float64),
            np.float64,
        )

    def sign_column(self, index: int) -> np.ndarray:
        """The ``(depth,)`` ±1 signs of one key."""
        self._require_signed()
        self._checked_key(index)
        if index < self._cache_limit:
            self._ensure_hot_cache()
            return self._sign_cache[:, index]
        return np.array(sign_key(self.signs, index), dtype=np.float64)

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def add_update(self, index: int, delta: float) -> None:
        """Apply ``x[index] += delta`` to every row of the table."""
        rows = np.arange(self.depth)
        cols = self.bucket_column(index)
        if self.signed:
            self.table[rows, cols] += delta * self.sign_column(index)
        else:
            self.table[rows, cols] += delta

    def add_batch(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Apply a batch of ``(index, delta)`` updates to every row at once.

        The scatter-add is performed with one ``np.bincount`` over the
        flattened ``(depth, width)`` table per :data:`SCAN_BLOCK` chunk:
        per-row bucket columns are hashed for the chunk in one fused pass,
        offset by ``row * width``, and accumulated in one go — so transient
        memory stays O(depth × block) no matter how large the batch.  For
        integer-valued deltas the resulting counters are bit-exact equal to
        replaying the batch through :meth:`add_update`; for general floats
        they agree up to summation order.
        """
        indices = np.asarray(indices)
        if indices.size == 0:
            return
        deltas = np.broadcast_to(deltas, indices.shape)
        for start in range(0, indices.size, SCAN_BLOCK):
            stop = start + SCAN_BLOCK
            chunk = indices[start:stop]
            cols = self.bucket_columns(chunk)
            if self.signed:
                weights = deltas[start:stop] * self.sign_columns(chunk)
            else:
                weights = np.broadcast_to(deltas[start:stop], cols.shape)
            flat = cols + self._row_offsets
            self.table += np.bincount(
                flat.ravel(), weights=weights.ravel(),
                minlength=self.table.size,
            ).reshape(self.depth, self.width)

    def add_vector(self, x: np.ndarray) -> None:
        """Apply a whole frequency vector ``x`` at once (vectorised path).

        The domain is scanned in blocks of :data:`SCAN_BLOCK` coordinates so
        transient memory stays O(depth × block) even for huge universes.
        """
        if self.dimension is None:
            raise _unbounded_error("ingesting a dense frequency vector")
        x = np.asarray(x, dtype=np.float64)
        for start in range(0, self.dimension, SCAN_BLOCK):
            stop = min(start + SCAN_BLOCK, self.dimension)
            block = np.arange(start, stop, dtype=np.int64)
            cols = self.bucket_columns(block)
            signs = self.sign_columns(block) if self.signed else None
            values = x[start:stop]
            for row in range(self.depth):
                weights = values if signs is None else values * signs[row]
                self.table[row] += np.bincount(
                    cols[row], weights=weights, minlength=self.width
                )

    # ------------------------------------------------------------------ #
    # estimates
    # ------------------------------------------------------------------ #
    def row_estimates(self, keys, rule=None, *per_bucket: np.ndarray):
        """Per-row estimates of a key batch or one key (sign-corrected if signed).

        For a batch the result has shape ``(depth, len(keys))``, column ``j``
        holding row ``r``'s estimate at bucket ``h_r(keys[j])``; for a single
        ``int`` key it has shape ``(depth,)``.  ``rule``, when given, is the
        kind's elementwise de-biasing rule: it maps the counters and each
        ``per_bucket`` array (π or ψ, say, shaped like the table) to one
        value per cell, and the keys' ±1 signs multiply what it returns.

        The flat cells (bucket columns plus row offsets) are computed once.
        A batch at least ``width`` keys wide applies ``rule`` once to the
        whole table and reads its result with one ``take``; a narrower batch
        or one key reads the counters and each ``per_bucket`` array with one
        ``take`` each and applies ``rule`` to those.  Both run the same float
        operations on the same operands, so they agree bit for bit.  A
        single key is addressed by the scalar hash path, which beats
        one-element numpy machinery by microseconds.
        """
        if isinstance(keys, int):
            cells = self.bucket_column(keys) + self._row_offsets[:, 0]
            signs = self.sign_column(keys) if self.signed else None
        else:
            cells = self.bucket_columns(keys)
            cells += self._row_offsets
            signs = self.sign_columns(keys) if self.signed else None
        if rule is None:
            values = self.table.take(cells)
        elif cells.ndim == 2 and cells.shape[1] >= self.width:
            values = rule(self.table, *per_bucket).take(cells)
        else:
            values = rule(*[array.take(cells)
                            for array in (self.table, *per_bucket)])
        if signs is not None:
            values *= signs
        return values

    # ------------------------------------------------------------------ #
    # structural vectors used by the bias-aware recovery
    # ------------------------------------------------------------------ #
    def _structure_key(self) -> Optional[Tuple]:
        """Cache key identifying this table's data-independent structure."""
        seed = self._seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            return None
        return (int(seed), self.dimension, self.width, self.depth, self.signed)

    def column_sums(self) -> np.ndarray:
        """Per-row column sums: π (unsigned) or ψ (signed), shape (depth, width).

        Row ``r`` holds the coordinate-wise sum of the columns of the r-th
        CM/CS matrix, i.e. the per-bucket count of coordinates (unsigned) or
        the per-bucket sum of signs (signed).  The bias-aware recovery
        subtracts ``β̂`` times these from the counters.

        Computed by a blockwise scan over the domain (O(n) time once,
        O(depth × block) transient memory) and memoised per structural
        identity, so copies and restored replicas of the same table share a
        single read-only array instead of re-scanning the domain.
        """
        if self.dimension is None:
            raise _unbounded_error("computing per-bucket coordinate counts")
        key = self._structure_key()
        if key is not None:
            cached = _COLUMN_SUMS_CACHE.get(key)
            if cached is not None:
                _COLUMN_SUMS_CACHE.move_to_end(key)
                return cached
        sums = np.zeros((self.depth, self.width), dtype=np.float64)
        for start in range(0, self.dimension, SCAN_BLOCK):
            stop = min(start + SCAN_BLOCK, self.dimension)
            block = np.arange(start, stop, dtype=np.int64)
            cols = self.bucket_columns(block)
            signs = self.sign_columns(block) if self.signed else None
            for row in range(self.depth):
                weights = None if signs is None else signs[row]
                sums[row] += np.bincount(
                    cols[row], weights=weights, minlength=self.width
                )
        if key is not None:
            sums.setflags(write=False)
            _COLUMN_SUMS_CACHE[key] = sums
            while len(_COLUMN_SUMS_CACHE) > _COLUMN_SUMS_CACHE_LIMIT or (
                len(_COLUMN_SUMS_CACHE) > 1
                and sum(a.nbytes for a in _COLUMN_SUMS_CACHE.values())
                > _COLUMN_SUMS_CACHE_MAX_BYTES
            ):
                _COLUMN_SUMS_CACHE.popitem(last=False)
        return sums

    def cached_column_sums(self) -> np.ndarray:
        """:meth:`column_sums`, memoised on the instance.

        π/ψ are data-independent and O(n) to scan for; computing them lazily
        on first use keeps construction O(depth × width).  The result must be
        treated as read-only (int-seeded tables share it across replicas).
        """
        if self._cached_column_sums is None:
            self._cached_column_sums = self.column_sums()
        return self._cached_column_sums

    # ------------------------------------------------------------------ #
    # shared-memory support
    # ------------------------------------------------------------------ #
    def bind_buffer(self, buffer: np.ndarray) -> None:
        """Rebind the counters to a caller-owned buffer (copy-in, then alias).

        ``buffer`` must be a C-contiguous float64 array of shape
        ``(depth, width)`` — typically a view into a
        :class:`SharedCounterBlock` — and becomes the table's live counter
        storage: the current counters are copied into it and every subsequent
        in-place mutation (:meth:`add_update`, :meth:`add_batch`,
        :meth:`add_vector`, and the owning sketch's ``merge``, ``scale`` and
        ``fold_state``) writes through to it.  This is what lets a worker
        process scatter-add directly into memory the parent can fold without
        any serialization.  (A sketch binds all its state arrays at once
        with ``LinearSketch.bind_state_buffers``.)
        """
        self.table = _bound_buffer(buffer, self.table)

    @property
    def counter_count(self) -> int:
        """Number of counters stored."""
        return self.depth * self.width


# ---------------------------------------------------------------------- #
# shared-memory counter storage
# ---------------------------------------------------------------------- #

#: a block layout: ``(field_name, shape, dtype_str)`` triples describing the
#: arrays packed C-contiguously into one shared-memory segment
BlockLayout = Tuple[Tuple[str, Tuple[int, ...], str], ...]


def _normalize_layout(layout: Sequence) -> BlockLayout:
    normalized = []
    for entry in layout:
        if len(entry) == 2:
            field, shape = entry
            dtype = "float64"
        else:
            field, shape, dtype = entry
        normalized.append(
            (str(field), tuple(int(s) for s in shape), np.dtype(dtype).name)
        )
    if not normalized:
        raise ValueError("a SharedCounterBlock needs at least one field")
    names = [field for field, _, _ in normalized]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate field names in block layout: {names}")
    return tuple(normalized)


def _layout_nbytes(layout: BlockLayout) -> int:
    return sum(
        int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        for _, shape, dtype in layout
    )


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment by name without resource-tracker registration.

    Before Python 3.13 (``track=False``), ``SharedMemory(name=...)``
    unconditionally registers the segment with the resource tracker, which
    is wrong for a non-owning attachment: under ``spawn`` the attacher's own
    tracker would warn about (and unlink) "leaked" segments the owner is
    still using, and under ``fork`` — where parent and child *share* one
    tracker process — an unregister-after-attach would cancel the owner's
    registration instead.  Suppressing registration during the attach is the
    one behaviour correct for both start methods: the owner's registration
    stays the single source of cleanup truth.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - python < 3.13
        pass
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


class SharedCounterBlock:
    """A set of named counter arrays living in one shared-memory segment.

    This is the storage layer of the zero-copy sharded-ingestion engine: the
    parent process *creates* one block per worker (owning the segment), each
    worker *attaches* to its block by name and binds its sketch's state
    arrays to the views (``LinearSketch.bind_state_buffers``), scatter-adds
    land directly in shared memory, and the parent folds the views with
    vectorized ``+=`` (``LinearSketch.fold_state``) — no counter bytes ever
    cross a pipe.

    Parameters are expressed as a *layout*: a sequence of
    ``(field_name, shape[, dtype])`` entries (dtype defaults to float64),
    packed C-contiguously into a single segment.  The attaching side must
    pass the identical layout — the block has no header; the layout travels
    out of band (it is derived deterministically from the sketch config on
    both sides).

    Lifecycle
    ---------
    * :meth:`create` — allocate a new zero-filled segment (owner).
    * :meth:`attach` — map an existing segment by name (non-owner; the
      attachment is unregistered from the resource tracker so worker exit
      never unlinks a segment the parent still owns).
    * :meth:`close` — drop this process's mapping (views become invalid).
    * :meth:`unlink` — remove the segment from the system (owner only);
      idempotent, and safe to call with workers still mapped (the memory is
      reclaimed once the last mapping closes).

    The owner is a context manager: ``with SharedCounterBlock.create(...) as
    block: ...`` closes *and unlinks* on exit, even on error.
    """

    def __init__(self, layout: Sequence, segment: shared_memory.SharedMemory,
                 owner: bool) -> None:
        self._layout = _normalize_layout(layout)
        self._segment: Optional[shared_memory.SharedMemory] = segment
        self._segment_name = segment.name
        self._owner = bool(owner)
        self._unlinked = False
        self._arrays: Dict[str, np.ndarray] = {}
        offset = 0
        for field, shape, dtype in self._layout:
            count = int(np.prod(shape, dtype=np.int64))
            view = np.frombuffer(
                segment.buf, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
            self._arrays[field] = view
            offset += count * np.dtype(dtype).itemsize

    # -- constructors ---------------------------------------------------- #
    @classmethod
    def create(cls, layout: Sequence,
               name: Optional[str] = None) -> "SharedCounterBlock":
        """Allocate a new zero-filled block; the caller owns the segment."""
        layout = _normalize_layout(layout)
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, _layout_nbytes(layout))
        )
        # POSIX shm is zero-filled on creation; make it explicit anyway so a
        # recycled name can never leak stale counters
        segment.buf[: _layout_nbytes(layout)] = bytes(_layout_nbytes(layout))
        return cls(layout, segment, owner=True)

    @classmethod
    def attach(cls, name: str, layout: Sequence) -> "SharedCounterBlock":
        """Map an existing block by segment name (non-owning)."""
        layout = _normalize_layout(layout)
        segment = _attach_untracked(name)
        if segment.size < _layout_nbytes(layout):
            segment.close()
            raise ValueError(
                f"segment {name!r} holds {segment.size} bytes, layout "
                f"needs {_layout_nbytes(layout)}"
            )
        return cls(layout, segment, owner=False)

    # -- access ---------------------------------------------------------- #
    @property
    def name(self) -> str:
        """System-wide segment name workers attach by."""
        return self._segment_name

    @property
    def layout(self) -> BlockLayout:
        return self._layout

    @property
    def nbytes(self) -> int:
        """Payload bytes of the layout (segment may be page-rounded larger)."""
        return _layout_nbytes(self._layout)

    @property
    def owner(self) -> bool:
        return self._owner

    @property
    def closed(self) -> bool:
        return self._segment is None

    @property
    def arrays(self) -> Dict[str, np.ndarray]:
        """Live views into the segment, keyed by layout field name."""
        if self._segment is None:
            raise ValueError("block is closed")
        return self._arrays

    def zero(self) -> None:
        """Reset every field to zero in place."""
        for view in self.arrays.values():
            view[...] = 0

    # -- lifecycle ------------------------------------------------------- #
    def close(self) -> None:
        """Drop this process's mapping.  Views handed out become invalid.

        If a bound sketch still references a view, the underlying mmap
        cannot be released yet — the mapping then dies with the process,
        which is fine (``unlink`` is what returns the memory to the OS).
        """
        if self._segment is None:
            return
        segment, self._segment = self._segment, None
        self._arrays = {}
        try:
            segment.close()
        except BufferError:
            # views are still referenced elsewhere (e.g. a sketch bound to
            # this block): the mapping dies with the process instead.
            # Neutralise the handle's close so its __del__ at interpreter
            # shutdown does not retry and spew "Exception ignored" noise.
            segment.close = lambda: None  # type: ignore[method-assign]

    def unlink(self) -> None:
        """Remove the segment system-wide (owner only; idempotent)."""
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        if self._segment is not None:
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        else:  # pragma: no cover - close() before unlink()
            try:
                shared_memory.SharedMemory(name=self._segment_name).unlink()
            except Exception:
                pass

    def __enter__(self) -> "SharedCounterBlock":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()
        self.close()

    def __del__(self) -> None:
        # Route garbage collection through the BufferError-safe close: when
        # a block and its view-holding arrays die in the same gc pass, the
        # raw SharedMemory.__del__ might run first and raise.  (Unlinking
        # stays the owner's explicit job — for pools, the weakref.finalize
        # backstop in repro.streaming.sharded.)
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._segment is None else self._segment.name
        fields = ", ".join(field for field, _, _ in self._layout)
        return f"SharedCounterBlock({state}, fields=[{fields}])"
