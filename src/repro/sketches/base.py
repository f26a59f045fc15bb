"""Abstract sketch interfaces.

Every sketch in the library supports three ingestion paths:

* **streaming** — :meth:`Sketch.update` applies a single ``(index, delta)``
  update, which is the streaming model of the paper (Section 1);
* **batched streaming** — :meth:`Sketch.update_batch` applies a chunk of
  ``(index, delta)`` updates in stream order; subclasses vectorise the chunk
  through numpy scatter-adds, which is what makes trace replay run at
  hardware speed rather than python-loop speed;
* **vectorised** — :meth:`Sketch.fit` ingests a whole frequency vector at
  once through numpy, which is how the evaluation harness sketches the
  datasets efficiently.

For *linear* sketches the two paths produce identical state, and sketches of
partial vectors can be merged (:meth:`LinearSketch.merge`), which is the
property that makes them usable in the distributed model (Section 1).
Non-linear sketches (conservative update variants) only guarantee that both
paths apply the same per-item updates in index order.

Every sketch additionally implements the **state protocol**: its complete
mutable state is an explicit, portable artifact.

* :meth:`Sketch.state_dict` / :meth:`Sketch.from_state` — snapshot and
  restore the state as a plain dict (config + scalars + meta + arrays);
* :meth:`Sketch.to_bytes` / :meth:`Sketch.from_bytes` — the same state in
  the versioned, seed-reproducible binary wire format of
  :mod:`repro.serialization`, suitable for shipping between processes or
  machines (the distributed protocol and the sharded ingestion engine both
  exchange exactly these payloads);
* :meth:`Sketch.copy` — a deep copy routed through
  ``from_state(state_dict())``, so every sketch (linear or not) copies
  through the same audited path.

Data-independent structure (hash buckets, signs, sampled indices) is *not*
part of the state: it is re-derived from the integer ``seed`` on restore,
which keeps payloads at the size of the counters.

**What a kind writes, and what is derived.**  A table sketch registers its
:class:`~repro.sketches._tables.HashedCounterTable` instances in its
constructor, in ``self._tables``, keyed by the state-array name each is
serialized under.  A linear kind may add one *side state*
(``self._side_state``): the ℓ1 samples or a running sum, an object with
``update``, ``update_batch``, ``ingest_vector`` and ``size_in_words``, whose
state fields the kind names in ``_side_arrays`` and ``_side_scalars``.  From
these, :class:`Sketch` derives the state protocol (``_state_arrays``,
``_state_scalars``, ``_load_state_payload``), ``size_in_words``, ``table``,
and ``query``/``query_batch``, which validate once and call the kind's
``_estimate``.  :class:`LinearSketch` derives every ingest path,
``bind_state_buffers``, ``fold_state``, ``merge`` (the compatibility check
plus a fold of the peer's state) and ``scale``.  Every bulk path ends in
the one :meth:`Sketch._post_fold` hook, where the streaming kinds rebuild
their derived structures.  A kind keeps only its constructor, its
``_estimate``, its config (:meth:`Sketch._config_dict`,
:meth:`Sketch._from_config`) and compatibility extras, its uncounted
bookkeeping (:meth:`Sketch._state_meta`) and its own arithmetic.
"""

from __future__ import annotations

import abc
import math
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.serialization import (
    StateProtocolMixin,
    check_reconstructible,
    check_state_version,
    lookup_kind,
)
from repro.utils.rng import RandomSource
from repro.utils.validation import (
    ensure_1d_float_array,
    ensure_batch_arrays,
    require_index,
    require_positive_int,
)


#: coordinates processed per block by every domain-enumerating scan in the
#: library (dense-vector ingestion, column-sum computation, blockwise query
#: evaluation in :mod:`repro.queries`); bounds transient memory at
#: O(depth × block) regardless of the universe size
SCAN_BLOCK = 1 << 16


def _bound_buffer(buffer, live: np.ndarray) -> np.ndarray:
    """``buffer``, checked to fit ``live`` and holding a copy of its values.

    The buffer must be a C-contiguous float64 array of ``live``'s shape
    (typically a view into a
    :class:`~repro.sketches._tables.SharedCounterBlock`); the caller makes
    it the live storage.
    """
    if not isinstance(buffer, np.ndarray):
        raise TypeError("a state buffer must be a numpy array view")
    if buffer.shape != live.shape:
        raise ValueError(
            f"buffer has shape {buffer.shape}, expected {live.shape}"
        )
    if buffer.dtype != np.float64 or not buffer.flags.c_contiguous:
        raise ValueError("buffer must be C-contiguous float64")
    buffer[...] = live
    return buffer


class Sketch(StateProtocolMixin, abc.ABC):
    """Base class for all frequency sketches over vectors in ``R^dimension``.

    Parameters
    ----------
    dimension:
        Dimension ``n`` of the frequency vector being summarised, or ``None``
        for **hashed-key mode**: the universe is unbounded and any
        non-negative 64-bit integer is a valid key.  Streaming/batched
        updates and point queries work unchanged; operations that enumerate
        the universe (``fit`` on a dense vector, ``recover``) are
        unavailable, and the algorithm must not need O(n) data-independent
        structure (see ``SketchSpec.unbounded`` in the registry).
    width:
        Number of buckets ``s`` per hash row.
    depth:
        Number of independent hash rows ``d``.
    seed:
        Randomness for the hash functions.  Two sketches constructed with the
        same ``(dimension, width, depth, seed)`` are *compatible*: they use the
        same hash functions and may be merged (if linear) or compared.
    """

    #: short name used in result tables (overridden by subclasses); doubles
    #: as the ``kind`` tag of the serialized state
    name = "sketch"

    #: bumped by a subclass whenever the layout of its serialized state
    #: changes incompatibly; recorded in every payload next to the wire
    #: version so old snapshots fail loudly instead of silently misloading
    state_version = 1

    #: the side state's float64 arrays, as ``{state-array name: attribute}``
    #: (serialized after the tables' arrays, in this order)
    _side_arrays: Dict[str, str] = {}

    #: the side state's float scalars, as ``{scalar name: attribute}``
    _side_scalars: Dict[str, str] = {}

    def __init__(
        self,
        dimension: Optional[int],
        width: int,
        depth: int,
        seed: RandomSource = None,
    ) -> None:
        if dimension is None:
            self.dimension: Optional[int] = None
        else:
            self.dimension = require_positive_int(dimension, "dimension")
        self.width = require_positive_int(width, "width")
        self.depth = require_positive_int(depth, "depth")
        self.seed = seed
        self._items_processed = 0
        #: the counter tables, keyed by the state-array name each is
        #: serialized under; registered by each kind's constructor
        self._tables: Dict[str, Any] = {}
        #: state beside the tables that every ingest path also writes (see
        #: the module docstring), or ``None``
        self._side_state: Any = None

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def update(self, index: int, delta: float = 1.0) -> None:
        """Apply the streaming update ``x[index] += delta``."""

    def fit(self, x) -> "Sketch":
        """Ingest a whole frequency vector ``x`` (length ``dimension``).

        The default replays the non-zero coordinates in increasing index
        order, each with its full weight, as one :meth:`update_batch`.  That
        is the standard batch convention for the order-dependent
        conservative-update kinds, and what the evaluation harness uses for
        every algorithm so the comparison stays fair; their segmented batch
        path makes the replay bit-identical to the scalar loop (the
        coordinates are distinct and sorted).  Linear kinds with counter
        tables override it with one vectorised pass over the vector.
        Returns ``self`` for chaining.
        """
        arr = self._check_vector(x)
        indices = np.flatnonzero(arr)
        if indices.size:
            self.update_batch(indices, arr[indices])
        return self

    def update_batch(self, indices, deltas=None) -> "Sketch":
        """Apply a batch of streaming updates ``x[indices[j]] += deltas[j]``.

        Parameters
        ----------
        indices:
            1-D integer array-like of coordinates, in stream order.
        deltas:
            Matching 1-D float array-like of increments, a scalar broadcast to
            every index, or ``None`` for unit increments.

        The default implementation replays the batch through :meth:`update`
        one entry at a time; subclasses override it with a vectorised path.
        For *linear* sketches the batched path reaches exactly the same state
        as the scalar replay (bit-identical for integer-valued deltas, up to
        floating-point summation order otherwise); the conservative-update
        sketches preserve index-order semantics so the two paths stay
        equivalent as well.  Returns ``self`` for chaining.
        """
        idx, d = self._check_batch(indices, deltas)
        for index, delta in zip(idx.tolist(), d.tolist()):
            self.update(index, delta)
        return self

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, index: int) -> float:
        """Return the point-query estimate of coordinate ``index``."""
        return float(self._estimate(self._check_index(index)))

    def query_batch(self, indices) -> np.ndarray:
        """Point-query a batch of coordinates; returns one estimate per index.

        Equivalent to ``np.array([self.query(i) for i in indices])``: the
        batch is validated once and handed to the kind's estimator whole,
        so the evaluation harness can run thousands of queries per call.
        """
        idx, _ = self._check_batch(indices, None)
        return self._estimate(idx)

    def _estimate(self, keys):
        """The kind's estimation rule, for one validated key or a batch.

        An ``int`` key gives one estimate; an index array gives an array of
        estimates, one per key.  The default answers a batch key by key
        through :meth:`query`, for kinds that define only that.
        """
        if isinstance(keys, int):
            raise NotImplementedError(
                f"{type(self).__name__} defines neither query nor _estimate"
            )
        return np.array([self.query(int(i)) for i in keys], dtype=np.float64)

    def recover(self) -> np.ndarray:
        """Return the full recovered vector ``x̂`` (one estimate per coordinate).

        Evaluates the domain in :data:`SCAN_BLOCK` chunks of
        :meth:`query_batch`, so transient memory stays O(depth × block)
        even at huge dimensions (only the ``(n,)`` result itself scales
        with the universe).  Unavailable in hashed-key mode
        (``dimension=None``), whose universe cannot be enumerated.
        """
        self._require_bounded("recover()")
        return np.concatenate([
            np.asarray(
                self.query_batch(
                    np.arange(start, min(start + SCAN_BLOCK, self.dimension))
                ),
                dtype=np.float64,
            )
            for start in range(0, self.dimension, SCAN_BLOCK)
        ])

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def size_in_words(self) -> int:
        """Number of counter words the sketch stores (excluding O(d) hash seeds)."""
        words = sum(table.counter_count for table in self._tables.values())
        if self._side_state is not None:
            words += self._side_state.size_in_words()
        return words

    @property
    def table(self) -> np.ndarray:
        """The raw ``(depth, width)`` counter table serialized as ``table``.

        For inspection; the counters are read-mostly.
        """
        if "table" not in self._tables:
            raise AttributeError(f"{type(self).__name__} has no counter table")
        return self._tables["table"].table

    @property
    def items_processed(self) -> int:
        """Total number of updates applied (vectorised fits count non-zeros)."""
        return self._items_processed

    # ------------------------------------------------------------------ #
    # state protocol
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the sketch's complete state as a plain dict.

        The dict has five fixed keys: ``kind`` (the registry name),
        ``state_version``, ``config`` (constructor arguments, including the
        seed from which data-independent structure is re-derived),
        ``scalars`` (scalar state counted in the sketch's word footprint),
        ``meta`` (uncounted bookkeeping) and ``arrays`` (the counter arrays;
        snapshots are copies, never views of live state).
        """
        return {
            "kind": self.name,
            "state_version": self.state_version,
            "config": self._config_dict(),
            "scalars": self._state_scalars(),
            "meta": {"items_processed": int(self._items_processed),
                     **self._state_meta()},
            "arrays": {name: np.array(array, copy=True)
                       for name, array in self._state_arrays().items()},
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "Sketch":
        """Reconstruct a sketch from a :meth:`state_dict` snapshot.

        Dispatches on ``state["kind"]`` through the serialization registry,
        so ``Sketch.from_state`` restores any registered sketch; calling it
        on a concrete subclass additionally checks the kind matches.  The
        state must carry an integer seed (structure is re-derived from it)
        and a matching ``state_version``; both are validated loudly.
        """
        klass = lookup_kind(state["kind"])
        if not issubclass(klass, cls):
            raise TypeError(
                f"state of kind {state['kind']!r} restores a "
                f"{klass.__name__}, which is not a {cls.__name__}"
            )
        check_state_version(state, klass)
        check_reconstructible(state)
        sketch = klass._from_config(state.get("config", {}))
        sketch._load_state_payload(
            state.get("arrays", {}), state.get("scalars", {}),
            state.get("meta", {}),
        )
        return sketch

    # to_bytes / from_bytes / size_in_bytes / copy come from
    # StateProtocolMixin, layered on state_dict() / from_state().

    # -- subclass hooks -------------------------------------------------- #
    def _config_dict(self) -> Dict[str, Any]:
        """Constructor arguments; subclasses append their extra parameters."""
        seed = self.seed
        if isinstance(seed, np.integer):
            seed = int(seed)
        return {
            "dimension": self.dimension,
            "width": self.width,
            "depth": self.depth,
            "seed": seed,
        }

    @classmethod
    def _from_config(cls, config: Dict[str, Any]) -> "Sketch":
        """Build a blank sketch from a ``config`` dict; subclasses extend."""
        return cls(config["dimension"], config["width"], config["depth"],
                   seed=config.get("seed"))

    def _state_meta(self) -> Dict[str, Any]:
        """Uncounted JSON-able bookkeeping (e.g. RNG state)."""
        return {}

    def _post_fold(self, meta: Optional[Dict[str, Any]] = None) -> None:
        """Rebuild derived structures after a bulk change of the state (hook).

        Every restore ends here, and so does every bulk path of a linear
        kind: ``update_batch``, ``fit``, ``merge``, ``scale``,
        ``fold_state`` and ``bind_state_buffers``; a scalar ``update`` does
        not.  On a restore ``meta`` is the payload's bookkeeping, so a kind
        whose payload records a derived structure can restore it instead of
        rebuilding it.
        """

    # -- derived from the registered tables and side state --------------- #
    def _array_slots(self) -> Dict[str, Tuple[Any, str]]:
        """Where each state array lives: ``{name: (owner, attribute)}``."""
        slots = {name: (table, "table") for name, table in self._tables.items()}
        for name, attribute in self._side_arrays.items():
            slots[name] = (self._side_state, attribute)
        return slots

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        """The mutable state arrays (counted toward the word footprint)."""
        return {name: getattr(owner, attribute)
                for name, (owner, attribute) in self._array_slots().items()}

    def _state_scalars(self) -> Dict[str, float]:
        """Scalar state counted toward the word footprint (e.g. ‖x‖₁)."""
        return {name: float(getattr(self._side_state, attribute))
                for name, attribute in self._side_scalars.items()}

    def _set_state_scalars(self, scalars: Dict[str, float]) -> None:
        """Overwrite the side state's scalars with ``scalars``' values."""
        for name, attribute in self._side_scalars.items():
            setattr(self._side_state, attribute, float(scalars[name]))

    def _load_state_payload(self, arrays, scalars, meta) -> None:
        """Restore mutable state from a snapshot, then rebuild derived state."""
        self._items_processed = int(meta.get("items_processed", 0))
        for name, (owner, attribute) in self._array_slots().items():
            live = getattr(owner, attribute)
            restored = np.array(arrays[name], dtype=np.float64)
            if restored.shape != live.shape:
                raise ValueError(
                    f"restored {name} has shape {restored.shape}, "
                    f"expected {live.shape}"
                )
            setattr(owner, attribute, restored)
        self._set_state_scalars(scalars)
        self._post_fold(meta)

    def _require_bounded(self, operation: str) -> None:
        if self.dimension is None:
            raise ValueError(
                f"{operation} requires a bounded dimension; this sketch was "
                "built in hashed-key mode (dimension=None), where the key "
                "universe cannot be enumerated"
            )

    def _check_vector(self, x) -> np.ndarray:
        self._require_bounded("ingesting a dense frequency vector")
        arr = ensure_1d_float_array(x, "x")
        if arr.size != self.dimension:
            raise ValueError(
                f"vector has dimension {arr.size}, sketch expects {self.dimension}"
            )
        return arr

    def _check_index(self, index: int) -> int:
        return require_index(index, self.dimension)

    def _check_delta(self, delta) -> float:
        """A scalar update's delta, rejected unless finite as a batch's are."""
        delta = float(delta)
        if not math.isfinite(delta):
            raise ValueError("deltas must contain only finite values")
        return delta

    def _check_batch(self, indices, deltas):
        return ensure_batch_arrays(indices, deltas, self.dimension)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(dimension={self.dimension}, "
            f"width={self.width}, depth={self.depth})"
        )


class LinearSketch(Sketch):
    """A sketch that is a linear function of the input vector.

    Every state array and scalar of a linear kind is additive, so this class
    writes the kind's registered tables, then its side state, on every path:

    * :meth:`update`, :meth:`update_batch` and :meth:`fit` apply the same
      update to every table and to the side state;
    * :meth:`fold_state` adds a compatible sketch's raw state, and
      :meth:`merge` is the compatibility check plus a fold of the peer's
      state (sketch of the sum equals sum of the sketches);
    * :meth:`scale` multiplies that same state (sketch of ``c·x``).

    Each bulk path ends in :meth:`_post_fold`.  A linear kind without
    counter tables defines :meth:`update`, :meth:`query`,
    :meth:`size_in_words`, :meth:`merge` and :meth:`scale` itself; its
    batches and dense vectors replay through its own :meth:`update`.
    """

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def update(self, index: int, delta: float = 1.0) -> None:
        index = self._check_index(index)
        delta = self._check_delta(delta)
        for table in self._tables.values():
            table.add_update(index, delta)
        if self._side_state is not None:
            self._side_state.update(index, delta)
        self._items_processed += 1

    def update_batch(self, indices, deltas=None) -> "LinearSketch":
        """Vectorised batch ingestion: one scatter-add per table per chunk.

        The side state then takes the whole batch, and :meth:`_post_fold`
        rebuilds any derived structure once.
        """
        if not self._tables:
            return super().update_batch(indices, deltas)
        idx, d = self._check_batch(indices, deltas)
        for table in self._tables.values():
            table.add_batch(idx, d)
        if self._side_state is not None:
            self._side_state.update_batch(idx, d)
        self._items_processed += idx.size
        self._post_fold()
        return self

    def fit(self, x) -> "LinearSketch":
        if not self._tables:
            return super().fit(x)
        arr = self._check_vector(x)
        for table in self._tables.values():
            table.add_vector(arr)
        if self._side_state is not None:
            self._side_state.ingest_vector(arr)
        self._items_processed += int(np.count_nonzero(arr))
        self._post_fold()
        return self

    # ------------------------------------------------------------------ #
    # linearity
    # ------------------------------------------------------------------ #
    def merge(self, other: "LinearSketch") -> "LinearSketch":
        """Add ``other``'s state into this sketch in place and return ``self``."""
        return self._merge_all((other,))

    def _merge_all(self, others) -> "LinearSketch":
        """Merge each sketch of ``others`` in turn, then :meth:`_post_fold` once.

        A window's merged view and its pane compaction fold every pane
        through here, so a kind's derived structure is rebuilt once per
        call, not once per pane.
        """
        for other in others:
            self._check_compatible(other)
            self._add_state(
                other._state_arrays(), other._state_scalars(),
                other._items_processed,
            )
        self._post_fold()
        return self

    def scale(self, factor: float) -> "LinearSketch":
        """Scale the sketch state in place by ``factor`` and return ``self``."""
        factor = float(factor)
        for array in self._state_arrays().values():
            array *= factor
        self._set_state_scalars({
            name: value * factor
            for name, value in self._state_scalars().items()
        })
        self._post_fold()
        return self

    # ------------------------------------------------------------------ #
    # shared-memory fold protocol (zero-copy sharded ingestion)
    # ------------------------------------------------------------------ #
    def shared_state_layout(self) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
        """The ``(field, shape)`` layout of this sketch's foldable arrays.

        Derived from :meth:`_state_arrays` (every linear kind's mutable
        array state is float64), in sorted field order so the parent and the
        workers — which compute the layout independently from the same
        config — always agree byte-for-byte on the shared block layout.
        """
        return tuple(
            (name, tuple(array.shape))
            for name, array in sorted(self._state_arrays().items())
        )

    def bind_state_buffers(self, buffers: Dict[str, np.ndarray]) -> None:
        """Rebind every state array to a caller-owned buffer (copy-in).

        ``buffers`` maps :meth:`_state_arrays` field names to C-contiguous
        float64 arrays of matching shape — typically views into a
        :class:`~repro.sketches._tables.SharedCounterBlock`.  After binding,
        all in-place mutation (``update_batch``, ``merge``, ``scale``)
        writes through to the buffers, which is what lets a sharded-ingest
        worker scatter-add directly into memory the parent folds without
        serialization.
        """
        for name, (owner, attribute) in self._array_slots().items():
            live = getattr(owner, attribute)
            setattr(owner, attribute, _bound_buffer(buffers[name], live))
        self._post_fold()

    def fold_state(
        self,
        arrays: Dict[str, np.ndarray],
        scalars: Dict[str, float],
        items_processed: int,
    ) -> "LinearSketch":
        """Add a compatible sketch's raw state into this one (vectorized).

        ``arrays`` / ``scalars`` are the peer's :meth:`_state_arrays` /
        :meth:`_state_scalars` contents: another sketch's, for
        :meth:`merge`, or read straight out of a worker's shared-memory
        block, so nothing needs to be decoded or even pickled.  Every
        linear kind's array *and scalar* state is additive under merge, so
        the fold is ``+=`` all the way down; kinds with derived structures
        (heaps, sorted mirrors) rebuild them in :meth:`_post_fold`.  The
        caller is responsible for compatibility (same config/seed) —
        :meth:`merge` checks it, the sharded engine builds its workers from
        the target's config.
        """
        self._add_state(arrays, scalars, items_processed)
        self._post_fold()
        return self

    def _add_state(self, arrays, scalars, items_processed) -> None:
        """The sum of :meth:`fold_state`, without the :meth:`_post_fold`."""
        live = self._state_arrays()
        if set(arrays) != set(live):
            raise ValueError(
                f"fold_state got fields {sorted(arrays)}, "
                f"{type(self).__name__} has {sorted(live)}"
            )
        if set(scalars) != set(self._side_scalars):
            raise ValueError(
                f"fold_state got scalars {sorted(scalars)}, "
                f"{type(self).__name__} has {sorted(self._side_scalars)}"
            )
        for name, view in live.items():
            view += arrays[name]
        self._set_state_scalars({
            name: value + float(scalars[name])
            for name, value in self._state_scalars().items()
        })
        self._items_processed += int(items_processed)

    def _check_compatible(self, other: "LinearSketch") -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        if (
            other.dimension != self.dimension
            or other.width != self.width
            or other.depth != self.depth
        ):
            raise ValueError(
                "sketches must share (dimension, width, depth) to be merged; got "
                f"({self.dimension}, {self.width}, {self.depth}) vs "
                f"({other.dimension}, {other.width}, {other.depth})"
            )
        if self.seed is None or other.seed is None or self.seed != other.seed:
            raise ValueError(
                "sketches must be built from the same integer seed to share "
                "hash functions; construct both with an explicit seed"
            )

    def __add__(self, other: "LinearSketch") -> "LinearSketch":
        """Return a new sketch equal to the merge of ``self`` and ``other``."""
        merged = self.copy()
        merged.merge(other)
        return merged
