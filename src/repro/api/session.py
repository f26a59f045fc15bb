"""The :class:`SketchSession` facade: one front door for the whole lifecycle.

A session owns a sketch built from a validated
:class:`~repro.api.SketchConfig` and exposes every operation the library
supports behind a uniform, capability-checked surface:

* **construction** — :meth:`SketchSession.from_config` (new sketch),
  :meth:`SketchSession.open` / :meth:`SketchSession.from_bytes` (restore a
  persisted one);
* **ingestion** — a single :meth:`ingest` that dispatches scalar updates,
  ``(index, delta)`` batches, dense frequency vectors,
  :class:`~repro.streaming.stream.UpdateStream` replays, and multi-core
  sharded ingestion, by input type and size; sessions configured with
  ``SketchConfig(window=WindowSpec(...))`` route every update (optionally
  timestamped) into the pane ring of
  :class:`~repro.streaming.windows.SlidingWindowSketch`, and every query
  below is answered over the current window only;
* **queries** — a single :meth:`query` dispatching the four query kinds
  (``point``, ``heavy_hitters``, ``range``, ``inner_product``), raising
  :class:`~repro.api.CapabilityError` for kinds the algorithm's spec does
  not declare;
* **composition and persistence** — :meth:`merge` (sessions, sketches or
  raw wire payloads), :meth:`save` / :meth:`to_bytes` riding the versioned
  binary state protocol of :mod:`repro.serialization`.

The CLI, the evaluation harness, the distributed sites and all examples go
through this facade.
"""

from __future__ import annotations

import functools
import math
import os
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from repro.api.config import SketchConfig
from repro.api.errors import CapabilityError, ConfigError
from repro.data.dataset import Dataset
from repro.queries.heavy_hitters import HeavyHitter, _heavy_hitters
from repro.queries.inner_product import _inner_product_estimate
from repro.queries.range_query import _range_sum
from repro.serialization import decode_state, reconstruction_errors
from repro.sketches.base import LinearSketch, Sketch
from repro.sketches.registry import QUERY_KINDS, SketchSpec
from repro.streaming.sharded import (
    DEFAULT_BATCH_SIZE,
    ShardedIngestPool,
    ShardedIngestReport,
)
from repro.streaming.stream import UpdateStream
from repro.store.uri import is_store_uri, parse_store_uri
from repro.utils.validation import require_positive_int


def read_payload(source: Any) -> bytes:
    """Read a wire payload from a polymorphic ``source``.

    This is the reader side of the library-wide I/O rule — every I/O entry
    point accepts all three source forms:

    * a **path** (``str`` / :class:`~pathlib.Path`) — the file's bytes;
    * a **binary file object** (anything with ``.read()``) — its contents
      (the object is left open);
    * a **store URI** (``store://PATH#NAME[@VERSION]``) — the named
      snapshot's payload from the :class:`~repro.store.SketchStore` catalog
      (latest version when ``@VERSION`` is omitted).
    """
    if is_store_uri(source):
        from repro.store import SketchStore

        reference = parse_store_uri(source)
        with SketchStore(reference.path) as store:
            return store.get_payload(reference.name, reference.version)
    reader = getattr(source, "read", None)
    if callable(reader):
        return bytes(reader())
    with open(source, "rb") as handle:
        return handle.read()


#: update count at which :meth:`SketchSession.ingest` switches to the
#: multi-core sharded engine on its own (linear sketches with integer seeds
#: on multi-core machines); explicit ``shards=`` always wins
DEFAULT_AUTO_SHARD_THRESHOLD = 2_000_000

#: cap on automatically chosen shard counts (beyond ~8 workers the merge
#: and serialization overhead outweighs the extra cores for typical sizes)
_MAX_AUTO_SHARDS = 8


class SketchSession:
    """A stateful facade over one sketch's full lifecycle.

    Build one with :meth:`from_config` (fresh sketch) or :meth:`open` /
    :meth:`from_bytes` (restored sketch); never construct sketches directly.

    >>> from repro.api import SketchConfig, SketchSession
    >>> session = SketchSession.from_config(
    ...     SketchConfig("l2_sr", dimension=10_000, width=512, depth=7, seed=1)
    ... )
    >>> _ = session.ingest(vector)                      # dense vector
    >>> session.query(kind="point", index=123)          # one estimate
    >>> session.save("traffic.sketch")                  # persist
    >>> again = SketchSession.open("traffic.sketch")    # restore anywhere
    """

    def __init__(self, config: SketchConfig, sketch: Any) -> None:
        # internal: use from_config / open / from_bytes
        from repro.streaming.windows import SlidingWindowSketch

        self._config = config
        if isinstance(sketch, SlidingWindowSketch):
            self._window: Optional[SlidingWindowSketch] = sketch
            self._sketch: Optional[Sketch] = None
        else:
            self._window = None
            self._sketch = sketch
        self._last_shard_report: Optional[ShardedIngestReport] = None
        self._auto_shard_threshold: Optional[int] = DEFAULT_AUTO_SHARD_THRESHOLD
        self._pool: Optional[ShardedIngestPool] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(
        cls,
        config: Union[SketchConfig, str, None] = None,
        *,
        auto_shard_threshold: Optional[int] = DEFAULT_AUTO_SHARD_THRESHOLD,
        **fields: Any,
    ) -> "SketchSession":
        """Open a session on a fresh sketch built from ``config``.

        ``config`` is a :class:`SketchConfig`, or an algorithm name with the
        remaining config fields passed as keyword arguments::

            SketchSession.from_config("l2_sr", dimension=10_000, width=512,
                                      depth=7, seed=1)

        ``auto_shard_threshold`` tunes when large batched ingests switch to
        the multi-core sharded engine (``None`` disables auto-sharding).
        """
        if isinstance(config, str):
            config = SketchConfig(config, **fields)
        elif config is None:
            config = SketchConfig(**fields)
        elif fields:
            raise ConfigError(
                "pass either a SketchConfig or name/field keyword arguments, "
                "not both"
            )
        if not isinstance(config, SketchConfig):
            raise ConfigError(
                f"config must be a SketchConfig or an algorithm name, got "
                f"{type(config).__name__}"
            )
        if config.window is not None:
            from repro.streaming.windows import SlidingWindowSketch

            engine: Any = SlidingWindowSketch(config)
        else:
            engine = config.build()
        session = cls(config, engine)
        if auto_shard_threshold is not None:
            auto_shard_threshold = require_positive_int(
                auto_shard_threshold, "auto_shard_threshold"
            )
        session._auto_shard_threshold = auto_shard_threshold
        return session

    @classmethod
    def from_bytes(cls, payload: bytes) -> "SketchSession":
        """Open a session on a sketch restored from a wire payload.

        Accepts both payload families: a bare sketch (``RPSK``) and a full
        window container (``RPWD``), dispatching on the magic bytes.
        """
        from repro.streaming.windows import SlidingWindowSketch, is_window_payload

        if is_window_payload(payload):
            window = SlidingWindowSketch.from_bytes(payload)
            return cls(window.config, window)
        state = decode_state(payload)
        with reconstruction_errors(f"{state['kind']!r} payload"):
            config = SketchConfig.from_state(state)
            return cls(config, Sketch.from_state(state))

    @classmethod
    def open(cls, source: Union[str, Path, Any]) -> "SketchSession":
        """Open a session on a sketch persisted by :meth:`save`.

        ``source`` is polymorphic, following the library-wide I/O rule
        (every I/O entry point accepts all three forms):

        * a **path** (``str`` / ``Path``) — a file written by :meth:`save`;
        * a **binary file object** (anything with ``.read()``) — an open
          file, a socket wrapper, an ``io.BytesIO``;
        * a **store URI** — ``store://PATH#NAME[@VERSION]``, restoring the
          named snapshot from a :class:`~repro.store.SketchStore` catalog
          (latest version when ``@VERSION`` is omitted).

        The payload is self-contained: the restoring process (or machine)
        needs nothing beyond the bytes.
        """
        return cls.from_bytes(read_payload(source))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> SketchConfig:
        """The validated configuration the session was opened from."""
        return self._config

    @property
    def spec(self) -> SketchSpec:
        """The capability spec of the session's algorithm."""
        return self._config.spec

    @property
    def sketch(self) -> Sketch:
        """The underlying sketch (escape hatch for specialised callers).

        For a windowed session this is the **read-only merged window view**
        — a sketch of exactly the in-window updates; use :attr:`window` for
        the pane-ring engine itself.
        """
        return self._reader()

    def _reader(self) -> Sketch:
        """The sketch queries are answered against (window view or bare)."""
        if self._window is not None:
            return self._window.view()
        return self._sketch

    @property
    def windowed(self) -> bool:
        """Whether the session answers queries over a sliding window."""
        return self._window is not None

    @property
    def window(self):
        """The :class:`~repro.streaming.windows.SlidingWindowSketch` engine,
        or ``None`` for whole-stream sessions."""
        return self._window

    @property
    def items_in_window(self) -> Optional[int]:
        """Updates the current window summarises (``None`` if unwindowed)."""
        if self._window is None:
            return None
        return self._window.items_in_window

    @property
    def dimension(self) -> Optional[int]:
        """Universe size, or ``None`` in hashed-key (unbounded) mode."""
        return self._config.dimension

    @property
    def unbounded(self) -> bool:
        """Whether the session sketches an unbounded universe (``dimension=None``)."""
        return self._config.dimension is None

    @property
    def items_processed(self) -> int:
        """Total updates applied across every ingestion path."""
        if self._window is not None:
            return self._window.items_processed
        return self._sketch.items_processed

    @property
    def last_shard_report(self) -> Optional[ShardedIngestReport]:
        """The report of the most recent sharded ingest, if any."""
        return self._last_shard_report

    def size_in_words(self) -> int:
        """Counter words stored (all live panes for a windowed session)."""
        if self._window is not None:
            return self._window.size_in_words()
        return self._sketch.size_in_words()

    def size_in_bytes(self) -> int:
        """Exact serialized payload size (requires an integer seed)."""
        if self._window is not None:
            return self._window.size_in_bytes()
        return self._sketch.size_in_bytes()

    def supports(self, kind: str) -> bool:
        """Whether :meth:`query` can answer queries of ``kind``.

        Accounts for the session's mode, not just the algorithm: an
        unbounded (``dimension=None``) session has no fixed-length vector,
        so ``inner_product`` is unsupported even when the algorithm's spec
        declares it.
        """
        if self.unbounded and kind == "inner_product":
            return False
        return self.spec.supports_query(kind)

    def supported_queries(self) -> List[str]:
        """The query kinds this session can answer, in dispatch order."""
        return [kind for kind in QUERY_KINDS if self.supports(kind)]

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def ingest(
        self,
        data: Any,
        deltas: Any = None,
        *,
        timestamps: Any = None,
        batch_size: Optional[int] = None,
        shards: Optional[int] = None,
    ) -> "SketchSession":
        """Ingest ``data``, dispatching on its type and size.

        Accepted forms (``deltas`` only applies to coordinate updates):

        * an integer ``index`` (with optional scalar ``deltas``) — one
          streaming update;
        * a 1-D **integer** array-like of coordinates, with ``deltas``
          ``None`` (unit increments), a scalar, or a matching float array —
          a batch of updates in stream order;
        * a 2-D array-like of ``(index, delta)`` pairs — same;
        * a 1-D **float** array-like of length ``dimension`` (or a
          :class:`~repro.data.dataset.Dataset`) — a whole frequency vector;
        * an :class:`~repro.streaming.stream.UpdateStream` — replayed in
          order.

        ``timestamps`` (windowed sessions with time-based panes only)
        carries each update's timestamp: a scalar for a single update, a
        scalar broadcast to a whole batch, or a non-decreasing array
        matching the batch; the windowing engine routes every update into
        the pane its timestamp falls in.  ``batch_size`` chunks batched
        replays through ``update_batch`` (default: one vectorised call).
        ``shards`` forces the multi-core sharded engine (``shards > 1``;
        linear sketches with integer seeds only); when omitted, ingests of
        at least ``auto_shard_threshold`` updates shard automatically on
        multi-core machines.  A windowed session makes both decisions for
        each within-pane segment the pane ring hands back, so no shard
        spans a pane boundary.  The conservative-update
        kinds cannot shard, but the same threshold auto-chunks their
        ingests through the exact segmented batch path instead, so a huge
        CU stream needs no special-casing by the caller.  Returns ``self``
        for chaining.
        """
        if timestamps is not None and self._window is None:
            raise ConfigError(
                "timestamps only apply to windowed sessions; configure the "
                "sketch with SketchConfig(..., window=WindowSpec(by='time', "
                "...))"
            )
        if isinstance(data, Dataset):
            data = data.vector
        # scalar streaming update -------------------------------------- #
        if isinstance(data, (int, np.integer)) and not isinstance(data, bool):
            if not self.spec.streaming:
                raise CapabilityError(
                    f"sketch {self._config.name!r} does not support "
                    "one-update-at-a-time streaming ingestion"
                )
            if shards is not None and shards != 1:
                raise ConfigError("a single update cannot be sharded")
            delta = 1.0 if deltas is None else float(deltas)
            if not math.isfinite(delta):
                raise ValueError("deltas must contain only finite values")
            if self._window is not None:
                self._window.update(int(data), delta, timestamp=timestamps)
            else:
                self._sketch.update(int(data), delta)
            return self
        # update stream ------------------------------------------------- #
        if isinstance(data, UpdateStream):
            if self.dimension is not None and data.dimension != self.dimension:
                raise ConfigError(
                    f"stream has dimension {data.dimension}, session expects "
                    f"{self.dimension}"
                )
            if deltas is not None:
                raise ConfigError("deltas cannot be combined with an UpdateStream")
            return self._ingest_updates(
                data.indices(), data.deltas(), batch_size, shards, timestamps
            )
        # array-likes --------------------------------------------------- #
        arr = np.asarray(data)
        if arr.ndim == 2 and arr.shape[1] == 2:
            if deltas is not None:
                raise ConfigError(
                    "deltas cannot be combined with (index, delta) pairs"
                )
            indices = arr[:, 0]
            if np.issubdtype(arr.dtype, np.floating):
                if not np.allclose(indices, np.round(indices)):
                    raise ConfigError(
                        "(index, delta) pairs must carry integer indices in "
                        "the first column"
                    )
                if indices.size and np.max(np.abs(indices)) >= 2.0**53:
                    raise ConfigError(
                        "(index, delta) pairs pass through a float64 array, "
                        "which cannot represent keys at or above 2^53 "
                        "exactly; pass indices and deltas as separate arrays "
                        "(session.ingest(indices, deltas=...)) for large "
                        "hashed keys"
                    )
                indices = np.round(indices).astype(np.int64)
            # integer-dtype pairs keep their original dtype so the batch
            # validation's unsigned pre-check reports out-of-range uint64
            # keys as the caller passed them, not int64-wrapped
            return self._ingest_updates(
                indices,
                arr[:, 1].astype(np.float64),
                batch_size,
                shards,
                timestamps,
            )
        if arr.ndim != 1:
            raise ConfigError(
                f"cannot ingest an array of shape {arr.shape}; expected a "
                "scalar index, 1-D coordinates, (index, delta) pairs, a "
                "frequency vector, or an UpdateStream"
            )
        if (
            deltas is None
            and self.dimension is not None
            and np.issubdtype(arr.dtype, np.integer)
            and arr.size == self.dimension
        ):
            # an integer array of exactly `dimension` entries is ambiguous:
            # a batch of coordinates, or an integer-valued counts vector?
            # refuse rather than silently guess wrong
            raise ConfigError(
                f"ambiguous ingest: an integer array of length {arr.size} == "
                "dimension could be a batch of coordinates or a dense counts "
                "vector; pass counts as floats (x.astype(float)) to fit the "
                "vector, or pass explicit deltas (e.g. deltas=1.0) to treat "
                "the entries as coordinates"
            )
        if deltas is None and np.issubdtype(arr.dtype, np.floating):
            # dense frequency vector (the fit path)
            if self.dimension is None:
                raise ConfigError(
                    "an unbounded (dimension=None) session cannot ingest a "
                    "dense frequency vector; pass integer keys (with "
                    "optional deltas) instead"
                )
            if arr.size != self.dimension:
                raise ConfigError(
                    f"a float array is ingested as a dense frequency vector "
                    f"and must have length {self.dimension}, got {arr.size}; "
                    "pass integer coordinates (with optional deltas) for "
                    "streaming updates"
                )
            if self._window is not None:
                # a windowed session has no timeless "whole vector": stream
                # the non-zero coordinates as updates in index order so they
                # land in panes like any other batch
                nonzero = np.flatnonzero(arr)
                return self._ingest_updates(
                    nonzero, arr[nonzero], batch_size, shards, timestamps
                )
            resolved = self._resolve_shards(int(np.count_nonzero(arr)), shards)
            if resolved > 1:
                indices = np.flatnonzero(arr)
                return self._ingest_updates(
                    indices, arr[indices], batch_size, resolved
                )
            self._sketch.fit(arr)
            return self
        # 1-D coordinates (+ optional deltas)
        return self._ingest_updates(arr, deltas, batch_size, shards, timestamps)

    def check_batch(
        self, indices: Any, deltas: Any = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Check a coordinate batch as :meth:`ingest` would, applying nothing.

        Raises what ``ingest(indices, deltas)`` raises for the keys and
        deltas themselves (a conservative-update kind refuses a negative
        delta, say); returns the checked ``(int64 indices, float64
        deltas)``.  A server runs it on each ingest frame, so a batch its
        writer would drop is refused on the connection.
        """
        target = self._sketch if self._window is None else self._window
        return target._check_batch(indices, deltas)

    def _ingest_updates(
        self,
        indices: Any,
        deltas: Any,
        batch_size: Optional[int],
        shards: Union[int, None],
        timestamps: Any = None,
    ) -> "SketchSession":
        # explicit options are checked before any update is applied; the
        # auto-shard and auto-chunk decisions are made per applied batch,
        # so a windowed session makes them per within-pane segment
        if batch_size is not None:
            batch_size = require_positive_int(batch_size, "batch_size")
        if shards is not None:
            shards = self._resolve_shards(0, shards)
        apply = functools.partial(self._apply, batch_size=batch_size,
                                  shards=shards)
        if self._window is not None:
            self._window.update_batch(indices, deltas, timestamps, apply=apply)
        else:
            apply(self._sketch, *self.check_batch(indices, deltas))
        return self

    def _apply(
        self,
        target: Sketch,
        indices: np.ndarray,
        deltas: np.ndarray,
        batch_size: Optional[int],
        shards: Optional[int],
    ) -> None:
        """Apply one checked batch to ``target``: the bare sketch or a pane.

        Shards it through the warm pool, chunks it by ``batch_size`` (or
        :meth:`_auto_batch_size`), or makes one ``update_batch`` call.
        """
        resolved = self._resolve_shards(int(indices.size), shards)
        if resolved > 1:
            # folds straight into the target through shared memory; the
            # pool stays warm for the session's lifetime (see close())
            self._last_shard_report = self._shard_pool(resolved).ingest(
                indices,
                deltas,
                target=target,  # type: ignore[arg-type]
                shards=resolved,
                batch_size=batch_size or DEFAULT_BATCH_SIZE,
            )
            return
        if batch_size is None:
            batch_size = self._auto_batch_size(int(indices.size))
        if batch_size is None:
            target.update_batch(indices, deltas)
            return
        for start in range(0, indices.size, batch_size):
            stop = start + batch_size
            target.update_batch(indices[start:stop], deltas[start:stop])

    def _auto_batch_size(self, updates: int) -> Optional[int]:
        """Chunk size for large exact-batchable non-linear ingests, or ``None``.

        The conservative-update kinds cannot shard (non-linear), but their
        segmented batch path is exact, so a huge CU ingest is auto-chunked
        through ``update_batch`` at :data:`~repro.streaming.sharded.
        DEFAULT_BATCH_SIZE` — the CU analogue of auto-sharding: transient
        gather/segmentation state stays bounded and the per-chunk radix
        sort stays in cache, with stream order (and hence the final state)
        unchanged.  Below the threshold, or for linear kinds, the whole
        batch goes down in one vectorised call.
        """
        if (
            self._auto_shard_threshold is not None
            and updates >= self._auto_shard_threshold
            and self.spec.exact_batch
            and not self.spec.linear
        ):
            return DEFAULT_BATCH_SIZE
        return None

    def _resolve_shards(self, updates: int, shards: Union[int, None]) -> int:
        if shards is not None:
            shards = require_positive_int(shards, "shards")
            if shards > 1:
                self._require_shardable()
            return shards
        if (
            self._auto_shard_threshold is not None
            and updates >= self._auto_shard_threshold
            and self.spec.linear
            and self._config.portable
        ):
            cpus = os.cpu_count() or 1
            if cpus > 1:
                return min(cpus, _MAX_AUTO_SHARDS)
        return 1

    def _require_shardable(self) -> None:
        if not self.spec.linear:
            raise CapabilityError(
                f"sketch {self._config.name!r} is not a linear sketch and "
                "cannot be sharded; merging shard results requires linearity"
            )
        if not self._config.portable:
            raise ConfigError(
                "sharded ingestion requires an explicit integer seed so all "
                "workers build compatible sketches"
            )

    def _shard_pool(self, shards: int) -> ShardedIngestPool:
        """The session's warm worker pool, (re)built to cover ``shards``.

        Workers are capped at the core count — extra shards are assigned
        round-robin inside the pool — and the pool persists across
        ``ingest()`` calls until :meth:`close` (spawn + shared-memory setup
        are paid once per session, not once per call).
        """
        workers = max(1, min(int(shards), os.cpu_count() or 1))
        if (
            self._pool is not None
            and not self._pool.closed
            and self._pool.workers >= workers
        ):
            return self._pool
        if self._pool is not None:
            self._pool.close()
        self._pool = ShardedIngestPool(
            self._config.name,
            self.dimension,
            self._config.width,
            self._config.depth,
            self._config.seed,
            workers=workers,
            options=self._config.options,
        )
        return self._pool

    @property
    def shard_pool(self) -> Optional[ShardedIngestPool]:
        """The warm sharded-ingest pool, or ``None`` if none was spawned."""
        return self._pool

    def close(self) -> None:
        """Release session resources: the warm sharded-ingest worker pool.

        Idempotent, and safe on sessions that never sharded.  The session
        remains usable afterwards — a later sharded ingest simply spawns a
        fresh pool.  Sessions are context managers::

            with SketchSession.from_config(cfg) as session:
                session.ingest(stream, shards=4)
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "SketchSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, kind: Union[str, int, np.integer] = "point", **params: Any):
        """Answer one query, dispatching on ``kind``.

        * ``query(kind="point", index=i)`` — point estimate of coordinate
          ``i`` (a float); an array of indices returns one estimate each.
          ``query(i)`` with an integer is shorthand.
        * ``query(kind="heavy_hitters", threshold=... | phi=..., top_k=...,
          relative_to_bias=..., candidates=...)`` — the coordinates whose
          estimate exceeds the threshold, as
          :class:`~repro.queries.heavy_hitters.HeavyHitter` records.
          ``candidates`` restricts evaluation to a tracked key set (e.g.
          from :class:`~repro.queries.topk.StreamingTopK`); it is required
          for unbounded (``dimension=None``) sessions, whose universe
          cannot be scanned.
        * ``query(kind="range", low=a, high=b)`` — the estimated sum over
          ``[a, b)``.
        * ``query(kind="inner_product", vector=y)`` — the estimated
          ``⟨x, y⟩``.

        Kinds outside the algorithm's declared capabilities raise
        :class:`~repro.api.CapabilityError`; unknown kinds raise
        ``ValueError`` listing the known ones.
        """
        if isinstance(kind, (int, np.integer)) and not isinstance(kind, bool):
            params.setdefault("index", int(kind))
            kind = "point"
        if kind not in QUERY_KINDS:
            raise ValueError(
                f"unknown query kind {kind!r}; known kinds: {list(QUERY_KINDS)}"
            )
        if not self.supports(kind):
            mode = " in hashed-key (dimension=None) mode" if (
                self.unbounded and self.spec.supports_query(kind)
            ) else ""
            raise CapabilityError(
                f"sketch {self._config.name!r} does not support "
                f"{kind!r} queries{mode}; supported kinds: "
                f"{self.supported_queries()}"
            )
        handler = getattr(self, f"_query_{kind}")
        return handler(**params)

    def _query_point(self, index: Any):
        reader = self._reader()
        if isinstance(index, (int, np.integer)) and not isinstance(index, bool):
            return reader.query(int(index))
        return reader.query_batch(index)

    def _query_heavy_hitters(
        self,
        threshold: Optional[float] = None,
        phi: Optional[float] = None,
        total_mass: Optional[float] = None,
        relative_to_bias: bool = False,
        top_k: Optional[int] = None,
        candidates: Any = None,
    ) -> List[HeavyHitter]:
        if self.unbounded and candidates is None:
            raise CapabilityError(
                "an unbounded (dimension=None) session cannot be scanned "
                "for heavy hitters; pass candidates=... with the keys to "
                "evaluate (e.g. StreamingTopK.candidates())"
            )
        return _heavy_hitters(
            self._reader(),
            threshold=threshold,
            phi=phi,
            total_mass=total_mass,
            relative_to_bias=relative_to_bias,
            top_k=top_k,
            candidates=candidates,
        )

    def _query_range(self, low: int, high: int) -> float:
        return _range_sum(self._reader(), low, high)

    def _query_inner_product(self, vector: Any) -> float:
        # unbounded sessions never reach here: supports() excludes the kind
        return _inner_product_estimate(self._reader(), vector)

    def recover(self) -> np.ndarray:
        """The full recovered vector ``x̂`` (one estimate per coordinate).

        Unavailable for unbounded (``dimension=None``) sessions, whose
        universe cannot be enumerated — use point queries or
        candidate-driven heavy-hitter queries instead.
        """
        if self.unbounded:
            raise CapabilityError(
                "an unbounded (dimension=None) session cannot recover the "
                "full vector; use point queries or candidate-driven "
                "heavy-hitter queries instead"
            )
        return self._reader().recover()

    def estimate_bias(self) -> float:
        """The sketch's current bias estimate ``β̂``.

        Only the bias-aware algorithms maintain one; others raise
        :class:`~repro.api.CapabilityError`.
        """
        estimator = getattr(self._reader(), "estimate_bias", None)
        if estimator is None:
            raise CapabilityError(
                f"sketch {self._config.name!r} does not maintain a bias "
                "estimate; use a bias-aware algorithm (e.g. 'l1_sr', 'l2_sr')"
            )
        return float(estimator())

    # ------------------------------------------------------------------ #
    # composition
    # ------------------------------------------------------------------ #
    #: the inputs :meth:`merge` accepts, spelled out once so every rejection
    #: path names them
    _MERGEABLE = (
        "another SketchSession, a Sketch, a serialized wire payload "
        "(bytes/bytearray), or a list/tuple of those"
    )

    def merge(
        self,
        other: Union["SketchSession", Sketch, bytes, bytearray, list, tuple],
    ) -> "SketchSession":
        """Fold other compatible sketch state into this session.

        ``other`` may be another session, a bare sketch, a serialized wire
        payload (what a remote site would ship), or a list/tuple of those
        (merged in order).  Requires a linear algorithm; geometry and seed
        compatibility are validated by the underlying merge.  Anything else
        raises ``TypeError`` naming the accepted inputs.
        """
        if self._window is not None:
            raise CapabilityError(
                "a windowed session cannot be merged: its panes are aligned "
                "to this session's own stream position, so folding foreign "
                "state into the ring would mix pane boundaries; merge "
                "unwindowed sessions, or merge against the read-only window "
                "view (session.sketch) instead"
            )
        if not self.spec.linear:
            raise CapabilityError(
                f"sketch {self._config.name!r} is not a linear sketch and "
                "cannot be merged"
            )
        if isinstance(other, (list, tuple)):
            # resolve and compatibility-check every element BEFORE merging
            # any, so a bad element leaves the session untouched (a caller
            # retrying the fixed list must not double-count the good ones)
            resolved = []
            for position, item in enumerate(other):
                if isinstance(item, SketchSession):
                    item = item.sketch
                elif isinstance(item, (bytes, bytearray)):
                    item = Sketch.from_bytes(bytes(item))
                if not isinstance(item, Sketch):
                    raise TypeError(
                        f"cannot merge element {position} of the "
                        f"{type(other).__name__} (a "
                        f"{type(item).__name__}) into the session; merge() "
                        f"accepts {self._MERGEABLE}"
                    )
                resolved.append(item)
            assert isinstance(self._sketch, LinearSketch)
            for item in resolved:
                self._sketch._check_compatible(item)  # type: ignore[arg-type]
            for item in resolved:
                self._sketch.merge(item)  # type: ignore[arg-type]
            return self
        if isinstance(other, SketchSession):
            other = other.sketch
        elif isinstance(other, (bytes, bytearray)):
            other = Sketch.from_bytes(bytes(other))
        if not isinstance(other, Sketch):
            raise TypeError(
                f"cannot merge a {type(other).__name__} into the session; "
                f"merge() accepts {self._MERGEABLE}"
            )
        assert isinstance(self._sketch, LinearSketch)
        self._sketch.merge(other)  # type: ignore[arg-type]
        return self

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """The session state in the versioned binary wire format.

        Windowed sessions encode the full window container (spec, ring
        bookkeeping and every live pane); bare sessions encode the sketch
        payload.  :meth:`from_bytes` / :meth:`open` restore either.
        """
        if self._window is not None:
            return self._window.to_bytes()
        return self._sketch.to_bytes()

    def state_dict(self) -> dict:
        """The session state as a plain dict (see the state protocol)."""
        if self._window is not None:
            return self._window.state_dict()
        return self._sketch.state_dict()

    def save(self, destination: Union[str, Path, Any]) -> Union[Path, str]:
        """Persist the session state to ``destination``.

        ``destination`` is polymorphic, following the library-wide I/O rule
        (every I/O entry point accepts all three forms):

        * a **path** (``str`` / ``Path``) — the payload is written to the
          file; returns the :class:`~pathlib.Path` written;
        * a **binary file object** (anything with ``.write()``) — the
          payload is written to it (left open); returns ``None``;
        * a **store URI** — ``store://PATH#NAME`` appends a new immutable
          snapshot under ``NAME`` in the :class:`~repro.store.SketchStore`
          catalog at ``PATH`` (created if missing); returns the canonical
          URI of the snapshot written, with its assigned ``@VERSION``.
          A version in a save URI is rejected — snapshots are append-only.
        """
        if is_store_uri(destination):
            from repro.store import SketchStore, format_store_uri
            from repro.store.errors import StoreError

            reference = parse_store_uri(destination)
            if reference.version is not None:
                raise StoreError(
                    f"cannot save to {destination!r}: snapshots are "
                    "append-only, so a save URI names the sketch without a "
                    "version (the store assigns the next one)"
                )
            with SketchStore(reference.path) as store:
                version = store.put(reference.name, self.to_bytes())
            return format_store_uri(reference.path, reference.name, version)
        writer = getattr(destination, "write", None)
        if callable(writer):
            writer(self.to_bytes())
            return None
        path = Path(destination)
        path.write_bytes(self.to_bytes())
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SketchSession({self._config!r}, "
            f"items_processed={self.items_processed})"
        )
