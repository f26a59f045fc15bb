"""Sliding-window sketching over the pane-merge algebra.

The paper's streaming model summarises the whole stream since time zero, but
recency-bounded workloads — last-hour heavy hitters, last-N-updates frequency
estimates — need a summary of *recent* updates only.  Because the library's
sketches are **linear**, a windowed summary falls out of existing machinery:

* the stream is chopped into **panes** (fixed-size chunks, by update count or
  by timestamp span), each summarised by its own pane sketch;
* the window is a **ring** of the ``k`` most recent panes — one open pane
  receiving updates plus up to ``k - 1`` closed ones; closing the open pane
  rotates the ring and evicts the oldest pane, which is how updates age out;
* queries are answered against a **lazily-rebuilt merged view** — the panes
  merged through :meth:`~repro.sketches.base.LinearSketch.merge`, rebuilt
  only when the window has changed since the last query;
* **exponential decay** rides
  :meth:`~repro.sketches.base.LinearSketch.scale`: a single sketch is scaled
  by a constant factor at every pane boundary, so old updates fade instead of
  being evicted.

Only the pane ring lives here.  Which sketches a window accepts is checked
by :class:`~repro.api.SketchConfig`: sliding and decay windows merge and
scale panes, so they need a linear sketch, while tumbling windows (one pane,
reset at every boundary, never merged) accept any exact-batchable one, CM-CU
and CML-CU included.  How a segment reaches its pane is the caller's choice:
:meth:`SlidingWindowSketch.update_batch` splits a batch at pane boundaries
and hands each segment to an ``apply`` callable, through which
:class:`~repro.api.SketchSession` shards or chunks it as it would a bare
sketch's batch.  The ``RPWD`` container of :meth:`SlidingWindowSketch.
to_bytes` is framed by :mod:`repro.serialization` like the ``RPSK`` sketch
payload, and its pane payloads are ``RPSK`` payloads, so a window can be
persisted, shipped and reopened anywhere like a bare sketch.
"""

from __future__ import annotations

import copy
import math
import reprlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api.errors import ConfigError
from repro.serialization import (
    SerializationError,
    _read_framed,
    _write_framed,
    decode_state,
    encode_state,
    reconstruction_errors,
    sketch_from_state,
)
from repro.utils.validation import require_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api -> windows)
    from repro.api.config import SketchConfig
    from repro.sketches.base import LinearSketch

#: 4-byte magic prefixing every serialized window (vs ``RPSK`` for a sketch)
WINDOW_MAGIC = b"RPWD"
#: current window wire-format version (the ``uint16`` following the magic)
WINDOW_WIRE_VERSION = 1

#: the supported window modes
WINDOW_MODES = ("tumbling", "sliding", "decay")
#: the supported pane extents
PANE_UNITS = ("count", "time")


@dataclass(frozen=True)
class WindowSpec:
    """An immutable, validated description of one window.

    Parameters
    ----------
    mode:
        ``"sliding"`` — the window covers the ``panes`` most recent panes
        (the open one plus up to ``panes - 1`` closed ones); closing a pane
        evicts the oldest.  ``"tumbling"`` — a single pane that resets at
        every boundary (equivalent to ``sliding`` with ``panes=1``).
        ``"decay"`` — a single sketch scaled by ``decay`` at every pane
        boundary, so history fades exponentially instead of being evicted.
    panes:
        Number of live panes ``k`` in the ring (sliding mode only; tumbling
        and decay windows keep exactly one pane).
    pane_size:
        Extent of one pane: a positive update count (``by="count"``) or a
        positive timestamp span (``by="time"``, floats allowed).  Pane ``p``
        of a time-based window covers timestamps
        ``[p·pane_size, (p+1)·pane_size)``.
    by:
        ``"count"`` — panes close after ``pane_size`` updates; updates carry
        no timestamps.  ``"time"`` — every update carries a non-decreasing
        timestamp and panes close when it crosses a pane boundary.
    decay:
        Scale factor in ``(0, 1)`` applied at each pane boundary (decay mode
        only; forbidden otherwise).
    """

    mode: str = "sliding"
    panes: int = 1
    pane_size: float = 1
    by: str = "count"
    decay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in WINDOW_MODES:
            raise ConfigError(
                f"unknown window mode {self.mode!r}; supported modes: "
                f"{', '.join(WINDOW_MODES)}"
            )
        if self.by not in PANE_UNITS:
            raise ConfigError(
                f"panes are sized by {', '.join(PANE_UNITS)!s}; got "
                f"by={self.by!r}"
            )
        object.__setattr__(
            self, "panes", require_positive_int(self.panes, "panes")
        )
        if self.mode != "sliding" and self.panes != 1:
            raise ConfigError(
                f"{self.mode} windows keep exactly one pane; panes={self.panes} "
                "only applies to sliding windows"
            )
        if self.by == "count":
            if (
                isinstance(self.pane_size, bool)
                or not isinstance(self.pane_size, (int, np.integer))
                or int(self.pane_size) < 1
            ):
                raise ConfigError(
                    "count-based panes need a positive integer pane_size "
                    f"(updates per pane), got {self.pane_size!r}"
                )
            object.__setattr__(self, "pane_size", int(self.pane_size))
        else:
            size = self.pane_size
            if isinstance(size, bool) or not isinstance(
                size, (int, float, np.integer, np.floating)
            ):
                raise ConfigError(
                    "time-based panes need a positive timestamp span as "
                    f"pane_size, got {size!r}"
                )
            size = float(size)
            if not math.isfinite(size) or size <= 0.0:
                raise ConfigError(
                    "time-based panes need a positive finite timestamp span, "
                    f"got {size!r}"
                )
            object.__setattr__(self, "pane_size", size)
        if self.mode == "decay":
            decay = self.decay
            if isinstance(decay, (int, np.integer)) and not isinstance(decay, bool):
                decay = float(decay)
            if not isinstance(decay, (float, np.floating)):
                raise ConfigError(
                    "decay windows need a decay factor in (0, 1), got "
                    f"{self.decay!r}"
                )
            decay = float(decay)
            if not (0.0 < decay < 1.0):
                raise ConfigError(
                    f"decay factor must be in (0, 1), got {decay}"
                )
            object.__setattr__(self, "decay", decay)
        elif self.decay is not None:
            raise ConfigError(
                f"decay={self.decay!r} only applies to decay windows, not "
                f"{self.mode!r}"
            )

    @property
    def span(self) -> float:
        """The window's maximum extent: ``panes × pane_size``."""
        return self.panes * self.pane_size

    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON-able form (inverse of :meth:`from_dict`)."""
        return {
            "mode": self.mode,
            "panes": self.panes,
            "pane_size": self.pane_size,
            "by": self.by,
            "decay": self.decay,
        }

    @classmethod
    def from_dict(cls, mapping: Dict[str, Any]) -> "WindowSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        data = dict(mapping)
        unknown = set(data) - {"mode", "panes", "pane_size", "by", "decay"}
        if unknown:
            raise ConfigError(
                f"unknown window spec fields {sorted(unknown)}"
            )
        return cls(**data)


def is_window_payload(data: bytes) -> bool:
    """Whether ``data`` starts like a serialized window (vs a bare sketch)."""
    return bytes(data[: len(WINDOW_MAGIC)]) == WINDOW_MAGIC


def decode_window_container(data: bytes) -> Tuple[Dict[str, Any], List[bytes]]:
    """Split an ``RPWD`` container into its header and raw pane payloads.

    Validates the preamble and header without deserializing any pane, so
    callers that only need metadata (the sketch store's ``put`` indexing,
    ``repro store list``) never pay for sketch reconstruction.  The
    preamble and header are read by the same code as a sketch payload's
    (:mod:`repro.serialization`), and ``panes`` must list at least one
    non-negative byte length.
    """
    data = bytes(data)
    header, offset = _read_framed(data, WINDOW_MAGIC, WINDOW_WIRE_VERSION,
                                  "window")
    lengths = header.get("panes")
    if not (
        isinstance(lengths, list) and lengths
        and all(type(length) is int and length >= 0 for length in lengths)
    ):
        raise SerializationError(
            "corrupt window header: panes must be a non-empty list of "
            f"non-negative byte lengths, got {reprlib.repr(lengths)}"
        )
    payloads = []
    for length in lengths:
        chunk = data[offset:offset + length]
        if len(chunk) != length:
            raise SerializationError(
                f"truncated window payload (wire version "
                f"{WINDOW_WIRE_VERSION}): pane expects {length} bytes, got "
                f"{len(chunk)}"
            )
        payloads.append(chunk)
        offset += length
    return header, payloads


class SlidingWindowSketch:
    """A pane-ring windowing engine over one linear sketch configuration.

    Maintains up to ``spec.panes`` per-pane sketches — one *open* pane
    receiving updates plus the most recent *closed* panes — and answers
    queries from a lazily-rebuilt merged view.  Built from a
    :class:`~repro.api.SketchConfig` whose ``window`` field carries the
    :class:`WindowSpec` (or pass ``spec`` explicitly, which the config
    validates through ``config.replace(window=spec)``).

    The config decides what may be windowed: sliding and decay modes
    require a **linear** algorithm (pane merging and decay ride
    ``merge``/``scale``); tumbling mode also accepts **exact-batchable**
    non-linear algorithms (the conservative-update kinds), whose single
    pane never merges.  Every mode requires an **explicit integer seed**
    (panes must share hash functions, and window state must be
    reconstructible).
    """

    def __init__(
        self,
        config: "SketchConfig",
        spec: Optional[WindowSpec] = None,
        *,
        _panes: Optional[List["LinearSketch"]] = None,
    ) -> None:
        from repro.api.config import SketchConfig  # local: import cycle

        if not isinstance(config, SketchConfig):
            raise ConfigError(
                f"SlidingWindowSketch needs a SketchConfig, got "
                f"{type(config).__name__}"
            )
        if spec is None:
            spec = config.window
        if spec is None:
            raise ConfigError(
                "SlidingWindowSketch needs a WindowSpec: pass spec=... or a "
                "config constructed with window=WindowSpec(...)"
            )
        if not isinstance(spec, WindowSpec):
            raise ConfigError(
                f"window spec must be a WindowSpec, got {type(spec).__name__}"
            )
        self._config = config if config.window is spec else config.replace(window=spec)
        self._spec = spec
        if _panes is None:
            self._closed: List["LinearSketch"] = []
            self._current: "LinearSketch" = self._new_pane()
        else:
            # restore path: adopt already-deserialized panes instead of
            # building a throwaway open pane
            self._closed = list(_panes[:-1])
            self._current = _panes[-1]
        self._fill = 0                    # updates in the open pane
        self._pane_index = 0              # ordinal of the open pane
        self._time_started = False        # time mode: first timestamp seen?
        self._last_timestamp: Optional[float] = None
        self._pane_closes = 0
        self._evictions = 0
        self._items_total = 0
        self._merged: Optional["LinearSketch"] = None

    def _new_pane(self) -> "LinearSketch":
        return self._config.build()  # type: ignore[return-value]

    def _copy(self) -> "SlidingWindowSketch":
        """A copy that later updates to either window leave unchanged.

        Closed panes are shared, not copied: once :meth:`_close_pane` has
        moved a pane into the ring nothing mutates it again (rotation only
        appends to and pops from the list, and :meth:`view` and
        :meth:`fold_closed_panes` merge into copies), so only the open pane
        and the pane list need fresh copies.
        """
        window = copy.copy(self)  # the ring bookkeeping, by value
        window._closed = list(self._closed)
        window._current = self._current.copy()
        window._merged = None
        return window

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> "SketchConfig":
        """The windowed configuration (``config.window`` is the spec)."""
        return self._config

    @property
    def spec(self) -> WindowSpec:
        """The window specification."""
        return self._spec

    @property
    def dimension(self) -> Optional[int]:
        return self._config.dimension

    @property
    def items_processed(self) -> int:
        """Total updates ever ingested (in or out of the current window)."""
        return self._items_total

    @property
    def items_in_window(self) -> int:
        """Updates the live panes currently summarise.

        For decay windows this counts every update ever applied (history
        fades by scaling; it is never dropped).
        """
        return self._current.items_processed + sum(
            pane.items_processed for pane in self._closed
        )

    @property
    def pane_count(self) -> int:
        """Live panes right now (open pane plus retained closed panes)."""
        return 1 + len(self._closed)

    @property
    def pane_closes(self) -> int:
        """Pane boundaries crossed since construction."""
        return self._pane_closes

    @property
    def evictions(self) -> int:
        """Panes dropped from the ring (aged out of the window)."""
        return self._evictions

    @property
    def current_fill(self) -> int:
        """Updates in the open pane."""
        return self._fill

    @property
    def last_timestamp(self) -> Optional[float]:
        """Most recent timestamp seen (time-based panes only)."""
        return self._last_timestamp

    def size_in_words(self) -> int:
        """Counter words across every live pane."""
        return self._current.size_in_words() + sum(
            pane.size_in_words() for pane in self._closed
        )

    # ------------------------------------------------------------------ #
    # pane rotation
    # ------------------------------------------------------------------ #
    def _close_pane(self) -> None:
        """Cross one pane boundary."""
        self._pane_closes += 1
        self._pane_index += 1
        self._fill = 0
        self._merged = None
        if self._spec.mode == "decay":
            self._current.scale(self._spec.decay)
            return
        self._closed.append(self._current)
        self._current = self._new_pane()
        keep = self._spec.panes - 1
        while len(self._closed) > keep:
            self._closed.pop(0)
            self._evictions += 1

    def _advance_to_pane(self, pane: int) -> None:
        """Close panes until the open pane is ``pane`` (time mode)."""
        steps = pane - self._pane_index
        if steps <= 0:
            return
        if self._spec.mode == "decay":
            # small gaps replay boundary-by-boundary (bit-exact with the
            # scalar path); a gap of thousands of panes collapses into one
            # scale by decay**steps, equal up to float rounding
            if steps <= 64:
                for _ in range(steps):
                    self._close_pane()
            else:
                self._current.scale(self._spec.decay ** steps)
                self._pane_closes += steps
                self._pane_index = pane
                self._fill = 0
                self._merged = None
            return
        if steps <= self._spec.panes:
            for _ in range(steps):
                self._close_pane()
            return
        # a gap wider than the ring ages every live pane out; rotating
        # `panes` times reaches the same (empty) state without building one
        # throwaway pane per skipped boundary
        for _ in range(self._spec.panes):
            self._close_pane()
        self._pane_closes += steps - self._spec.panes
        self._pane_index = pane

    def _advance_time(self, timestamp: Any) -> float:
        if timestamp is None:
            raise ConfigError(
                "time-based panes require a timestamp for every update; "
                "pass timestamps=... to ingest"
            )
        if isinstance(timestamp, bool) or not isinstance(
            timestamp, (int, float, np.integer, np.floating)
        ):
            raise ConfigError(
                f"timestamps must be numbers, got {type(timestamp).__name__}"
            )
        ts = float(timestamp)
        if not math.isfinite(ts):
            raise ConfigError(f"timestamps must be finite, got {ts!r}")
        if self._last_timestamp is not None and ts < self._last_timestamp:
            raise ConfigError(
                f"timestamps must be non-decreasing; got {ts} after "
                f"{self._last_timestamp}"
            )
        pane = math.floor(ts / self._spec.pane_size)
        if not self._time_started:
            self._pane_index = pane
            self._time_started = True
        else:
            self._advance_to_pane(pane)
        self._last_timestamp = ts
        return ts

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def update(self, index: int, delta: float = 1.0, timestamp: Any = None) -> None:
        """Apply one streaming update, routing it into the open pane."""
        if self._spec.by == "time":
            self._advance_time(timestamp)
        elif timestamp is not None:
            raise ConfigError(
                "count-based panes take no timestamps; use "
                "WindowSpec(by='time', ...) for timestamp-driven panes"
            )
        self._current.update(index, delta)
        self._fill += 1
        self._items_total += 1
        self._merged = None
        if self._spec.by == "count" and self._fill >= self._spec.pane_size:
            self._close_pane()

    def _check_batch(self, indices, deltas) -> Tuple[np.ndarray, np.ndarray]:
        return self._current._check_batch(indices, deltas)

    def _check_timestamps(self, timestamps: Any, count: int) -> np.ndarray:
        if timestamps is None:
            raise ConfigError(
                "time-based panes require a timestamp for every update; "
                "pass timestamps=... to ingest"
            )
        ts = np.asarray(timestamps, dtype=np.float64)
        if ts.ndim == 0:
            ts = np.full(count, float(ts))
        if ts.ndim != 1 or ts.size != count:
            raise ConfigError(
                f"timestamps must be a scalar or a 1-D array matching the "
                f"{count} updates, got shape {np.asarray(timestamps).shape}"
            )
        if ts.size and not np.all(np.isfinite(ts)):
            raise ConfigError("timestamps must be finite")
        if ts.size > 1 and np.any(np.diff(ts) < 0):
            raise ConfigError("timestamps must be non-decreasing")
        if (
            ts.size
            and self._last_timestamp is not None
            and float(ts[0]) < self._last_timestamp
        ):
            raise ConfigError(
                f"timestamps must be non-decreasing; got {float(ts[0])} "
                f"after {self._last_timestamp}"
            )
        return ts

    def update_batch(self, indices, deltas=None, timestamps=None, *,
                     apply=None) -> None:
        """Apply a batch of updates in stream order, split at pane boundaries.

        Each within-pane segment goes to ``apply(pane, indices, deltas)``
        with the then-open pane (default: ``pane.update_batch(indices,
        deltas)``), and a count-based pane closes as soon as it is full.
        A caller that shards or chunks its batches passes that decision in
        as ``apply``, so it is made per segment and never spans a pane:
        :class:`~repro.api.SketchSession` hands in the same code that
        applies a bare sketch's batch.
        """
        idx, d = self._check_batch(indices, deltas)
        timed = self._spec.by == "time"
        if timed:
            ts = self._check_timestamps(timestamps, idx.size)
            panes = np.floor(ts / self._spec.pane_size).astype(np.int64)
            cuts = (np.flatnonzero(np.diff(panes)) + 1).tolist()
        elif timestamps is not None:
            raise ConfigError(
                "count-based panes take no timestamps; use "
                "WindowSpec(by='time', ...) for timestamp-driven panes"
            )
        else:
            cuts = list(range(self._spec.pane_size - self._fill, idx.size,
                              self._spec.pane_size))
        if not idx.size:
            return
        bounds = [0, *cuts, idx.size]
        for start, stop in zip(bounds, bounds[1:]):
            if timed:
                self._advance_time(float(ts[start]))
            if apply is None:
                self._current.update_batch(idx[start:stop], d[start:stop])
            else:
                apply(self._current, idx[start:stop], d[start:stop])
            self._fill += stop - start
            self._items_total += stop - start
            self._merged = None
            if timed:
                self._last_timestamp = float(ts[stop - 1])
            elif self._fill >= self._spec.pane_size:
                self._close_pane()

    # ------------------------------------------------------------------ #
    # queries (via the merged view)
    # ------------------------------------------------------------------ #
    def view(self) -> "LinearSketch":
        """The merged window sketch, rebuilt lazily.

        The view is a sketch of exactly the in-window updates: the live
        panes merged oldest-to-newest (linearity makes the order
        irrelevant) into a copy of the oldest, whose derived structures
        are rebuilt once.  Treat it as **read-only** — when only one pane
        is live it *is* the open pane.
        """
        if self._merged is not None:
            return self._merged
        if not self._closed:
            merged = self._current
        else:
            merged = self._closed[0].copy()._merge_all(
                self._closed[1:] + [self._current]
            )
        self._merged = merged
        return merged

    def query(self, index: int) -> float:
        """Point estimate of ``index`` restricted to the current window."""
        return float(self.view().query(index))

    def query_batch(self, indices) -> np.ndarray:
        """Windowed point estimates for a batch of coordinates."""
        return self.view().query_batch(indices)

    def recover(self) -> np.ndarray:
        """The recovered in-window frequency vector (bounded universes)."""
        return self.view().recover()

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #
    def fold_closed_panes(self) -> int:
        """Merge every closed pane into one, leaving the view unchanged.

        The merged window view is the merge of all live panes, so folding
        the closed panes into a single combined pane preserves **every
        query answer exactly** (linearity makes the grouping irrelevant)
        while dropping the ring from ``1 + len(closed)`` sketches to at
        most two.  What it gives up is pane-granular *aging*: the folded
        pane ages out of a live ring as one unit instead of pane by pane,
        which is why the sketch store only compacts historical snapshots —
        archives whose eviction future is never replayed.

        Returns the number of panes folded away (``0`` when fewer than two
        panes are closed — tumbling and decay windows always return 0).
        """
        if len(self._closed) < 2:
            return 0
        folded = self._closed[0].copy()._merge_all(self._closed[1:])
        removed = len(self._closed) - 1
        self._closed = [folded]
        self._merged = None
        return removed

    # ------------------------------------------------------------------ #
    # state protocol (versioned RPWD container over RPSK pane payloads)
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        """The complete window state as a plain dict.

        ``panes`` holds one sketch state dict per live pane, oldest first,
        the open pane last; ``meta`` carries the ring bookkeeping that makes
        a restore continue exactly where the original left off.
        """
        return {
            "kind": "window",
            "window_version": WINDOW_WIRE_VERSION,
            "spec": self._spec.to_dict(),
            "meta": {
                "fill": int(self._fill),
                "pane_index": int(self._pane_index),
                "time_started": bool(self._time_started),
                "last_timestamp": self._last_timestamp,
                "pane_closes": int(self._pane_closes),
                "evictions": int(self._evictions),
                "items_total": int(self._items_total),
            },
            "panes": [pane.state_dict() for pane in self._closed]
            + [self._current.state_dict()],
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "SlidingWindowSketch":
        """Reconstruct a window from a :meth:`state_dict` snapshot."""
        from repro.api.config import SketchConfig  # local: import cycle

        if state.get("kind") != "window":
            raise SerializationError(
                f"state of kind {state.get('kind')!r} is not a window snapshot"
            )
        recorded = int(state.get("window_version", 1))
        if recorded != WINDOW_WIRE_VERSION:
            raise SerializationError(
                f"window snapshot has window_version {recorded}, but this "
                f"build reads version {WINDOW_WIRE_VERSION}"
            )
        spec = WindowSpec.from_dict(state["spec"])
        pane_states = state.get("panes", [])
        if not pane_states:
            raise SerializationError("window snapshot carries no panes")
        max_live = 1 if spec.mode == "decay" else spec.panes
        if len(pane_states) > max_live:
            raise SerializationError(
                f"window snapshot carries {len(pane_states)} panes, but a "
                f"{spec.mode} window of {spec.panes} pane(s) holds at most "
                f"{max_live}"
            )
        config = SketchConfig.from_state(pane_states[-1]).replace(window=spec)
        meta = state.get("meta", {})
        fill = int(meta.get("fill", 0))
        if fill < 0 or (spec.by == "count" and fill >= spec.pane_size):
            # an out-of-range fill can only come from a corrupt or crafted
            # payload; restoring it would break the open-pane invariant
            # (count-mode panes close the moment they reach pane_size)
            raise SerializationError(
                f"window snapshot carries fill={fill}, outside the open-pane "
                f"range [0, {spec.pane_size}) of its count-based panes"
                if spec.by == "count"
                else f"window snapshot carries a negative fill ({fill})"
            )
        panes = [sketch_from_state(pane) for pane in pane_states]
        window = cls(config, spec, _panes=panes)
        window._fill = fill
        window._pane_index = int(meta.get("pane_index", 0))
        window._time_started = bool(meta.get("time_started", False))
        last = meta.get("last_timestamp")
        window._last_timestamp = None if last is None else float(last)
        window._pane_closes = int(meta.get("pane_closes", 0))
        window._evictions = int(meta.get("evictions", 0))
        window._items_total = int(meta.get("items_total", 0))
        window._merged = None
        return window

    def to_bytes(self) -> bytes:
        """Encode the full window state in the versioned binary container.

        Framed like the sketch wire format of :mod:`repro.serialization`::

            offset  size   field
            0       4      magic  b"RPWD"
            4       2      window wire version, uint16 LE
            6       4      header length H, uint32 LE
            10      H      header, UTF-8 JSON (sorted keys): spec, meta,
                           pane payload lengths
            10+H    ...    pane payloads (RPSK sketch wire format),
                           oldest pane first, the open pane last

        Encoding is deterministic, so equal window states produce identical
        bytes (the golden-wire regression suite pins this).
        """
        state = self.state_dict()
        payloads = [encode_state(pane) for pane in state["panes"]]
        header = {
            "window_version": WINDOW_WIRE_VERSION,
            "spec": state["spec"],
            "meta": state["meta"],
            "panes": [len(payload) for payload in payloads],
        }
        return _write_framed(WINDOW_MAGIC, WINDOW_WIRE_VERSION, header,
                             payloads)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SlidingWindowSketch":
        """Decode a container produced by :meth:`to_bytes`."""
        header, payloads = decode_window_container(data)
        pane_states = [decode_state(chunk) for chunk in payloads]
        with reconstruction_errors("window container"):
            return cls.from_state({
                "kind": "window",
                "window_version": int(header.get("window_version", 1)),
                "spec": header.get("spec", {}),
                "meta": header.get("meta", {}),
                "panes": pane_states,
            })

    def size_in_bytes(self) -> int:
        """Exact size of the serialized window container."""
        return len(self.to_bytes())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SlidingWindowSketch({self._config.name!r}, mode="
            f"{self._spec.mode!r}, panes={self.pane_count}/{self._spec.panes}, "
            f"items_in_window={self.items_in_window})"
        )
