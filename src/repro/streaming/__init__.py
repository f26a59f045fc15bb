"""Streaming-model substrate.

The paper's streaming model (Section 1) delivers items one at a time: an
arriving item ``i`` corresponds to the update ``x ← x + e_i``; the turnstile
generalisation allows weighted and negative updates ``x ← x + Δ·e_i``.  This
package provides:

* :class:`StreamUpdate` / :class:`UpdateStream` — typed update streams with
  cash-register / turnstile validation,
* generators turning frequency vectors, item sequences or edge streams into
  update streams,
* :class:`StreamRunner` — replays a stream into one or more sketches while
  measuring per-update and per-query cost, which is what the Figure 6 timing
  comparison uses,
* :class:`ShardedIngestPool` — multi-core sharded ingestion over a
  persistent pool of worker processes sharing counter memory with the
  parent: the stream is partitioned into contiguous slices, each worker
  scatter-adds its slices into a shared-memory counter block via the
  batched path, and the parent folds the blocks with vectorized ``+=``
  (linearity makes the partition lossless; no counters are serialized),
* :class:`WindowSpec` / :class:`SlidingWindowSketch` — sliding-window
  sketching over the pane-merge algebra (see below).

The pane-ring model
-------------------
The whole-stream model above summarises everything since time zero; the
windowing layer in :mod:`repro.streaming.windows` bounds queries to *recent*
updates instead.  The stream is chopped into **panes** — fixed-size chunks,
by update count or by timestamp span — and each pane is summarised by its
own sketch.  A :class:`SlidingWindowSketch` keeps a **ring** of the ``k``
most recent panes (one open pane receiving updates plus up to ``k - 1``
closed ones); crossing a pane boundary rotates the ring and evicts the
oldest pane, which is how updates age out of the window in O(1) sketch
operations.  Queries are answered from a **lazily-rebuilt merged view**:
the live panes merged through ``LinearSketch.merge``, recomputed only when
the window changed since the last query.  Three modes ride the same ring:

* ``tumbling`` — one pane; the window resets at every boundary;
* ``sliding`` — ``k`` panes; the window covers between ``(k-1)`` and ``k``
  panes' worth of the most recent updates;
* ``decay`` — one pane scaled by a constant factor at every boundary
  (``LinearSketch.scale``), so history fades exponentially instead of
  being evicted.

Everything rests on linearity — a sketch of a stream equals the merge of
sketches of its panes — so the conservative-update sketches are rejected
with :class:`~repro.api.CapabilityError`.  Window state (spec, ring
bookkeeping, every live pane) serializes to a versioned binary container
via ``SlidingWindowSketch.to_bytes`` and reopens anywhere, exactly like a
bare sketch.
"""

from repro.streaming.stream import StreamKind, StreamUpdate, UpdateStream
from repro.streaming.generators import (
    stream_from_edges,
    stream_from_items,
    stream_from_vector,
)
from repro.streaming.runner import StreamReport, StreamRunner
from repro.streaming.sharded import (
    ShardedIngestPool,
    ShardedIngestReport,
    shard_arrays,
)
from repro.streaming.trace import (
    read_csv_trace,
    read_npz_trace,
    write_csv_trace,
    write_npz_trace,
)
# windows must come after sharded/stream: it participates in an import cycle
# with repro.api (api.config/api.session import those siblings lazily)
from repro.streaming.windows import (
    SlidingWindowSketch,
    WindowSpec,
    is_window_payload,
)

__all__ = [
    "StreamKind",
    "StreamUpdate",
    "UpdateStream",
    "stream_from_edges",
    "stream_from_items",
    "stream_from_vector",
    "StreamReport",
    "StreamRunner",
    "ShardedIngestPool",
    "ShardedIngestReport",
    "shard_arrays",
    "read_csv_trace",
    "read_npz_trace",
    "write_csv_trace",
    "write_npz_trace",
    "SlidingWindowSketch",
    "WindowSpec",
    "is_window_payload",
]
