"""Multi-core sharded ingestion: a persistent worker pool over shared memory.

This is the single-machine incarnation of the paper's distributed model: a
linear sketch of a stream equals the merge of linear sketches of any
partition of that stream, so ingestion parallelises perfectly.  The engine
exploits that algebra **zero-copy**:

1. a :class:`ShardedIngestPool` spawns its worker processes **once**; each
   worker builds a compatible sketch (same ``(dimension, width, depth,
   seed)``, hence the same hash functions) and binds its counter arrays to a
   per-worker :class:`~repro.sketches._tables.SharedCounterBlock` — disjoint
   memory, no locks;
2. per call, the ``(index, delta)`` arrays are written into a shared updates
   segment and split into ``shards`` contiguous slices; workers receive only
   ``(offset, length)`` descriptors over a pipe and scatter-add their slices
   in place via the vectorised
   :meth:`~repro.sketches.base.Sketch.update_batch` path;
3. the parent folds the shard blocks into the target sketch with vectorized
   ``+=`` (:meth:`~repro.sketches.base.LinearSketch.fold_state`) — no
   pickling of counters in either direction, in contrast to the original
   fork-per-call engine that serialized every shard sketch with ``to_bytes``
   and paid more in round-trips than the parallelism bought.

For linear sketches on integer-weighted streams the folded state is
bit-identical to single-process ingestion (integer scatter-adds are exact in
float64, so summation order cannot matter); for real-weighted streams it
agrees up to floating-point summation order.  Non-linear sketches (CM-CU,
CML-CU) cannot be sharded — their state is order-dependent and unmergeable —
and are rejected up front.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import List, Optional, Tuple

import numpy as np

from repro.sketches._tables import SharedCounterBlock
from repro.sketches.base import LinearSketch
from repro.sketches.registry import get_spec
from repro.utils.validation import ensure_batch_arrays, require_positive_int

#: default update_batch chunk size inside each worker (matches StreamRunner
#: batched-replay sweet spot from the PR-1 benchmark)
DEFAULT_BATCH_SIZE = 8_192

#: smallest capacity (in updates) of the shared updates segment; grows
#: geometrically, so a session streaming ever-larger batches re-maps rarely
MIN_UPDATES_CAPACITY = 1 << 16

#: reserved field names appended to every worker block: the sketch's scalar
#: state (in sorted name order) and its items-processed counter
_SCALAR_FIELD = "__scalars__"
_ITEMS_FIELD = "__items__"


@dataclass
class ShardedIngestReport:
    """Outcome of one sharded ingestion run.

    Attributes
    ----------
    sketch:
        The sketch the run folded into (a :class:`LinearSketch`).
    sketch_name:
        Registry name of the algorithm.
    shards:
        Number of shards requested for the split.
    workers:
        Worker processes that actually received work.
    updates:
        Total updates ingested across all shards.
    shard_updates:
        Updates per non-empty shard slice, in stream order.
    batch_size:
        ``update_batch`` chunk size used inside the workers.
    elapsed_seconds:
        Wall-clock time of the whole operation (split + workers + fold).
    split_seconds:
        Time spent validating, staging the update arrays into shared
        memory, and dispatching slice descriptors.
    worker_seconds:
        Per participating worker, the in-worker scatter-add time summed
        over its slices (workers run concurrently, so the wall-clock cost
        is their max, not their sum).
    fold_seconds:
        Time the parent spent folding worker blocks into the target.
    """

    sketch: LinearSketch
    sketch_name: str
    shards: int
    workers: int
    updates: int
    shard_updates: List[int]
    batch_size: int
    elapsed_seconds: float
    split_seconds: float = 0.0
    worker_seconds: List[float] = field(default_factory=list)
    fold_seconds: float = 0.0


def shard_arrays(
    indices: np.ndarray, deltas: np.ndarray, shards: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split parallel update arrays into at most ``shards`` contiguous slices.

    Contiguity preserves stream order within each shard; for linear sketches
    the partition boundaries are immaterial (merging is exact), contiguous
    slices just avoid any shuffling cost.  Zero-length slices (``shards >
    updates``) are dropped — an empty shard would dispatch a worker task
    that contributes nothing.
    """
    return [
        (indices[start:stop], deltas[start:stop])
        for start, stop in _shard_bounds(indices.size, shards)
    ]


def _shard_bounds(size: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` slice bounds, empty slices dropped."""
    shards = require_positive_int(shards, "shards")
    boundaries = np.linspace(0, size, shards + 1).astype(np.int64)
    return [
        (int(start), int(stop))
        for start, stop in zip(boundaries[:-1], boundaries[1:])
        if stop > start
    ]


def _preferred_context():
    """Fork when available (cheap on Linux); the default context otherwise."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _block_layout(sketch: LinearSketch) -> Tuple[Tuple, Tuple[str, ...]]:
    """The worker-block layout for a sketch: state arrays + scalars + items.

    Derived deterministically from the sketch config on both sides of the
    pool, so parent and workers agree byte-for-byte without a header.
    """
    layout = [
        (name, shape, "float64") for name, shape in sketch.shared_state_layout()
    ]
    scalar_names = tuple(sorted(sketch._state_scalars()))
    layout.append((_SCALAR_FIELD, (max(1, len(scalar_names)),), "float64"))
    layout.append((_ITEMS_FIELD, (1,), "int64"))
    return tuple(layout), scalar_names


def _updates_layout(capacity: int) -> Tuple:
    return (("indices", (capacity,), "int64"), ("deltas", (capacity,), "float64"))


def _pool_worker(
    name: str,
    dimension: Optional[int],
    width: int,
    depth: int,
    seed: int,
    options: dict,
    block_name: str,
    block_layout: Tuple,
    scalar_names: Tuple[str, ...],
    task_conn,
    ack_conn,
) -> None:
    """Worker loop: attach once, then scatter-add slices until told to close.

    Module-level (not a closure) so it pickles under every multiprocessing
    start method.  The worker's sketch state lives in its shared block: at
    the first task of a new round it rebuilds a fresh sketch and rebinds
    (which zeroes the block), then accumulates every slice of that round in
    place.  After each slice it publishes its scalar state and item count
    into the block's reserved fields, so by the time the parent has
    collected the round's acks the block holds the complete shard state and
    nothing needs to be sent back.
    """
    spec = get_spec(name)
    block = SharedCounterBlock.attach(block_name, block_layout)
    sketch: Optional[LinearSketch] = None
    last_round = None
    updates_block: Optional[SharedCounterBlock] = None
    updates_name: Optional[str] = None
    try:
        while True:
            message = task_conn.recv()
            if message[0] == "close":
                break
            (_, round_id, seg_name, seg_layout, offset, length,
             batch_size) = message
            started = time.perf_counter()
            try:
                if round_id != last_round:
                    sketch = spec.build(
                        dimension, width, depth, seed=seed, **options
                    )
                    sketch.bind_state_buffers({
                        field_name: block.arrays[field_name]
                        for field_name, _ in sketch.shared_state_layout()
                    })
                    last_round = round_id
                if seg_name != updates_name:
                    if updates_block is not None:
                        updates_block.close()
                    updates_block = SharedCounterBlock.attach(
                        seg_name, seg_layout
                    )
                    updates_name = seg_name
                idx = updates_block.arrays["indices"][offset:offset + length]
                deltas = updates_block.arrays["deltas"][offset:offset + length]
                for start in range(0, length, batch_size):
                    stop = start + batch_size
                    sketch.update_batch(idx[start:stop], deltas[start:stop])
                scalars = sketch._state_scalars()
                if scalar_names:
                    block.arrays[_SCALAR_FIELD][: len(scalar_names)] = [
                        scalars[key] for key in scalar_names
                    ]
                block.arrays[_ITEMS_FIELD][0] = sketch.items_processed
                ack_conn.send(
                    ("done", round_id, time.perf_counter() - started)
                )
            except Exception:  # noqa: BLE001 - report, stay alive
                ack_conn.send(("error", round_id, traceback.format_exc()))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away; nothing left to do
    finally:
        # Drop every reference into the mapped buffers (the bound sketch and
        # the update slices) before closing, so the mmaps actually release
        # instead of deferring to a noisy interpreter-exit retry.
        sketch = None
        idx = deltas = None
        del sketch, idx, deltas
        if updates_block is not None:
            updates_block.close()
        block.close()


def _release_pool_resources(segment_names: List[str], processes: List) -> None:
    """Last-resort cleanup (gc / interpreter exit): kill workers, unlink shm.

    Module-level so the :func:`weakref.finalize` callback holds no reference
    to the pool itself.
    """
    for process in processes:
        try:
            if process.is_alive():
                process.terminate()
        except Exception:  # pragma: no cover - interpreter teardown
            pass
    for segment_name in segment_names:
        try:
            segment = shared_memory.SharedMemory(name=segment_name)
        except Exception:
            continue
        try:
            segment.unlink()
        finally:
            segment.close()


class ShardedIngestPool:
    """A persistent pool of sketching workers over shared-memory counters.

    Spawn once, ingest many times: each worker owns a
    :class:`~repro.sketches._tables.SharedCounterBlock` holding the state
    arrays of one shard sketch, updates are staged in a shared segment and
    described to workers as ``(offset, length)`` slices, and every
    :meth:`ingest` folds the shard blocks into the caller's target sketch
    with vectorized ``+=`` — no counter ever crosses a process boundary.

    Parameters
    ----------
    name:
        Registry name of the sketch algorithm; must be linear.
    dimension:
        Vector dimension, or ``None`` for hashed-key mode (any non-negative
        64-bit key).
    width, depth, seed:
        Sketch geometry; ``seed`` must be an explicit integer so every
        worker derives the same hash functions.
    workers:
        Worker process count (default ``os.cpu_count()``).  A call may
        request more ``shards`` than workers — slices are then assigned
        round-robin, each worker accumulating several slices into its block.
    batch_size:
        Default ``update_batch`` chunk size inside the workers.
    options:
        Algorithm-specific constructor kwargs (the ``options`` of a
        :class:`repro.api.SketchConfig`), forwarded to every worker.

    The pool is a context manager; :meth:`close` (idempotent) terminates the
    workers and unlinks every shared segment.  A :func:`weakref.finalize`
    backstop releases the segments even if the pool is leaked.
    """

    def __init__(
        self,
        name: str,
        dimension: Optional[int],
        width: int,
        depth: int,
        seed: int,
        *,
        workers: Optional[int] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        options: Optional[dict] = None,
    ) -> None:
        spec = get_spec(name)
        if not spec.linear:
            raise ValueError(
                f"sketch {name!r} is not linear; sharded ingestion requires "
                "a mergeable sketch (the conservative-update variants are "
                "order-dependent and cannot be sharded)"
            )
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
            raise ValueError(
                "sharded ingestion requires an explicit integer seed so all "
                "workers build compatible sketches"
            )
        self.sketch_name = name
        self.dimension = dimension
        self.width = int(width)
        self.depth = int(depth)
        self.seed = int(seed)
        self.batch_size = require_positive_int(batch_size, "batch_size")
        self.options = dict(options or {})
        self.workers = max(
            1, int(workers) if workers is not None else (os.cpu_count() or 1)
        )

        # the template never ingests; it anchors compatibility checks and
        # the block layout both sides derive independently
        self._template = spec.build(
            dimension, self.width, self.depth, seed=self.seed, **self.options
        )
        self._layout, self._scalar_names = _block_layout(self._template)
        self._state_fields = [
            field_name
            for field_name, _ in self._template.shared_state_layout()
        ]

        self._round = 0
        self._closed = False
        # cross-thread close coordination: a close() racing an in-flight
        # ingest round must abort the round and only release the shared
        # segments once the round's thread has stopped touching them
        self._state_lock = threading.Lock()
        self._close_requested = False
        self._round_active = False
        self._round_thread: Optional[int] = None
        self._round_done = threading.Event()
        self._round_done.set()
        self._updates: Optional[SharedCounterBlock] = None
        self._updates_capacity = 0
        self._blocks: List[SharedCounterBlock] = []
        self._processes: List = []
        self._task_conns: List = []
        self._ack_conns: List = []
        # mutated in place so the finalizer always sees the live inventory
        self._finalizer_segments: List[str] = []
        self._finalizer = weakref.finalize(
            self, _release_pool_resources,
            self._finalizer_segments, self._processes,
        )

        context = _preferred_context()
        try:
            for _ in range(self.workers):
                block = SharedCounterBlock.create(self._layout)
                self._blocks.append(block)
                self._finalizer_segments.append(block.name)
                task_recv, task_send = context.Pipe(duplex=False)
                ack_recv, ack_send = context.Pipe(duplex=False)
                process = context.Process(
                    target=_pool_worker,
                    args=(
                        name, dimension, self.width, self.depth, self.seed,
                        self.options, block.name, self._layout,
                        self._scalar_names, task_recv, ack_send,
                    ),
                    daemon=True,
                )
                process.start()
                task_recv.close()
                ack_send.close()
                self._processes.append(process)
                self._task_conns.append(task_send)
                self._ack_conns.append(ack_recv)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def segment_names(self) -> List[str]:
        """Names of every live shared-memory segment the pool owns."""
        names = [block.name for block in self._blocks]
        if self._updates is not None:
            names.append(self._updates.name)
        return names

    def close(self) -> None:
        """Terminate the workers and unlink every shared segment.

        Idempotent and safe to call from any thread, including while
        another thread has an ingest round in flight: the round is aborted
        (its :meth:`ingest` call raises ``RuntimeError``), and by the time
        ``close`` returns every worker is gone and every shared-memory
        segment has been released.  The round's own thread performs the
        actual teardown — the shared blocks stay mapped until it has
        stopped touching them.
        """
        while True:
            with self._state_lock:
                if self._closed:
                    return
                if (self._round_active
                        and threading.get_ident() != self._round_thread):
                    # a round is in flight on another thread: ask it to
                    # abort (it checks between ack polls) and wait for its
                    # teardown rather than unlinking memory under it
                    self._close_requested = True
                    waiter = self._round_done
                else:
                    self._closed = True
                    force = self._close_requested
                    waiter = None
            if waiter is None:
                self._teardown(force=force)
                return
            waiter.wait(timeout=60.0)

    def _teardown(self, *, force: bool = False) -> None:
        """Release workers, pipes and segments (callers mark ``_closed``).

        ``force`` skips the polite close handshake and terminates the
        workers outright — used when aborting an in-flight round, where a
        busy worker would not read its task pipe for a while.
        """
        self._finalizer.detach()
        if not force:
            for conn in self._task_conns:
                try:
                    conn.send(("close",))
                except (BrokenPipeError, OSError):
                    pass
        for process in self._processes:
            if force:
                process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
        for conn in self._task_conns + self._ack_conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for block in self._blocks:
            block.unlink()
            block.close()
        self._blocks = []
        if self._updates is not None:
            self._updates.unlink()
            self._updates.close()
            self._updates = None
        self._finalizer_segments.clear()

    def __enter__(self) -> "ShardedIngestPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _abort(self, reason: str) -> RuntimeError:
        """Shut the pool down and return the error for the caller to raise."""
        self.close()
        return RuntimeError(
            f"sharded ingest pool broken: {reason}; the pool has been shut "
            "down and its shared memory released"
        )

    # ------------------------------------------------------------------ #
    # staging
    # ------------------------------------------------------------------ #
    def _ensure_updates_capacity(self, needed: int) -> None:
        if self._updates is not None and self._updates_capacity >= needed:
            return
        capacity = max(MIN_UPDATES_CAPACITY, self._updates_capacity or 1)
        while capacity < needed:
            capacity *= 2
        old = self._updates
        self._updates = SharedCounterBlock.create(_updates_layout(capacity))
        self._updates_capacity = capacity
        self._finalizer_segments.append(self._updates.name)
        if old is not None:
            # workers drop their stale mapping on the next task (the segment
            # name travels in every descriptor); unlinking now is safe — the
            # memory is reclaimed once the last mapping closes
            try:
                self._finalizer_segments.remove(old.name)
            except ValueError:  # pragma: no cover
                pass
            old.unlink()
            old.close()

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def ingest(
        self,
        indices,
        deltas=None,
        *,
        target: LinearSketch,
        shards: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> ShardedIngestReport:
        """Shard one update batch across the pool and fold into ``target``.

        ``target`` must be compatible with the pool's configuration (same
        algorithm, geometry and integer seed); it is mutated in place — on
        return it holds exactly the state single-process
        ``target.update_batch(indices, deltas)`` would have produced
        (bit-identical for integer weights, up to summation order
        otherwise).
        """
        with self._state_lock:
            if self._closed or self._close_requested:
                raise ValueError("cannot ingest through a closed pool")
            self._round_active = True
            self._round_thread = threading.get_ident()
            self._round_done.clear()
        try:
            return self._ingest_round(
                indices, deltas, target=target, shards=shards,
                batch_size=batch_size,
            )
        finally:
            with self._state_lock:
                self._round_active = False
                self._round_thread = None
                teardown_needed = self._close_requested and not self._closed
                if teardown_needed:
                    self._closed = True
            if teardown_needed:
                self._teardown(force=True)
            self._round_done.set()

    def _ingest_round(
        self,
        indices,
        deltas,
        *,
        target: LinearSketch,
        shards: Optional[int],
        batch_size: Optional[int],
    ) -> ShardedIngestReport:
        if not isinstance(target, LinearSketch):
            raise TypeError(
                "sharded ingestion folds into a LinearSketch target, got "
                f"{type(target).__name__}"
            )
        self._template._check_compatible(target)
        shards = require_positive_int(
            shards if shards is not None else self.workers, "shards"
        )
        batch_size = require_positive_int(
            batch_size if batch_size is not None else self.batch_size,
            "batch_size",
        )
        started = time.perf_counter()
        indices, deltas = ensure_batch_arrays(indices, deltas, self.dimension)

        bounds = _shard_bounds(indices.size, shards)
        if not bounds:
            return ShardedIngestReport(
                sketch=target, sketch_name=self.sketch_name, shards=shards,
                workers=0, updates=0, shard_updates=[],
                batch_size=batch_size,
                elapsed_seconds=time.perf_counter() - started,
            )

        self._round += 1
        self._ensure_updates_capacity(indices.size)
        staging = self._updates.arrays
        staging["indices"][: indices.size] = indices
        staging["deltas"][: indices.size] = deltas
        seg_name = self._updates.name
        seg_layout = self._updates.layout

        # round-robin slice assignment over the first min(workers, slices)
        # workers; a worker accumulates its slices into one block, so the
        # parent folds once per participating worker, not once per slice
        participating = min(self.workers, len(bounds))
        expected = [0] * participating
        for slice_id, (start, stop) in enumerate(bounds):
            worker_id = slice_id % participating
            try:
                self._task_conns[worker_id].send((
                    "ingest", self._round, seg_name, seg_layout,
                    start, stop - start, batch_size,
                ))
            except (BrokenPipeError, OSError):
                raise self._abort(f"worker {worker_id} pipe closed") from None
            expected[worker_id] += 1
        split_seconds = time.perf_counter() - started

        worker_seconds = self._collect_acks(expected)

        fold_started = time.perf_counter()
        for worker_id in range(participating):
            arrays = self._blocks[worker_id].arrays
            scalars = {
                key: float(arrays[_SCALAR_FIELD][slot])
                for slot, key in enumerate(self._scalar_names)
            }
            target.fold_state(
                {name: arrays[name] for name in self._state_fields},
                scalars,
                int(arrays[_ITEMS_FIELD][0]),
            )
        fold_seconds = time.perf_counter() - fold_started

        return ShardedIngestReport(
            sketch=target,
            sketch_name=self.sketch_name,
            shards=shards,
            workers=participating,
            updates=int(indices.size),
            shard_updates=[stop - start for start, stop in bounds],
            batch_size=batch_size,
            elapsed_seconds=time.perf_counter() - started,
            split_seconds=split_seconds,
            worker_seconds=worker_seconds,
            fold_seconds=fold_seconds,
        )

    def _collect_acks(self, expected: List[int]) -> List[float]:
        """Wait for every participating worker's acks for the current round."""
        seconds = [0.0] * len(expected)
        for worker_id, count in enumerate(expected):
            received = 0
            while received < count:
                connection = self._ack_conns[worker_id]
                while True:
                    if self._close_requested:
                        raise self._abort(
                            "the pool was closed while a round was in "
                            "flight"
                        )
                    try:
                        if connection.poll(0.1):
                            break
                    except (OSError, ValueError):
                        raise self._abort(
                            f"worker {worker_id} ack pipe closed mid-round"
                        ) from None
                    if not self._processes[worker_id].is_alive():
                        raise self._abort(
                            f"worker {worker_id} died (exit code "
                            f"{self._processes[worker_id].exitcode})"
                        )
                try:
                    kind, round_id, payload = connection.recv()
                except (EOFError, OSError):
                    raise self._abort(
                        f"worker {worker_id} hung up mid-round"
                    ) from None
                if round_id != self._round:
                    continue  # stale ack from an errored round
                if kind == "error":
                    raise RuntimeError(
                        f"sharded ingest worker {worker_id} failed:\n{payload}"
                    )
                seconds[worker_id] += float(payload)
                received += 1
        return seconds

