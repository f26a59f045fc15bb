"""The asyncio ingest/query front door, split HTAP-style.

One :class:`ReproServer` owns exactly one **writer** and any number of
**readers**:

* the writer path owns the live :class:`~repro.api.SketchSession` (with its
  warm sharded-ingest pool and windowed pane ring, when configured) and is
  the *only* code that mutates it — ingest frames are validated on the
  event loop, enqueued on a **bounded** queue (a full queue backpressures
  the ingesting connection instead of buffering without limit), and applied
  by a single writer task on a dedicated executor thread;
* the reader path answers every query from a **read replica**: an
  in-memory copy of the writer session, published on the writer thread.  A
  windowed replica shares the writer's closed panes, which the pane ring
  never mutates again, and copies only the open pane; an unwindowed replica
  copies the sketch.  A new replica is published once ``snapshot_updates``
  updates have been applied since the last one, or, from
  ``snapshot_interval`` seconds after the first unpublished update, as soon
  as the writer's queue stays empty for 5 ms — so under continuous ingest
  only ``snapshot_updates`` bounds staleness.  Queries therefore **never
  touch the ingest session**; every query response carries the replica's
  ``epoch`` so clients know exactly how stale their read is, and the
  ``snapshot`` operation returns the replica's wire payload, encoded on the
  first request of each epoch: it equals the writer's ``to_bytes()`` at
  that epoch, and answers are bit-identical to a local ``from_bytes``
  restore of it.

Per-connection traffic is accounted in six fixed counters (messages and
bytes per operation class), folded into one lifetime total when the
connection closes and surfaced by the ``stats`` operation, so accounting
memory does not grow with the number of frames or connections served.

Graceful shutdown (:meth:`ReproServer.drain`, wired to ``SIGTERM`` by
``repro serve``): stop accepting connections, reject new operations with a
``shutting-down`` error, apply every batch already accepted, take a final
snapshot, checkpoint to the configured ``store://`` URI, release the
writer session's worker pool, and close every connection.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.api.config import SketchConfig
from repro.api.errors import CapabilityError, ConfigError
from repro.api.session import SketchSession
from repro.serialization import SerializationError
from repro.server.config import ServerConfig
from repro.server.errors import (
    FrameTooLargeError,
    ProtocolError,
)
from repro.server.protocol import (
    REQUEST_MAGIC,
    REQUEST_OPS,
    RESPONSE_MAGIC,
    encode_frame,
    error_header,
    read_frame,
    unpack_updates,
    unpack_vector,
)
from repro.store import SketchStore, format_store_uri
from repro.store.uri import parse_store_uri

#: the traffic counters kept per connection and reported by ``stats``
_COUNTER_FIELDS = ("messages", "ingest_bytes", "ingest_updates",
                   "query_bytes", "queries", "other_bytes")


class _Published(NamedTuple):
    """One read-replica publication, swapped in whole.

    No update reaches ``replica`` once it is published (readers only build
    its merged window view), so queries and the lazy ``snapshot`` encode
    may still hold it after later epochs are published.
    """

    epoch: int
    replica: SketchSession
    items: int


class _Drain(NamedTuple):
    """Writer-queue sentinel: apply nothing further, settle and stop."""

    future: asyncio.Future


class _Flush(NamedTuple):
    """Writer-queue sentinel: refresh the replica now, resolve with epoch."""

    future: asyncio.Future


class _Batch(NamedTuple):
    """One accepted ingest batch, in arrival order."""

    indices: np.ndarray
    deltas: np.ndarray


class ReproServer:
    """The asyncio TCP service over one writer session and its replicas.

    >>> server = ReproServer(ServerConfig(sketch=config, port=0))
    >>> await server.start()
    >>> server.port                      # the bound port
    >>> ...
    >>> summary = await server.drain()   # graceful shutdown

    The server is single-writer by construction: every mutation of the
    ingest session happens on one executor thread, in arrival order.
    """

    def __init__(self, config: ServerConfig) -> None:
        self._config = config
        self._session: Optional[SketchSession] = None
        self._restored_from_store = False
        self._published: Optional[_Published] = None
        #: the epoch last asked for by ``snapshot``, and its payload encode
        self._snapshot: Optional[Tuple[int, asyncio.Future]] = None
        self._epoch = 0
        self._queue: Optional[asyncio.Queue] = None
        self._writer_task: Optional[asyncio.Task] = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-writer"
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._draining = False
        self._drain_summary: Optional[Dict[str, Any]] = None
        self._drain_lock: Optional[asyncio.Lock] = None

        # accounting
        self._accepted_updates = 0
        self._applied_updates = 0
        self._applied_batches = 0
        self._rejected_batches = 0
        self._last_reject: Optional[str] = None
        self._pending_updates = 0
        self._dirty_since: Optional[float] = None
        self._conn_serial = 0
        self._conn_counters: Dict[str, Counter] = {}
        self._conn_writers: set = set()
        self._closed_totals = Counter(dict.fromkeys(_COUNTER_FIELDS, 0))

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> ServerConfig:
        return self._config

    @property
    def host(self) -> str:
        return self._config.host

    @property
    def port(self) -> int:
        """The actually-bound TCP port (resolves ``port=0``)."""
        if self._server is None:
            return self._config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def epoch(self) -> int:
        """The epoch of the currently-published read replica."""
        return self._published.epoch if self._published else 0

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def restored_from_store(self) -> bool:
        """Whether the writer session was restored from the store on boot."""
        return self._restored_from_store

    @property
    def sketch_config(self) -> Optional[SketchConfig]:
        """The writer session's (possibly store-restored) sketch config."""
        return self._session.config if self._session is not None else None

    async def start(self) -> "ReproServer":
        """Boot the writer session, publish epoch 0, and start listening."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._session = self._boot_session()
        if not self._session.config.portable:
            raise ConfigError(
                "serving requires an explicit integer seed: the read "
                "replicas are copied through the sketch state and snapshots "
                "are wire payloads, which only seeded sketches can produce"
            )
        if self._config.shards > 1 and not self._session.spec.linear:
            raise ConfigError(
                f"sketch {self._session.config.name!r} is not linear and "
                "cannot apply ingest batches with shards > 1"
            )
        window = self._session.config.window
        if window is not None and window.by == "time":
            raise ConfigError(
                "serving supports count-based panes only: ingest frames "
                "carry no timestamps, which time-based panes require"
            )
        self._drain_lock = asyncio.Lock()
        self._queue = asyncio.Queue(maxsize=self._config.queue_depth)
        await self._refresh_replica(force=True, first=True)
        self._writer_task = asyncio.create_task(
            self._writer_loop(), name="repro-server-writer"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self._config.host, self._config.port
        )
        return self

    def _boot_session(self) -> SketchSession:
        """The writer session: store-restored when possible, fresh otherwise."""
        if self._config.store is not None:
            reference = parse_store_uri(self._config.store)
            if Path(reference.path).exists():
                with SketchStore(reference.path) as store:
                    names = {entry.name for entry in store.list()}
                if reference.name in names:
                    session = SketchSession.open(self._config.store)
                    self._restored_from_store = True
                    return session
            if self._config.sketch is None:
                raise ConfigError(
                    f"store URI {self._config.store!r} names no existing "
                    "snapshot and no sketch config was given; pass the "
                    "sketch to create on first boot"
                )
        return SketchSession.from_config(self._config.sketch)

    async def drain(self) -> Dict[str, Any]:
        """Gracefully shut down; returns a summary (idempotent).

        Ordering: stop accepting connections → reject new operations →
        apply every already-accepted batch → final snapshot → checkpoint to
        the store (when configured) → release the writer session (worker
        pool, shared memory) → close every connection.
        """
        async with self._drain_lock:
            if self._drain_summary is not None:
                return self._drain_summary
            self._draining = True
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            if self._writer_task is not None and not self._writer_task.done():
                future: asyncio.Future = (
                    asyncio.get_running_loop().create_future()
                )
                await self._queue.put(_Drain(future))
                await future
                await self._writer_task
            checkpoint = await self._checkpoint()
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._session.close)
            self._executor.shutdown(wait=True)
            for writer in list(self._conn_writers):
                writer.close()
            self._drain_summary = {
                "updates_accepted": self._accepted_updates,
                "updates_applied": self._applied_updates,
                "batches_applied": self._applied_batches,
                "batches_rejected": self._rejected_batches,
                "final_epoch": self._epoch,
                "items_processed": (
                    self._published.items if self._published else 0
                ),
                "checkpoint": checkpoint,
            }
            return self._drain_summary

    async def _checkpoint(self) -> Optional[str]:
        if self._config.store is None:
            return None
        reference = parse_store_uri(self._config.store)
        destination = format_store_uri(reference.path, reference.name)
        loop = asyncio.get_running_loop()
        return str(
            await loop.run_in_executor(
                self._executor, self._session.save, destination
            )
        )

    # ------------------------------------------------------------------ #
    # writer path
    # ------------------------------------------------------------------ #
    async def _writer_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            timeout = None
            if self._dirty_since is not None:
                due = self._dirty_since + self._config.snapshot_interval
                timeout = max(0.005, due - loop.time())
            try:
                if timeout is None:
                    item = await self._queue.get()
                else:
                    item = await asyncio.wait_for(self._queue.get(), timeout)
            except asyncio.TimeoutError:
                await self._refresh_replica()
                continue
            if isinstance(item, _Drain):
                await self._refresh_replica()
                item.future.set_result(self._epoch)
                return
            if isinstance(item, _Flush):
                await self._refresh_replica()
                item.future.set_result(self._epoch)
                continue
            applied = await loop.run_in_executor(
                self._executor, self._apply_batch, item.indices, item.deltas
            )
            if applied:
                self._applied_batches += 1
                self._applied_updates += applied
                self._pending_updates += applied
                if self._dirty_since is None:
                    self._dirty_since = loop.time()
                if self._pending_updates >= self._config.snapshot_updates:
                    await self._refresh_replica()

    def _apply_batch(self, indices: np.ndarray, deltas: np.ndarray) -> int:
        """Apply one batch on the writer thread; never raises into the loop."""
        try:
            self._session.ingest(
                indices,
                deltas,
                shards=self._config.shards if self._config.shards > 1 else None,
            )
            return int(indices.size)
        except Exception as exc:  # noqa: BLE001 - keep the writer alive
            self._rejected_batches += 1
            self._last_reject = f"{type(exc).__name__}: {exc}"
            return 0

    async def _refresh_replica(self, *, force: bool = False,
                               first: bool = False) -> None:
        """Copy the writer session and publish the copy as the read replica.

        The copy is made on the writer thread, between two batches, so it is
        a consistent cut.  A windowed copy shares the closed panes and
        copies the open one (see ``SlidingWindowSketch._copy``).
        """
        if not force and self._pending_updates == 0:
            self._dirty_since = None
            return
        replica = await asyncio.get_running_loop().run_in_executor(
            self._executor, self._copy_session
        )
        if not first:
            self._epoch += 1
        self._published = _Published(
            self._epoch, replica, int(replica.items_processed)
        )
        self._pending_updates = 0
        self._dirty_since = None

    def _copy_session(self) -> SketchSession:
        """A copy of the writer session that later ingest leaves unchanged."""
        session = self._session
        if session.windowed:
            return SketchSession(session.config, session.window._copy())
        return SketchSession(session.config, session.sketch.copy())

    # ------------------------------------------------------------------ #
    # reader path (one handler per connection)
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        self._conn_serial += 1
        conn_id = (
            f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) and len(peer) >= 2
            else f"conn-{self._conn_serial}"
        )
        counters = Counter(dict.fromkeys(_COUNTER_FIELDS, 0))
        self._conn_counters[conn_id] = counters
        self._conn_writers.add(writer)
        try:
            while True:
                try:
                    frame = await read_frame(
                        reader, REQUEST_MAGIC,
                        max_frame_bytes=self._config.max_frame_bytes,
                    )
                except FrameTooLargeError as exc:
                    await self._respond(
                        writer, error_header(str(exc), "frame-too-large")
                    )
                    return
                except ProtocolError as exc:
                    await self._respond(
                        writer, error_header(str(exc), "protocol")
                    )
                    return
                if frame is None:
                    return
                header, payload = frame
                response_header, response_payload = (
                    await self._dispatch(header, payload)
                )
                sent = await self._respond(
                    writer, response_header, response_payload
                )
                if sent is None:
                    return
                self._account(counters, header.get("op"), response_header,
                              len(payload) + sent)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._conn_counters.pop(conn_id, None)
            self._closed_totals.update(counters)
            self._conn_writers.discard(writer)
            writer.close()

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        header: Dict[str, Any],
        payload: bytes = b"",
    ) -> Optional[int]:
        """Send one response frame; returns its size, or ``None`` if gone."""
        try:
            frame = encode_frame(
                RESPONSE_MAGIC, header, payload,
                max_frame_bytes=self._config.max_frame_bytes,
            )
        except FrameTooLargeError as exc:
            frame = encode_frame(
                RESPONSE_MAGIC, error_header(str(exc), "frame-too-large")
            )
        try:
            writer.write(frame)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            return None
        return len(frame)

    async def _dispatch(
        self, header: Dict[str, Any], payload: bytes
    ) -> Tuple[Dict[str, Any], bytes]:
        """Route one request; returns the response ``(header, payload)``."""
        op = header.get("op")
        if op not in REQUEST_OPS:
            return error_header(
                f"unknown operation {op!r}; known operations: "
                f"{sorted(REQUEST_OPS)}",
                "protocol",
            ), b""
        if self._draining and op not in ("stats", "ping"):
            return error_header(
                "server is shutting down; no further "
                f"{op} operations are accepted",
                "shutting-down",
            ), b""
        handler = getattr(self, f"_op_{op}")
        try:
            return await handler(header, payload)
        except ProtocolError as exc:
            return error_header(str(exc), "protocol"), b""
        except CapabilityError as exc:
            return error_header(str(exc), "capability"), b""
        except (ConfigError, SerializationError, ValueError, KeyError) as exc:
            detail = exc.args[0] if exc.args else exc
            return error_header(str(detail), "config"), b""
        except Exception as exc:  # noqa: BLE001 - never kill the connection
            return error_header(f"{type(exc).__name__}: {exc}", "server"), b""

    async def _op_ping(
        self, header: Dict[str, Any], payload: bytes
    ) -> Tuple[Dict[str, Any], bytes]:
        return {"ok": True, "op": "ping", "epoch": self.epoch}, b""

    async def _op_ingest(
        self, header: Dict[str, Any], payload: bytes
    ) -> Tuple[Dict[str, Any], bytes]:
        if "count" not in header:
            raise ProtocolError("ingest frames must carry a 'count' field")
        indices, deltas = unpack_updates(payload, header["count"])
        # the session's own batch checks (key range, finite deltas, the
        # kind's delta rule): a batch the writer would drop is refused here
        try:
            self._session.check_batch(indices, deltas)
        except IndexError as exc:  # a key outside the sketch's universe
            raise ConfigError(str(exc)) from None
        if indices.size:
            await self._queue.put(_Batch(indices, deltas))
            self._accepted_updates += indices.size
        return (
            {
                "ok": True,
                "op": "ingest",
                "accepted": int(indices.size),
                "epoch": self.epoch,
                "queued_batches": self._queue.qsize(),
            },
            b"",
        )

    async def _op_query(
        self, header: Dict[str, Any], payload: bytes
    ) -> Tuple[Dict[str, Any], bytes]:
        published = self._published
        kind = header.get("kind", "point")
        params = dict(header.get("params") or {})
        if kind == "inner_product":
            if "vector_length" not in header:
                raise ProtocolError(
                    "inner_product queries carry the vector as the frame "
                    "payload and must declare 'vector_length'"
                )
            params["vector"] = unpack_vector(
                payload, header["vector_length"]
            )
        result = self._run_query(published.replica, kind, params)
        return (
            {
                "ok": True,
                "op": "query",
                "kind": kind,
                "epoch": published.epoch,
                "items": published.items,
                "result": result,
            },
            b"",
        )

    @staticmethod
    def _run_query(replica: SketchSession, kind: str, params: Dict[str, Any]):
        """Answer one query on the replica, JSON-safe result out."""
        if kind == "point":
            index = params.get("index")
            if index is None:
                raise ProtocolError("point queries need params.index")
            if isinstance(index, list):
                estimates = replica.query(
                    kind="point", index=np.asarray(index, dtype=np.int64)
                )
                return [float(value) for value in estimates]
            return float(replica.query(kind="point", index=int(index)))
        if kind == "heavy_hitters":
            allowed = {
                "threshold", "phi", "total_mass", "relative_to_bias",
                "top_k", "candidates",
            }
            unknown = sorted(set(params) - allowed)
            if unknown:
                raise ProtocolError(
                    f"unknown heavy_hitters parameter(s) {unknown}"
                )
            if params.get("candidates") is not None:
                params["candidates"] = np.asarray(
                    params["candidates"], dtype=np.int64
                )
            hitters = replica.query(kind="heavy_hitters", **params)
            return [
                [int(h.index), float(h.estimate), float(h.score)]
                for h in hitters
            ]
        if kind == "range":
            if "low" not in params or "high" not in params:
                raise ProtocolError("range queries need params.low and .high")
            return float(
                replica.query(
                    kind="range",
                    low=int(params["low"]),
                    high=int(params["high"]),
                )
            )
        if kind == "inner_product":
            return float(
                replica.query(kind="inner_product", vector=params["vector"])
            )
        raise ProtocolError(
            f"unknown query kind {kind!r}; known kinds: point, "
            "heavy_hitters, range, inner_product"
        )

    async def _op_snapshot(
        self, header: Dict[str, Any], payload: bytes
    ) -> Tuple[Dict[str, Any], bytes]:
        published = self._published
        if self._snapshot is None or self._snapshot[0] != published.epoch:
            # encoded once per epoch, on the writer thread, off the loop
            self._snapshot = (
                published.epoch,
                asyncio.get_running_loop().run_in_executor(
                    self._executor, published.replica.to_bytes
                ),
            )
        # shielded: one cancelled request must not cancel the shared encode
        data = await asyncio.shield(self._snapshot[1])
        return (
            {
                "ok": True,
                "op": "snapshot",
                "epoch": published.epoch,
                "items": published.items,
            },
            data,
        )

    async def _op_flush(
        self, header: Dict[str, Any], payload: bytes
    ) -> Tuple[Dict[str, Any], bytes]:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put(_Flush(future))
        epoch = await future
        published = self._published
        return (
            {
                "ok": True,
                "op": "flush",
                "epoch": int(epoch),
                "items": published.items,
            },
            b"",
        )

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    @staticmethod
    def _account(counters: Counter, op: Any, response: Dict[str, Any],
                 frame_bytes: int) -> None:
        """Count one served request/response pair on its connection."""
        counters["messages"] += 1
        if op == "ingest":
            counters["ingest_bytes"] += frame_bytes
            counters["ingest_updates"] += int(response.get("accepted", 0))
        elif op == "query":
            counters["query_bytes"] += frame_bytes
            counters["queries"] += 1
        else:
            counters["other_bytes"] += frame_bytes

    async def _op_stats(
        self, header: Dict[str, Any], payload: bytes
    ) -> Tuple[Dict[str, Any], bytes]:
        totals = Counter(self._closed_totals)
        for counters in self._conn_counters.values():
            totals.update(counters)
        return (
            {
                "ok": True,
                "op": "stats",
                "epoch": self.epoch,
                "draining": self._draining,
                "updates_accepted": self._accepted_updates,
                "updates_applied": self._applied_updates,
                "batches_applied": self._applied_batches,
                "batches_rejected": self._rejected_batches,
                "last_reject": self._last_reject,
                "queued_batches": self._queue.qsize(),
                "snapshot_items": (
                    self._published.items if self._published else 0
                ),
                "connections": {
                    conn_id: dict(counters)
                    for conn_id, counters in self._conn_counters.items()
                },
                "totals": dict(totals),
            },
            b"",
        )


# --------------------------------------------------------------------------- #
# running a server
# --------------------------------------------------------------------------- #
async def serve_until_signalled(
    config: ServerConfig,
    *,
    on_ready=None,
    signals: Tuple[int, ...] = (signal.SIGTERM, signal.SIGINT),
) -> Dict[str, Any]:
    """Run a server until SIGTERM/SIGINT, then drain; returns the summary.

    ``on_ready`` (if given) is called with the started :class:`ReproServer`
    once it is accepting connections — ``repro serve`` prints its boot
    banner from there.
    """
    server = ReproServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed: List[int] = []
    for signum in signals:
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    try:
        if on_ready is not None:
            on_ready(server)
        await stop.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
    return await server.drain()


class ServerHandle:
    """A server running on its own event-loop thread, for synchronous callers.

    The sync :class:`~repro.server.Client`, the load-generator benchmark and
    the examples need a live TCP server without owning an event loop;
    :meth:`start` boots one on a daemon thread and :meth:`stop` drains it::

        handle = ServerHandle.start(ServerConfig(sketch=config))
        with Client(handle.host, handle.port) as client:
            ...
        summary = handle.stop()
    """

    def __init__(self) -> None:
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._boot_error: Optional[BaseException] = None
        self._server: Optional[ReproServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._summary: Optional[Dict[str, Any]] = None
        self._port: Optional[int] = None

    @classmethod
    def start(cls, config: ServerConfig, *, timeout: float = 30.0) -> "ServerHandle":
        handle = cls()
        handle._thread = threading.Thread(
            target=handle._run, args=(config,), daemon=True,
            name="repro-server",
        )
        handle._thread.start()
        if not handle._ready.wait(timeout):
            raise RuntimeError("server thread did not come up in time")
        if handle._boot_error is not None:
            raise handle._boot_error
        return handle

    def _run(self, config: ServerConfig) -> None:
        asyncio.run(self._main(config))

    async def _main(self, config: ServerConfig) -> None:
        try:
            server = await ReproServer(config).start()
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._boot_error = exc
            self._ready.set()
            return
        self._server = server
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._port = server.port
        self._ready.set()
        await self._stop_event.wait()
        self._summary = await server.drain()

    @property
    def server(self) -> ReproServer:
        return self._server

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._port

    def begin_drain(self) -> None:
        """Initiate a graceful drain without waiting for it to finish."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    def stop(self, *, timeout: float = 30.0) -> Optional[Dict[str, Any]]:
        """Drain the server and join its thread; returns the drain summary."""
        self.begin_drain()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():  # pragma: no cover - stuck drain
                raise RuntimeError("server thread did not drain in time")
        return self._summary
