"""The asyncio ingest/query front door (``repro serve``).

An HTAP-style split over one :class:`~repro.api.SketchSession`:

* the **writer** owns the live session (warm sharded-ingest pool, windowed
  panes) and applies batched updates from a bounded queue, in order;
* **readers** answer point / heavy-hitter / range / inner-product queries
  from read replicas, in-memory copies of the writer state that share a
  window's closed panes, refreshed on a configurable snapshot cadence —
  every answer carries the replica's ``epoch``, so staleness is always
  explicit, and the ``snapshot`` operation returns the payload behind the
  current epoch.

>>> from repro.server import Client, ServerConfig, ServerHandle
>>> handle = ServerHandle.start(ServerConfig(sketch=config))
>>> with Client(handle.host, handle.port) as client:
...     client.ingest([3, 5, 3])
...     client.flush()
...     client.point(3).value
>>> handle.stop()
"""

from repro.server.client import AsyncClient, Client, QueryAnswer
from repro.server.config import ServerConfig
from repro.server.errors import (
    ConnectionFailedError,
    FrameTooLargeError,
    ProtocolError,
    RemoteOperationError,
    ServeError,
)
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    REQUEST_MAGIC,
    REQUEST_OPS,
    RESPONSE_MAGIC,
)
from repro.server.service import (
    ReproServer,
    ServerHandle,
    serve_until_signalled,
)

__all__ = [
    "AsyncClient",
    "Client",
    "ConnectionFailedError",
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameTooLargeError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueryAnswer",
    "REQUEST_MAGIC",
    "REQUEST_OPS",
    "RESPONSE_MAGIC",
    "RemoteOperationError",
    "ReproServer",
    "ServeError",
    "ServerConfig",
    "ServerHandle",
    "serve_until_signalled",
]
