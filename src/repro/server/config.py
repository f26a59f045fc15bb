"""Validated configuration of one :class:`~repro.server.ReproServer`.

A :class:`ServerConfig` binds the network surface (host/port, frame cap,
queue depth) to the sketch the writer owns (a
:class:`~repro.api.SketchConfig`), the read-replica refresh cadence, and
the optional :mod:`repro.store` URI the server boots from and checkpoints
to.  ``repro serve --config server.json`` builds one from a JSON mapping
via :meth:`ServerConfig.from_mapping`; flags override file keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional

from repro.api.config import SketchConfig
from repro.api.errors import ConfigError
from repro.server.protocol import DEFAULT_MAX_FRAME_BYTES
from repro.store.uri import is_store_uri
from repro.utils.validation import require_positive_int

#: JSON keys that describe the sketch (forwarded to :class:`SketchConfig`)
_SKETCH_KEYS = ("algorithm", "dimension", "width", "depth", "seed")

#: JSON keys that describe the server itself
_SERVER_KEYS = (
    "host", "port", "store", "shards", "snapshot_interval",
    "snapshot_updates", "queue_depth", "max_frame_bytes",
)


@dataclass(frozen=True)
class ServerConfig:
    """Everything one server process needs, validated eagerly.

    Parameters
    ----------
    sketch:
        The writer session's sketch configuration.  Ignored on boot when
        ``store`` names an existing catalog entry (the restored payload
        carries its own config); used to create the sketch otherwise.
    host, port:
        TCP bind address.  ``port=0`` binds an ephemeral port (the bound
        port is reported by :attr:`ReproServer.port` once started).
    store:
        Optional ``store://PATH#NAME`` URI: restore the newest snapshot on
        boot when the entry exists, and append a checkpoint snapshot on
        graceful shutdown.
    shards:
        Apply ingest batches through the multi-core sharded engine with
        this many shards (``1`` = single-process; linear sketches only).
    snapshot_interval:
        From this many seconds after the first unpublished update, refresh
        the read replica as soon as the ingest queue stays empty for 5 ms.
        Under continuous ingest the queue never empties, so this bounds
        staleness only between bursts.
    snapshot_updates:
        Also refresh once this many updates have been applied since the
        last refresh.  Under continuous ingest this is the only bound on
        staleness.
    queue_depth:
        Bound of the ingest queue, in batches; a full queue backpressures
        ingest connections instead of growing without limit.
    max_frame_bytes:
        Per-connection cap on one frame's total size, both directions.
    """

    sketch: SketchConfig = field(default=None)  # type: ignore[assignment]
    host: str = "127.0.0.1"
    port: int = 0
    store: Optional[str] = None
    shards: int = 1
    snapshot_interval: float = 0.25
    snapshot_updates: int = 100_000
    queue_depth: int = 64
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES

    def __post_init__(self) -> None:
        if self.sketch is not None and not isinstance(self.sketch, SketchConfig):
            raise ConfigError(
                f"sketch must be a SketchConfig, got "
                f"{type(self.sketch).__name__}"
            )
        if self.sketch is None and self.store is None:
            raise ConfigError(
                "a server needs a sketch to own: pass a SketchConfig, or a "
                "store:// URI naming an existing snapshot to restore"
            )
        if self.store is not None and not is_store_uri(self.store):
            raise ConfigError(
                f"store must be a store://PATH#NAME URI, got {self.store!r}"
            )
        if not isinstance(self.port, int) or not (0 <= self.port <= 65535):
            raise ConfigError(f"port must be in [0, 65535], got {self.port!r}")
        for name in ("shards", "queue_depth", "snapshot_updates",
                     "max_frame_bytes"):
            try:
                require_positive_int(getattr(self, name), name)
            except (TypeError, ValueError) as exc:
                raise ConfigError(str(exc)) from None
        if not (isinstance(self.snapshot_interval, (int, float))
                and not isinstance(self.snapshot_interval, bool)
                and self.snapshot_interval > 0):
            raise ConfigError(
                f"snapshot_interval must be a positive number of seconds, "
                f"got {self.snapshot_interval!r}"
            )
        if self.sketch is not None and self.shards > 1:
            if self.sketch.window is None and not self.sketch.spec.linear:
                raise ConfigError(
                    f"sketch {self.sketch.name!r} is not linear and cannot "
                    "apply ingest batches with shards > 1"
                )

    def replace(self, **changes: Any) -> "ServerConfig":
        """A new config with the given fields overridden (re-validated)."""
        return replace(self, **changes)

    @classmethod
    def from_mapping(
        cls,
        mapping: Mapping[str, Any],
        *,
        sketch: Optional[SketchConfig] = None,
        **overrides: Any,
    ) -> "ServerConfig":
        """Build a config from a JSON-style mapping (``repro serve --config``).

        Recognised keys: the sketch description (``algorithm``,
        ``dimension``, ``width``, ``depth``, ``seed``, plus ``window`` as a
        :meth:`~repro.streaming.windows.WindowSpec.to_dict` mapping and an
        ``options`` mapping of algorithm kwargs) and the server fields of
        this class.  ``sketch``/keyword ``overrides`` win over file keys;
        unknown keys are rejected so a typo cannot silently fall back to a
        default.
        """
        if not isinstance(mapping, Mapping):
            raise ConfigError(
                f"server config must be a JSON object, got "
                f"{type(mapping).__name__}"
            )
        known = set(_SKETCH_KEYS) | set(_SERVER_KEYS) | {"window", "options"}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ConfigError(
                f"unknown server config key(s) {unknown}; known keys: "
                f"{sorted(known)}"
            )
        fields: Dict[str, Any] = {
            key: mapping[key] for key in _SERVER_KEYS if key in mapping
        }
        fields.update(overrides)
        if sketch is None and "algorithm" in mapping:
            sketch = SketchConfig(
                mapping["algorithm"],
                dimension=mapping.get("dimension"),
                width=mapping.get("width", 2_048),
                depth=mapping.get("depth", 9),
                seed=mapping.get("seed", 0),
                window=mapping.get("window"),
                **dict(mapping.get("options") or {}),
            )
        return cls(sketch=sketch, **fields)
