"""Versioned binary wire format for portable sketch state.

Every sketch in the library exposes an explicit *state protocol*:

* ``state_dict()`` / ``from_state()`` — the in-memory form: a plain dict
  holding the constructor configuration (including the integer seed, from
  which all hash functions, sign functions and sampling matrices are
  re-derived) plus the mutable state (counter tables, maintained samples,
  running sums, RNG state).
* ``to_bytes()`` / ``from_bytes()`` — the wire form: the state dict encoded
  in the versioned binary format defined here, so sketch state can be
  snapshotted to disk, shipped between processes or machines, and restored
  independently of the constructing process.

Wire format (version 1)
-----------------------
::

    offset  size       field
    0       4          magic  b"RPSK"
    4       2          wire-format version, uint16 little-endian
    6       4          header length H, uint32 little-endian
    10      H          header, UTF-8 JSON (sorted keys)
    10+H    ...        array payloads, concatenated in header order,
                       raw little-endian bytes

The JSON header carries ``kind`` (the registry name of the sketch class),
``state_version`` (bumped when a sketch's state layout changes), ``config``
(constructor arguments), ``scalars`` (named scalar state that counts toward
the sketch's word footprint), ``meta`` (bookkeeping that does not, e.g.
``items_processed`` or the CML-CU generator state) and an ``arrays`` manifest
of ``{name, dtype, shape}`` entries describing the payloads that follow.
The window container of :mod:`repro.streaming.windows` (magic ``RPWD``) is
framed the same way, by the same two functions.

The format is *seed-reproducible*: data-independent structure (hash buckets,
signs, sampled coordinate indices, dense Gaussian matrices) is never encoded —
it is regenerated from ``config["seed"]`` on decode, which keeps payloads at
essentially the information-theoretic size of the counters.  Consequently a
sketch must be constructed with an integer seed to be serialized;
:func:`encode_state` rejects generator-seeded sketches.

Word accounting
---------------
:func:`state_word_count` computes the number of 8-byte words of actual sketch
state in a payload (array elements plus counted scalars).  The distributed
layer reconciles this *measured* size against each sketch's declared
``size_in_words()`` and flags disagreements — see
:class:`repro.distributed.network.CommunicationLog`.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from typing import Any, Dict, List, Tuple, Type

import numpy as np

#: 4-byte magic prefixing every serialized sketch
WIRE_MAGIC = b"RPSK"
#: current wire-format version (the ``uint16`` following the magic)
WIRE_VERSION = 1

_PREAMBLE = struct.Struct("<4sHI")  # magic, version, header length

#: kind -> class; populated by :func:`register_serializable` at import time
_KIND_REGISTRY: Dict[str, Type] = {}


class SerializationError(ValueError):
    """Raised when a payload cannot be encoded or decoded."""


@contextmanager
def reconstruction_errors(context: str = "payload"):
    """Turn reconstruction faults into :class:`SerializationError`.

    A corrupted (but structurally parseable) payload surfaces deep inside
    ``from_state`` as a ``KeyError`` (missing state field), ``IndexError``,
    ``AttributeError`` or ``TypeError`` (a field of the wrong shape being
    used as something it is not).  Every decode entry point wraps the
    reconstruction in this guard so callers see one clean, typed error
    instead of an implementation detail.  ``ValueError`` family errors
    (:class:`SerializationError` itself, config validation) already carry
    user-facing messages and pass through untouched.
    """
    try:
        yield
    except (SerializationError, ValueError):
        raise
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise SerializationError(
            f"corrupt {context}: reconstruction failed "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def is_serializable_seed(seed: Any) -> bool:
    """Whether ``seed`` lets a sketch's structure be reproduced elsewhere."""
    return isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)


def check_reconstructible(state: Dict[str, Any]) -> None:
    """Reject states whose hash structure cannot be re-derived on restore.

    Reconstruction regenerates all data-independent structure (hash buckets,
    signs, sampled indices, dense matrices) from ``config["seed"]``; with no
    integer seed, a restored sketch would silently pair the recorded counters
    with freshly drawn, different structure.  Fail loudly instead.
    """
    if not is_serializable_seed(state.get("config", {}).get("seed")):
        raise ValueError(
            f"state of kind {state.get('kind')!r} was captured from a sketch "
            "without an explicit integer seed; its hash structure cannot be "
            "reproduced, so it cannot be restored (or copied through the "
            "state protocol) — construct the sketch with an integer seed"
        )


def check_state_version(state: Dict[str, Any], klass: Type) -> None:
    """Reject snapshots whose per-sketch state layout differs from ours.

    Any mismatch — older or newer — fails loudly: a bumped ``state_version``
    means the meaning of the arrays/scalars changed, and loading across the
    bump would silently misinterpret them.
    """
    recorded = int(state.get("state_version", 1))
    supported = int(getattr(klass, "state_version", 1))
    if recorded != supported:
        raise ValueError(
            f"state of kind {state.get('kind')!r} has state_version "
            f"{recorded}, but {klass.__name__} reads state_version "
            f"{supported}; re-snapshot the sketch with a matching build"
        )


class StateProtocolMixin:
    """Wire-format plumbing shared by everything with a ``state_dict``.

    Hosts the four derived operations — :meth:`to_bytes`,
    :meth:`from_bytes`, :meth:`size_in_bytes` and :meth:`copy` — on top of
    the two primitives the class itself provides (``state_dict()`` /
    ``from_state()``), so :class:`repro.sketches.base.Sketch` and the dense
    :class:`repro.compressive.gaussian.GaussianSketch` share one audited
    implementation (including the integer-seed validation).
    """

    def to_bytes(self) -> bytes:
        """Encode the state in the versioned binary wire format.

        Requires an integer ``seed`` (structure is regenerated from it on
        decode); raises ``ValueError`` for unseeded or generator-seeded
        sketches, whose structure cannot be reproduced elsewhere.
        """
        if not is_serializable_seed(getattr(self, "seed", None)):
            raise ValueError(
                f"{type(self).__name__} was constructed with seed "
                f"{getattr(self, 'seed', None)!r}; only sketches built from "
                "an explicit integer seed can be serialized (the wire format "
                "regenerates hash functions and matrices from the seed)"
            )
        return encode_state(self.state_dict())

    @classmethod
    def from_bytes(cls, data: bytes):
        """Decode a wire payload produced by :meth:`to_bytes`.

        Corrupt payloads raise :class:`SerializationError`, never a raw
        ``struct.error``/``KeyError`` from the decoding internals.
        """
        state = decode_state(data)
        with reconstruction_errors(f"{cls.__name__} payload"):
            return cls.from_state(state)

    def size_in_bytes(self) -> int:
        """Exact size of this sketch's serialized wire payload."""
        return len(self.to_bytes())

    def copy(self):
        """Deep copy through the state protocol (same structure, copied state).

        Requires an integer seed, like every reconstruction: restoring state
        against freshly drawn structure would silently corrupt the copy.
        """
        return type(self).from_state(self.state_dict())


def register_serializable(cls: Type, kind: str = None) -> Type:
    """Register ``cls`` under ``kind`` (default: its ``name`` attribute).

    The registered class must expose a ``from_state(state_dict)`` classmethod;
    :func:`sketch_from_state` dispatches to it.  Usable as a decorator.
    """
    key = kind if kind is not None else getattr(cls, "name", None)
    if not key:
        raise ValueError(f"{cls.__name__} has no 'name' attribute to register under")
    _KIND_REGISTRY[key] = cls
    return cls


def lookup_kind(kind: str) -> Type:
    """Return the class registered under ``kind``, importing defaults first."""
    _ensure_default_kinds()
    try:
        return _KIND_REGISTRY[kind]
    except KeyError:
        known = ", ".join(sorted(_KIND_REGISTRY))
        raise SerializationError(
            f"unknown sketch kind {kind!r}; registered kinds: {known}"
        ) from None


def registered_kinds() -> list:
    """Names of every registered serializable kind (sorted)."""
    _ensure_default_kinds()
    return sorted(_KIND_REGISTRY)


def _ensure_default_kinds() -> None:
    """Import the packages whose classes self-register with this module."""
    import repro.compressive  # noqa: F401  (registers GaussianSketch)
    import repro.core  # noqa: F401  (registers the bias-aware sketches)
    import repro.sketches.registry  # noqa: F401  (registers the baselines)


# --------------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------------- #
def _json_safe(value: Any, context: str) -> Any:
    """Validate/normalise header values to deterministic JSON-able types."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (list, tuple)):
        # a list of plain ints (a ``tolist()`` of an integer array, say) is
        # already JSON-safe; anything else is validated item by item
        if set(map(type, value)) <= {int}:
            return list(value)
        return [_json_safe(v, context) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v, context) for k, v in value.items()}
    raise SerializationError(
        f"{context} contains a non-serializable value of type "
        f"{type(value).__name__}; sketches must be constructed with an "
        "integer seed (not a numpy Generator) to be serialized"
    )


def encode_state(state: Dict[str, Any]) -> bytes:
    """Encode a sketch state dict into the versioned binary wire format."""
    arrays = state.get("arrays", {})
    manifest = []
    payloads = []
    for name, array in arrays.items():
        arr = np.ascontiguousarray(array)
        little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        manifest.append(
            {"name": str(name), "dtype": little.dtype.str, "shape": list(arr.shape)}
        )
        payloads.append(little.tobytes())
    header = {
        "kind": state["kind"],
        "state_version": int(state.get("state_version", 1)),
        "config": _json_safe(state.get("config", {}), "config"),
        "scalars": _json_safe(state.get("scalars", {}), "scalars"),
        "meta": _json_safe(state.get("meta", {}), "meta"),
        "arrays": manifest,
    }
    return _write_framed(WIRE_MAGIC, WIRE_VERSION, header, payloads)


# --------------------------------------------------------------------------- #
# framing: the preamble and JSON header shared by RPSK and RPWD
# --------------------------------------------------------------------------- #
def _write_framed(magic: bytes, version: int, header: Dict[str, Any],
                  payloads: List[bytes]) -> bytes:
    """The preamble, the sorted-key JSON ``header``, then ``payloads``.

    Both versioned containers are framed this way: a sketch (``RPSK``,
    :func:`encode_state`) and a window (``RPWD``, whose payloads are one
    ``RPSK`` payload per live pane).
    """
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return b"".join(
        [_PREAMBLE.pack(magic, version, len(header_bytes)), header_bytes,
         *payloads]
    )


def _read_framed(data: bytes, magic: bytes, version: int,
                 noun: str) -> Tuple[Dict[str, Any], int]:
    """Check the preamble of a ``noun`` payload and parse its JSON header.

    Returns the header, which must be a JSON object, and the offset of the
    first payload byte.  Every failure names what it read: a version
    mismatch reports the embedded version next to the supported one, and a
    header that cannot be parsed reports the version the payload claims.
    """
    # the sketch family predates the window one; its messages say "payload"
    # where the window's say "window"
    label = "" if noun == "sketch" else f"{noun} "
    if len(data) < _PREAMBLE.size:
        raise SerializationError(
            f"payload of {len(data)} bytes is too short to be a serialized "
            f"{noun}"
        )
    found, found_version, header_len = _PREAMBLE.unpack_from(data, 0)
    if found != magic:
        raise SerializationError(
            f"bad magic {found!r}; not a serialized {noun} payload"
        )
    if found_version != version:
        raise SerializationError(
            f"unsupported {label}wire-format version {found_version}; this "
            f"build reads version {version} — re-save the {noun} with a "
            "matching build"
        )
    start = _PREAMBLE.size
    end = start + header_len
    if len(data) < end:
        raise SerializationError(
            f"truncated {label}payload (wire version {found_version}): header "
            "is incomplete"
        )
    header_word = label or "payload "
    try:
        header = json.loads(data[start:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"corrupt {header_word}header in a payload written as wire "
            f"version {found_version}: {exc}"
        ) from exc
    if not isinstance(header, dict):
        raise SerializationError(
            f"corrupt {header_word}header: expected a JSON object, got "
            f"{type(header).__name__}"
        )
    return header, end


# --------------------------------------------------------------------------- #
# decoding
# --------------------------------------------------------------------------- #
def _decode_header(data: bytes) -> tuple:
    header, end = _read_framed(data, WIRE_MAGIC, WIRE_VERSION, "sketch")
    kind = header.get("kind")
    if not isinstance(kind, str) or not kind:
        raise SerializationError(
            f"corrupt payload header: missing or invalid sketch kind "
            f"{kind!r}"
        )
    return header, end


def payload_header(data: bytes) -> Dict[str, Any]:
    """The validated JSON header of a wire payload, without its arrays.

    Cheap metadata access for catalogs and listings: the header carries
    ``kind``, ``state_version``, ``config``, ``scalars``, ``meta`` and the
    array manifest, which is everything an index needs — decoding the
    (potentially large) counter arrays is skipped entirely.
    """
    header, _ = _decode_header(data)
    return header


def _manifest_entry(entry: Any) -> tuple:
    """Validate one array-manifest entry; returns ``(name, dtype, shape)``."""
    if not isinstance(entry, dict):
        raise SerializationError(
            f"corrupt payload: array manifest entry is not an object "
            f"({entry!r})"
        )
    missing = [key for key in ("name", "dtype", "shape") if key not in entry]
    if missing:
        raise SerializationError(
            f"corrupt payload: array manifest entry {entry.get('name')!r} "
            f"is missing {missing}"
        )
    try:
        dtype = np.dtype(entry["dtype"])
    except TypeError as exc:
        raise SerializationError(
            f"corrupt payload: array {entry['name']!r} declares invalid "
            f"dtype {entry['dtype']!r}"
        ) from exc
    try:
        shape = tuple(int(s) for s in entry["shape"])
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"corrupt payload: array {entry['name']!r} declares invalid "
            f"shape {entry['shape']!r}"
        ) from exc
    if any(s < 0 for s in shape):
        raise SerializationError(
            f"corrupt payload: array {entry['name']!r} declares negative "
            f"shape {shape}"
        )
    return entry["name"], dtype, shape


def decode_state(data: bytes) -> Dict[str, Any]:
    """Decode a wire payload back into a sketch state dict."""
    header, offset = _decode_header(data)
    manifest = header.get("arrays", [])
    if not isinstance(manifest, list):
        raise SerializationError(
            f"corrupt payload: array manifest must be a list, got "
            f"{type(manifest).__name__}"
        )
    arrays: Dict[str, np.ndarray] = {}
    for raw_entry in manifest:
        name, dtype, shape = _manifest_entry(raw_entry)
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        chunk = data[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise SerializationError(
                f"truncated payload: array {name!r} expects "
                f"{nbytes} bytes, got {len(chunk)}"
            )
        arrays[name] = (
            np.frombuffer(chunk, dtype=dtype).reshape(shape).astype(
                dtype.newbyteorder("="), copy=True
            )
        )
        offset += nbytes
    return {
        "kind": header["kind"],
        "state_version": int(header.get("state_version", 1)),
        "config": header.get("config", {}),
        "scalars": header.get("scalars", {}),
        "meta": header.get("meta", {}),
        "arrays": arrays,
    }


# --------------------------------------------------------------------------- #
# dispatch
# --------------------------------------------------------------------------- #
def sketch_from_state(state: Dict[str, Any]):
    """Reconstruct a sketch from a state dict, dispatching on ``state["kind"]``."""
    klass = lookup_kind(state["kind"])
    with reconstruction_errors(f"{state['kind']!r} state"):
        return klass.from_state(state)


def sketch_from_bytes(data: bytes):
    """Reconstruct a sketch from a wire payload (any registered kind)."""
    return sketch_from_state(decode_state(data))


# --------------------------------------------------------------------------- #
# word accounting
# --------------------------------------------------------------------------- #
def state_word_count(state: Dict[str, Any]) -> int:
    """Number of 8-byte state words a payload actually carries.

    Counts every element of every state array plus every counted scalar;
    ``meta`` entries (bookkeeping such as ``items_processed`` or RNG state)
    are excluded.  This is the measured quantity the distributed layer
    reconciles against each sketch's declared ``size_in_words()``.
    """
    words = len(state.get("scalars", {}))
    for array in state.get("arrays", {}).values():
        words += int(np.asarray(array).size)
    return words


def payload_word_count(data: bytes) -> int:
    """:func:`state_word_count` computed from a wire payload's header alone."""
    header, _ = _decode_header(data)
    words = len(header.get("scalars", {}))
    for entry in header.get("arrays", []):
        words += int(np.prod([int(s) for s in entry["shape"]], dtype=np.int64))
    return words
