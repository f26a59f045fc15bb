"""Corrupt and truncated wire payloads raise clean typed errors.

One test class per decode entry point — ``SketchSession.from_bytes``,
``SketchSession.open``, and store ``get`` — plus the CLI's one-line exit-2
contract.  The invariant under test: no matter where a payload is cut or
which byte is flipped, the caller sees :class:`SerializationError` (or
another ``ValueError`` with a user-facing message), never a raw
``struct.error`` / ``KeyError`` / ``IndexError`` from the decoding
internals.
"""

import io
import json
import struct

import numpy as np
import pytest

from repro.api import SketchConfig, SketchSession
from repro.cli import main
from repro.serialization import SerializationError, _PREAMBLE
from repro.store import SketchStore, StoreError

DIMENSION = 500
CLEAN_ERRORS = (SerializationError, ValueError)


@pytest.fixture(scope="module")
def sketch_payload():
    session = SketchSession.from_config(
        SketchConfig("count_min", dimension=DIMENSION, width=64, depth=3,
                     seed=1)
    )
    session.ingest([1, 2, 3, 2])
    return session.to_bytes()


@pytest.fixture(scope="module")
def window_payload():
    session = SketchSession.from_config(
        SketchConfig(
            "count_min", dimension=DIMENSION, width=64, depth=3, seed=1,
            window={"mode": "sliding", "panes": 3, "pane_size": 10,
                    "by": "count"},
        )
    )
    session.ingest(np.arange(25) % DIMENSION)
    return session.to_bytes()


def _reframed(payload, craft):
    """The payload re-framed around ``craft(parsed JSON header)``.

    The preamble keeps the payload's magic and version and the bytes after
    the header follow unchanged, so only the header can fail the decode.
    """
    magic, version, header_len = _PREAMBLE.unpack_from(payload, 0)
    end = _PREAMBLE.size + header_len
    header = json.loads(payload[_PREAMBLE.size:end].decode("utf-8"))
    header_bytes = json.dumps(
        craft(header), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return (
        _PREAMBLE.pack(magic, version, len(header_bytes))
        + header_bytes
        + payload[end:]
    )


def _corrupt_header_field(payload, mutate):
    """Re-encode the payload with its parsed JSON header altered."""
    def craft(header):
        mutate(header)
        return header

    return _reframed(payload, craft)


CRAFTED_WINDOW_HEADERS = [
    pytest.param(lambda header: [], id="header-is-a-list"),
    pytest.param(lambda header: 7, id="header-is-a-number"),
    pytest.param(lambda header: {**header, "panes": 12},
                 id="panes-is-a-number"),
    pytest.param(lambda header: {**header, "panes": {"0": 12}},
                 id="panes-is-an-object"),
    pytest.param(lambda header: {**header, "panes": [-5]},
                 id="negative-pane-length"),
    pytest.param(lambda header: {**header, "panes": [1.5]},
                 id="fractional-pane-length"),
    pytest.param(lambda header: {**header, "panes": []}, id="no-panes"),
]


class TestFromBytes:
    """Entry point 1: ``SketchSession.from_bytes`` (both payload families)."""

    @pytest.mark.parametrize("family", ["sketch", "window"])
    def test_truncation_at_every_offset_is_a_clean_error(
        self, family, sketch_payload, window_payload
    ):
        payload = sketch_payload if family == "sketch" else window_payload
        for cut in range(len(payload)):
            with pytest.raises(CLEAN_ERRORS):
                SketchSession.from_bytes(payload[:cut])

    @pytest.mark.parametrize("family", ["sketch", "window"])
    def test_single_byte_corruption_never_leaks_a_raw_error(
        self, family, sketch_payload, window_payload
    ):
        payload = sketch_payload if family == "sketch" else window_payload
        for position in range(len(payload)):
            mutated = bytearray(payload)
            mutated[position] ^= 0xFF
            mutated = bytes(mutated)
            if mutated == payload:  # pragma: no cover - xor never no-ops
                continue
            try:
                SketchSession.from_bytes(mutated)
            except CLEAN_ERRORS:
                pass
            # a flipped byte inside counter data can still decode — that is
            # fine; the contract is only about *how* decoding fails

    def test_missing_required_state_field_is_serialization_error(
        self, sketch_payload
    ):
        # drop the arrays manifest: reconstruction would KeyError on the
        # missing counter table without the entry-point guard
        mutated = _corrupt_header_field(
            sketch_payload, lambda header: header.pop("arrays")
        )
        with pytest.raises(SerializationError, match="corrupt"):
            SketchSession.from_bytes(mutated)

    def test_manifest_entry_with_bad_dtype_is_serialization_error(
        self, sketch_payload
    ):
        def mutate(header):
            header["arrays"][0]["dtype"] = ["not", "a", "dtype"]

        with pytest.raises(SerializationError, match="dtype"):
            SketchSession.from_bytes(_corrupt_header_field(sketch_payload, mutate))

    def test_missing_kind_is_serialization_error(self, sketch_payload):
        mutated = _corrupt_header_field(
            sketch_payload, lambda header: header.pop("kind")
        )
        with pytest.raises(SerializationError, match="kind"):
            SketchSession.from_bytes(mutated)

    def test_not_struct_error(self, sketch_payload):
        # the headline regression: a short payload must not surface the
        # struct module's own exception type
        for cut in (0, 3, 7, 9):
            with pytest.raises(SerializationError):
                try:
                    SketchSession.from_bytes(sketch_payload[:cut])
                except struct.error:  # pragma: no cover - the old behavior
                    pytest.fail("struct.error leaked from from_bytes")


class TestCraftedWindowHeaders:
    """A window (``RPWD``) header that parses as JSON but is not valid.

    Each entry point reads the header through the framing it shares with
    the sketch family, so each reports the same clean error.
    """

    @pytest.mark.parametrize("craft", CRAFTED_WINDOW_HEADERS)
    def test_from_bytes_raises_serialization_error(self, craft, window_payload):
        with pytest.raises(SerializationError, match="corrupt window header"):
            SketchSession.from_bytes(_reframed(window_payload, craft))

    @pytest.mark.parametrize("craft", CRAFTED_WINDOW_HEADERS)
    def test_store_put_raises_store_error(self, craft, window_payload,
                                          tmp_path):
        with SketchStore(tmp_path / "catalog.db") as store:
            with pytest.raises(StoreError, match="corrupt window header"):
                store.put("victim", _reframed(window_payload, craft))
            assert store.list() == []

    @pytest.mark.parametrize("craft", CRAFTED_WINDOW_HEADERS)
    def test_sketch_load_exits_two_with_one_error_line(
        self, craft, window_payload, tmp_path
    ):
        target = tmp_path / "crafted.window"
        target.write_bytes(_reframed(window_payload, craft))
        buffer = io.StringIO()
        exit_code = main(["sketch", "load", str(target)], out=buffer)
        output = buffer.getvalue()
        assert exit_code == 2
        assert output.startswith("error: corrupt window header")
        assert len(output.strip().splitlines()) == 1


class TestSessionOpen:
    """Entry point 2: ``SketchSession.open`` (path / file object forms)."""

    def test_truncated_file_is_a_clean_error(self, sketch_payload, tmp_path):
        target = tmp_path / "cut.rpsk"
        target.write_bytes(sketch_payload[: len(sketch_payload) // 2])
        with pytest.raises(CLEAN_ERRORS):
            SketchSession.open(str(target))

    def test_corrupt_header_file_object_is_a_clean_error(self, sketch_payload):
        mutated = _corrupt_header_field(
            sketch_payload, lambda header: header.pop("arrays")
        )
        with pytest.raises(SerializationError):
            SketchSession.open(io.BytesIO(mutated))

    def test_garbage_file_is_a_clean_error(self, tmp_path):
        target = tmp_path / "garbage.bin"
        target.write_bytes(b"\x00" * 64)
        with pytest.raises(SerializationError):
            SketchSession.open(str(target))


class TestStoreGet:
    """Entry point 3: store ``get`` over a tampered catalog row."""

    @staticmethod
    def _store_with_tampered_payload(tmp_path, payload, mutated):
        path = tmp_path / "catalog.db"
        with SketchStore(path) as store:
            store.put("victim", payload)
            # tamper behind the catalog's back, like on-disk corruption would
            store._connection.execute(
                "UPDATE snapshots SET payload = ? WHERE sketch_id = "
                "(SELECT sketch_id FROM sketches WHERE name = 'victim')",
                (mutated,),
            )
            store._connection.commit()
        return path

    def test_truncated_stored_payload_is_a_clean_error(
        self, sketch_payload, tmp_path
    ):
        path = self._store_with_tampered_payload(
            tmp_path, sketch_payload, sketch_payload[:20]
        )
        with SketchStore(path) as store:
            with pytest.raises(CLEAN_ERRORS):
                store.get("victim")

    def test_corrupt_stored_payload_is_a_clean_error(
        self, sketch_payload, tmp_path
    ):
        mutated = _corrupt_header_field(
            sketch_payload, lambda header: header.pop("arrays")
        )
        path = self._store_with_tampered_payload(
            tmp_path, sketch_payload, mutated
        )
        with SketchStore(path) as store:
            with pytest.raises(SerializationError):
                store.get("victim")


class TestCliContract:
    """The CLI reports corrupt payloads as one ``error:`` line, exit 2."""

    def _run(self, *argv):
        buffer = io.StringIO()
        exit_code = main(list(argv), out=buffer)
        return exit_code, buffer.getvalue()

    def test_sketch_load_of_truncated_file_exits_two(
        self, sketch_payload, tmp_path
    ):
        target = tmp_path / "cut.rpsk"
        target.write_bytes(sketch_payload[:25])
        exit_code, output = self._run("sketch", "load", str(target))
        assert exit_code == 2
        assert output.startswith("error: ")
        assert len(output.strip().splitlines()) == 1

    def test_store_get_of_corrupt_snapshot_exits_two(
        self, sketch_payload, tmp_path
    ):
        mutated = _corrupt_header_field(
            sketch_payload, lambda header: header.pop("arrays")
        )
        path = TestStoreGet._store_with_tampered_payload(
            tmp_path, sketch_payload, mutated
        )
        exit_code, output = self._run("store", "get", str(path), "victim")
        assert exit_code == 2
        assert output.startswith("error: ")
        assert len(output.strip().splitlines()) == 1
