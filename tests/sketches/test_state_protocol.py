"""Unit tests for the state protocol and the binary wire format.

The property suite (tests/property/test_serialization_properties.py) checks
round-trip fidelity across randomised inputs for every registered sketch;
this file pins down the protocol mechanics: the wire framing, the version
and kind validation, the word accounting, and the failure modes.
"""

import numpy as np
import pytest

from repro import serialization
from repro.api import SketchConfig
from repro.compressive import GaussianSketch
from repro.core import BiasHeap, L1BiasAwareSketch, StreamingL2BiasAwareSketch
from repro.serialization import (
    WIRE_MAGIC,
    WIRE_VERSION,
    SerializationError,
    decode_state,
    payload_word_count,
    registered_kinds,
    sketch_from_bytes,
    state_word_count,
)
from repro.sketches import CountMin, CountMinCU, CountMinLogCU, CountSketch
from repro.sketches.registry import available_sketches

DIMENSION = 200
WIDTH = 32
DEPTH = 4
SEED = 99


def small_sketch(cls=CountMin, seed=SEED):
    sketch = cls(DIMENSION, WIDTH, DEPTH, seed=seed)
    rng = np.random.default_rng(7)
    sketch.update_batch(rng.integers(0, DIMENSION, size=300), np.ones(300))
    return sketch


class TestWireFraming:
    def test_payload_starts_with_magic_and_version(self):
        payload = small_sketch().to_bytes()
        assert payload[:4] == WIRE_MAGIC
        assert int.from_bytes(payload[4:6], "little") == WIRE_VERSION

    def test_bad_magic_rejected(self):
        payload = bytearray(small_sketch().to_bytes())
        payload[:4] = b"NOPE"
        with pytest.raises(SerializationError, match="magic"):
            decode_state(bytes(payload))

    def test_unknown_wire_version_rejected(self):
        payload = bytearray(small_sketch().to_bytes())
        payload[4:6] = (WIRE_VERSION + 1).to_bytes(2, "little")
        with pytest.raises(SerializationError, match="version"):
            decode_state(bytes(payload))

    def test_truncated_payload_rejected(self):
        payload = small_sketch().to_bytes()
        with pytest.raises(SerializationError, match="truncated"):
            decode_state(payload[:-16])
        with pytest.raises(SerializationError):
            decode_state(payload[:8])

    def test_encoding_is_deterministic(self):
        a, b = small_sketch(), small_sketch()
        assert a.to_bytes() == b.to_bytes()

    def test_reencode_is_byte_identical(self):
        payload = small_sketch().to_bytes()
        assert sketch_from_bytes(payload).to_bytes() == payload


class TestHeaderValues:
    """``_json_safe`` passes a list of plain ints through in one step and
    still normalises or rejects every other item type."""

    def test_plain_ints_come_back_as_an_equal_list(self):
        assert serialization._json_safe([3, 0, 2], "meta") == [3, 0, 2]
        assert serialization._json_safe((1, 2), "meta") == [1, 2]
        assert serialization._json_safe([], "meta") == []

    def test_a_bool_stays_a_bool(self):
        value = serialization._json_safe([1, True, 0], "meta")
        assert value == [1, True, 0]
        assert [type(v) for v in value] == [int, bool, int]

    def test_a_numpy_integer_becomes_a_plain_int(self):
        value = serialization._json_safe([1, np.int64(7)], "meta")
        assert value == [1, 7]
        assert [type(v) for v in value] == [int, int]

    def test_a_float_stays_a_float(self):
        value = serialization._json_safe([1, 2.5, np.float32(0.5)], "meta")
        assert value == [1, 2.5, 0.5]
        assert [type(v) for v in value] == [int, float, float]

    def test_an_unserialisable_item_is_rejected(self):
        with pytest.raises(SerializationError, match="object"):
            serialization._json_safe([1, object()], "meta")


class TestStateDictContract:
    def test_state_dict_has_fixed_keys(self):
        state = small_sketch().state_dict()
        assert set(state) == {
            "kind", "state_version", "config", "scalars", "meta", "arrays",
        }
        assert state["kind"] == "count_min"
        assert state["meta"]["items_processed"] == 300

    def test_state_dict_arrays_are_snapshots(self):
        sketch = small_sketch()
        state = sketch.state_dict()
        state["arrays"]["table"][:] = -1.0
        assert np.all(sketch.table >= 0.0)

    def test_unknown_kind_rejected(self):
        state = small_sketch().state_dict()
        state["kind"] = "no_such_sketch"
        with pytest.raises(SerializationError, match="no_such_sketch"):
            serialization.sketch_from_state(state)

    def test_newer_state_version_rejected(self):
        state = small_sketch().state_dict()
        state["state_version"] = CountMin.state_version + 1
        with pytest.raises(ValueError, match="state_version"):
            CountMin.from_state(state)

    def test_older_state_version_rejected_too(self):
        # any mismatch means the state layout changed; loading across the
        # bump would silently misinterpret arrays, so it must fail loudly
        state = small_sketch().state_dict()
        state["state_version"] = CountMin.state_version - 1
        with pytest.raises(ValueError, match="state_version"):
            CountMin.from_state(state)

    def test_from_state_on_wrong_class_rejected(self):
        state = small_sketch(CountSketch).state_dict()
        with pytest.raises(TypeError, match="CountSketch"):
            CountMin.from_state(state)

    def test_from_state_on_base_class_dispatches(self):
        from repro.sketches.base import Sketch

        state = small_sketch(CountSketch).state_dict()
        restored = Sketch.from_state(state)
        assert isinstance(restored, CountSketch)

    def test_registry_covers_every_registered_sketch(self):
        kinds = set(registered_kinds())
        for name in available_sketches():
            assert name in kinds
        assert "gaussian_sketch" in kinds


class TestSeedRequirements:
    def test_unseeded_sketch_cannot_be_serialized(self):
        with pytest.raises(ValueError, match="seed"):
            CountMin(DIMENSION, WIDTH, DEPTH).to_bytes()

    def test_generator_seeded_sketch_cannot_be_serialized(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="seed"):
            CountMin(DIMENSION, WIDTH, DEPTH, seed=rng).to_bytes()

    def test_numpy_integer_seed_is_accepted(self):
        sketch = CountMin(DIMENSION, WIDTH, DEPTH, seed=np.int64(5))
        restored = CountMin.from_bytes(sketch.to_bytes())
        assert restored.seed == 5

    def test_unseeded_sketch_cannot_be_copied_or_restored(self):
        # restoring counters against freshly drawn hash functions would be
        # silent corruption, so copy()/from_state reject unseeded sketches
        sketch = CountMin(DIMENSION, WIDTH, DEPTH)
        with pytest.raises(ValueError, match="seed"):
            sketch.copy()
        with pytest.raises(ValueError, match="seed"):
            CountMin.from_state(sketch.state_dict())

    def test_unseeded_gaussian_cannot_be_copied(self):
        with pytest.raises(ValueError, match="seed"):
            GaussianSketch(DIMENSION, 8).copy()


class TestWordAccounting:
    def test_measured_words_match_declared_for_all_sketches(self):
        rng = np.random.default_rng(3)
        indices = rng.integers(0, DIMENSION, size=200)
        for name in available_sketches():
            sketch = SketchConfig(name, dimension=DIMENSION, width=WIDTH,
                                  depth=DEPTH, seed=SEED).build()
            sketch.update_batch(indices, np.ones(indices.size))
            payload = sketch.to_bytes()
            assert payload_word_count(payload) == sketch.size_in_words(), name
            assert state_word_count(decode_state(payload)) == \
                sketch.size_in_words(), name

    def test_size_in_bytes_is_exact_payload_length(self):
        sketch = small_sketch()
        assert sketch.size_in_bytes() == len(sketch.to_bytes())

    def test_bytes_exceed_word_payload_by_header_only(self):
        # 8 bytes per state word plus a bounded JSON header
        sketch = small_sketch()
        words = sketch.size_in_words()
        assert 8 * words < sketch.size_in_bytes() < 8 * words + 2_000


class TestScalarUpdateRejectsNonFinite:
    """A scalar ``update`` rejects what ``update_batch`` rejects.

    The message is the batch path's, and nothing changes: neither the
    payload bytes nor the answers, which also read the derived structures
    (the streaming kinds' sorted samples and Bias-Heap).
    """

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("name", available_sketches())
    def test_every_kind_rejects_and_keeps_its_state(self, name, delta):
        sketch = SketchConfig(name, dimension=DIMENSION, width=WIDTH,
                              depth=DEPTH, seed=SEED).build()
        rng = np.random.default_rng(5)
        sketch.update_batch(rng.integers(0, DIMENSION, size=300),
                            rng.integers(1, 5, size=300).astype(float))
        payload = sketch.to_bytes()
        keys = np.arange(DIMENSION)
        answers = sketch.query_batch(keys)
        with pytest.raises(ValueError,
                           match="deltas must contain only finite values"):
            sketch.update(5, delta)
        assert sketch.to_bytes() == payload
        np.testing.assert_array_equal(sketch.query_batch(keys), answers)


class TestCopyThroughStateProtocol:
    def test_copy_preserves_queries_and_is_independent(self):
        sketch = small_sketch(L1BiasAwareSketch)
        clone = sketch.copy()
        assert np.array_equal(
            sketch.query_batch(np.arange(DIMENSION)),
            clone.query_batch(np.arange(DIMENSION)),
        )
        clone.update(0, 1000.0)
        assert sketch.query(0) != pytest.approx(clone.query(0))

    def test_conservative_sketches_are_copyable_now(self):
        # CU sketches had no copy() before the state protocol refactor
        sketch = small_sketch(CountMinCU)
        clone = sketch.copy()
        assert np.array_equal(sketch.table, clone.table)
        clone.update(1, 50.0)
        assert not np.array_equal(sketch.table, clone.table)


class TestStreamingVariantsRestoreExactly:
    def test_streaming_l2_bias_is_bit_identical_after_restore(self):
        sketch = StreamingL2BiasAwareSketch(DIMENSION, WIDTH, DEPTH, seed=SEED)
        rng = np.random.default_rng(11)
        for index in rng.integers(0, DIMENSION, size=500):
            sketch.update(int(index), 1.0)
        restored = StreamingL2BiasAwareSketch.from_bytes(sketch.to_bytes())
        assert restored.estimate_bias() == sketch.estimate_bias()
        # the heap membership survives the round trip exactly
        assert np.array_equal(
            restored.bias_heap.locations, sketch.bias_heap.locations
        )
        restored.bias_heap.check_invariants()

    def test_legacy_heap_locations_answer_until_the_next_update(self):
        """``heap_locations`` that break a tie across a rank boundary the
        other way (as pre-total-order payloads could) are honoured on
        restore; the next update re-sorts into the canonical partition."""
        sketch = StreamingL2BiasAwareSketch(DIMENSION, WIDTH, DEPTH, seed=SEED)
        pi = sketch.bias_heap.pi
        low = WIDTH // 2 - sketch.head_size
        # bucket j averages j, except that bucket `low` ties with `low - 1`
        averages = np.arange(WIDTH, dtype=float)
        averages[low] = low - 1
        assert pi[low] != pi[low - 1]
        state = sketch.state_dict()
        state["arrays"]["bias_row"] = (averages * pi)[None, :]
        recorded = np.array(state["meta"]["heap_locations"])
        assert (recorded[low - 1], recorded[low]) == (0, 1)  # canonical
        recorded[low - 1], recorded[low] = 1, 0
        state["meta"]["heap_locations"] = [int(v) for v in recorded]

        restored = StreamingL2BiasAwareSketch.from_state(state)
        w_sum = pi_sum = 0.0
        for bucket in np.flatnonzero(recorded == 1):
            w_sum += averages[bucket] * pi[bucket]
            pi_sum += pi[bucket]
        canonical = BiasHeap(pi, sketch.head_size, averages * pi)
        assert restored.estimate_bias() == w_sum / pi_sum
        assert restored.estimate_bias() != canonical.bias()

        restored.update(0, 1.0)
        fresh = BiasHeap(pi, sketch.head_size, restored.bias_heap.w)
        assert restored.estimate_bias() == fresh.bias()
        assert np.array_equal(restored.bias_heap.locations, fresh.locations)

    def test_cml_rng_stream_continues_identically(self):
        sketch = small_sketch(CountMinLogCU)
        restored = CountMinLogCU.from_bytes(sketch.to_bytes())
        rng = np.random.default_rng(13)
        for index in rng.integers(0, DIMENSION, size=200):
            sketch.update(int(index), 1.0)
            restored.update(int(index), 1.0)
        assert np.array_equal(sketch.table, restored.table)


class TestGaussianSketchState:
    def test_round_trip_and_merge(self):
        rng = np.random.default_rng(17)
        x = rng.poisson(10.0, size=DIMENSION).astype(float)
        sketch = GaussianSketch(DIMENSION, 16, seed=SEED).fit(x)
        restored = GaussianSketch.from_bytes(sketch.to_bytes())
        assert np.array_equal(
            restored.measurements_vector, sketch.measurements_vector
        )
        restored.merge(sketch)
        assert np.allclose(
            restored.measurements_vector, 2.0 * sketch.measurements_vector
        )

    def test_dispatch_through_generic_loader(self):
        sketch = GaussianSketch(DIMENSION, 8, seed=3)
        restored = sketch_from_bytes(sketch.to_bytes())
        assert isinstance(restored, GaussianSketch)
