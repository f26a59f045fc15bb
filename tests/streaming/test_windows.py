"""Unit tests for the sliding-window engine (``repro.streaming.windows``)."""

import numpy as np
import pytest

from repro.api import CapabilityError, ConfigError, SketchConfig, SketchSession
from repro.serialization import SerializationError
from repro.streaming import SlidingWindowSketch, WindowSpec, is_window_payload

DIMENSION = 500


def config(name="count_min", seed=11, **window_fields):
    window = WindowSpec(**window_fields) if window_fields else None
    return SketchConfig(name, dimension=DIMENSION, width=32, depth=3,
                        seed=seed, window=window)


def sliding(panes=3, pane_size=10, **kwargs):
    return SlidingWindowSketch(
        config(mode="sliding", panes=panes, pane_size=pane_size, **kwargs)
    )


class TestWindowSpecValidation:
    def test_valid_specs_normalise_their_fields(self):
        spec = WindowSpec(mode="sliding", panes=np.int64(4), pane_size=np.int64(8))
        assert spec.panes == 4 and isinstance(spec.panes, int)
        assert spec.pane_size == 8 and isinstance(spec.pane_size, int)
        assert spec.span == 32
        timed = WindowSpec(mode="tumbling", pane_size=2.5, by="time")
        assert timed.pane_size == 2.5

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown window mode"):
            WindowSpec(mode="hopping", pane_size=4)

    def test_unknown_unit_rejected(self):
        with pytest.raises(ConfigError, match="by="):
            WindowSpec(pane_size=4, by="bytes")

    @pytest.mark.parametrize("pane_size", [0, -3, 2.5, True, "10"])
    def test_count_pane_size_must_be_positive_integer(self, pane_size):
        with pytest.raises(ConfigError, match="pane_size"):
            WindowSpec(mode="sliding", pane_size=pane_size)

    @pytest.mark.parametrize("pane_size", [0.0, -1.0, float("inf"), float("nan")])
    def test_time_pane_size_must_be_positive_finite(self, pane_size):
        with pytest.raises(ConfigError, match="positive finite"):
            WindowSpec(pane_size=pane_size, by="time")

    def test_panes_only_apply_to_sliding(self):
        with pytest.raises(ConfigError, match="exactly one pane"):
            WindowSpec(mode="tumbling", panes=4, pane_size=10)
        with pytest.raises(ConfigError, match="exactly one pane"):
            WindowSpec(mode="decay", panes=4, pane_size=10, decay=0.5)

    @pytest.mark.parametrize("decay", [None, 0.0, 1.0, -0.5, 2.0, "0.9"])
    def test_decay_factor_must_be_in_open_unit_interval(self, decay):
        with pytest.raises(ConfigError, match="decay"):
            WindowSpec(mode="decay", pane_size=10, decay=decay)

    def test_decay_forbidden_outside_decay_mode(self):
        with pytest.raises(ConfigError, match="only applies to decay"):
            WindowSpec(mode="sliding", panes=2, pane_size=10, decay=0.5)

    def test_dict_round_trip(self):
        spec = WindowSpec(mode="decay", pane_size=7, decay=0.75)
        assert WindowSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ConfigError, match="unknown window spec"):
            WindowSpec.from_dict({"mode": "sliding", "pane_size": 1, "hop": 2})


class TestConfigIntegration:
    def test_window_field_accepts_spec_or_dict(self):
        spec = WindowSpec(mode="sliding", panes=2, pane_size=5)
        by_spec = config(mode="sliding", panes=2, pane_size=5)
        by_dict = SketchConfig("count_min", dimension=DIMENSION, width=32,
                               depth=3, seed=11, window=spec.to_dict())
        assert by_spec == by_dict
        assert by_spec.window == spec
        assert by_spec.replace(window=None).window is None

    def test_window_field_rejects_junk(self):
        with pytest.raises(ConfigError, match="WindowSpec"):
            SketchConfig("count_min", dimension=DIMENSION, width=32, depth=3,
                         seed=1, window="sliding:16")

    @pytest.mark.parametrize("name", ["count_min_cu", "count_min_log_cu"])
    def test_non_linear_sketches_cannot_be_windowed(self, name):
        with pytest.raises(CapabilityError, match="pane-merge algebra"):
            SketchConfig(name, dimension=DIMENSION, width=32, depth=3, seed=1,
                         window=WindowSpec(pane_size=10))

    def test_windowed_config_requires_integer_seed(self):
        with pytest.raises(ConfigError, match="integer seed"):
            SketchConfig("count_min", dimension=DIMENSION, width=32, depth=3,
                         window=WindowSpec(pane_size=10))


class TestPaneRotation:
    def test_tumbling_window_resets_at_each_boundary(self):
        window = SlidingWindowSketch(
            config(mode="tumbling", pane_size=10)
        )
        for _ in range(10):
            window.update(3)
        # the boundary closed (and discarded) the full pane
        assert window.pane_closes == 1
        assert window.evictions == 1
        assert window.items_in_window == 0
        assert window.query(3) == 0.0
        window.update(3)
        assert window.query(3) == 1.0

    def test_sliding_window_evicts_oldest_pane(self):
        window = sliding(panes=3, pane_size=10)
        for index in range(50):            # updates 0..49, panes of 10
            window.update(index // 10)     # pane p gets 10 updates of key p
        # the key-4 pane just closed into the ring; the ring keeps the two
        # most recent closed panes (keys 3 and 4) plus the empty open pane
        assert window.items_in_window == 20
        assert window.pane_closes == 5
        assert window.evictions == 3
        assert window.query(4) == 10.0
        assert window.query(3) == 10.0
        assert window.query(2) == 0.0      # evicted
        assert window.query(1) == 0.0      # evicted

    def test_decay_fades_history_by_scaling(self):
        window = SlidingWindowSketch(
            config(mode="decay", pane_size=50, decay=0.5)
        )
        for _ in range(100):
            window.update(7)
        # 50 updates scaled twice? boundary at 50 (x0.5 -> 25), 50 more
        # (-> 75), boundary at 100 (x0.5 -> 37.5)
        assert window.query(7) == pytest.approx(37.5)
        assert window.items_in_window == 100   # decay never drops history

    def test_batched_replay_matches_scalar_replay(self, rng):
        indices = rng.integers(0, DIMENSION, size=137)
        deltas = rng.integers(1, 5, size=137).astype(float)
        scalar, batched = sliding(panes=4, pane_size=9), sliding(panes=4, pane_size=9)
        for index, delta in zip(indices, deltas):
            scalar.update(int(index), float(delta))
        batched.update_batch(indices, deltas)
        assert scalar.to_bytes() == batched.to_bytes()

    def test_chunked_batches_match_one_call(self, rng, monkeypatch):
        indices = rng.integers(0, DIMENSION, size=230)
        windowed = config(mode="sliding", panes=3, pane_size=60)
        one = SketchSession.from_config(windowed).ingest(indices)
        chunked = SketchSession.from_config(windowed)
        pane_class = type(chunked.window.view())
        original = pane_class.update_batch
        calls = []

        def recording(pane, idx, deltas=None):
            calls.append(len(idx))
            return original(pane, idx, deltas)

        monkeypatch.setattr(pane_class, "update_batch", recording)
        chunked.ingest(indices, batch_size=17)
        assert one.to_bytes() == chunked.to_bytes()
        # the session chunks each within-pane segment: no chunk spans a pane
        assert calls == [17, 17, 17, 9] * 3 + [17, 17, 16]


class TestTimeBasedPanes:
    def timed(self, panes=3, pane_size=10.0, mode="sliding"):
        return SlidingWindowSketch(
            config(mode=mode, panes=panes, pane_size=pane_size, by="time")
        )

    def test_updates_land_in_their_timestamp_pane(self):
        window = self.timed()
        window.update(1, timestamp=0.0)
        window.update(1, timestamp=9.9)     # same pane
        window.update(1, timestamp=10.0)    # next pane
        assert window.pane_closes == 1
        assert window.query(1) == 3.0
        window.update(2, timestamp=35.0)    # skips a pane; evicts pane 0
        assert window.query(1) == 1.0       # only the pane-1 update survives
        assert window.query(2) == 1.0

    def test_large_gap_empties_the_window(self):
        window = self.timed()
        for _ in range(5):
            window.update(1, timestamp=1.0)
        window.update(2, timestamp=1e6)
        assert window.query(1) == 0.0
        assert window.query(2) == 1.0

    def test_missing_timestamp_rejected(self):
        with pytest.raises(ConfigError, match="require a timestamp"):
            self.timed().update(1)
        with pytest.raises(ConfigError, match="require a timestamp"):
            self.timed().update_batch([1, 2])

    def test_decreasing_timestamps_rejected(self):
        window = self.timed()
        window.update(1, timestamp=5.0)
        with pytest.raises(ConfigError, match="non-decreasing"):
            window.update(1, timestamp=4.0)
        with pytest.raises(ConfigError, match="non-decreasing"):
            window.update_batch([1, 2], timestamps=[9.0, 8.0])
        with pytest.raises(ConfigError, match="non-decreasing"):
            window.update_batch([1, 2], timestamps=[3.0, 4.0])

    def test_count_panes_reject_timestamps(self):
        window = sliding()
        with pytest.raises(ConfigError, match="no timestamps"):
            window.update(1, timestamp=3.0)
        with pytest.raises(ConfigError, match="no timestamps"):
            window.update_batch([1, 2], timestamps=[1.0, 2.0])

    def test_scalar_timestamp_broadcasts_over_a_batch(self):
        window = self.timed()
        window.update_batch([1, 1, 1], timestamps=3.0)
        assert window.query(1) == 3.0
        assert window.last_timestamp == 3.0

    def test_batched_replay_matches_scalar_replay(self, rng):
        indices = rng.integers(0, DIMENSION, size=120)
        stamps = np.sort(rng.uniform(0.0, 77.0, size=120))
        scalar, batched = self.timed(), self.timed()
        for index, stamp in zip(indices, stamps):
            scalar.update(int(index), timestamp=float(stamp))
        batched.update_batch(indices, timestamps=stamps)
        assert scalar.to_bytes() == batched.to_bytes()

    def test_decay_collapses_large_time_gaps(self):
        window = SlidingWindowSketch(
            config(mode="decay", pane_size=1.0, by="time", decay=0.5)
        )
        window.update(1, delta=1024.0, timestamp=0.0)
        window.update(2, timestamp=100.5)   # 100 boundaries crossed
        assert window.query(1) == pytest.approx(1024.0 * 0.5 ** 100)


class TestEngineGuards:
    def test_engine_requires_window_spec(self):
        with pytest.raises(ConfigError, match="WindowSpec"):
            SlidingWindowSketch(config())

    def test_engine_requires_sketch_config(self):
        with pytest.raises(ConfigError, match="SketchConfig"):
            SlidingWindowSketch("count_min")


class TestWindowWireFormat:
    def make_loaded_window(self, rng):
        window = sliding(panes=4, pane_size=25)
        window.update_batch(rng.integers(0, DIMENSION, size=160),
                            rng.integers(1, 4, size=160).astype(float))
        return window

    def test_round_trip_is_byte_identical_and_resumes(self, rng):
        window = self.make_loaded_window(rng)
        payload = window.to_bytes()
        assert is_window_payload(payload)
        restored = SlidingWindowSketch.from_bytes(payload)
        assert restored.to_bytes() == payload
        assert restored.items_in_window == window.items_in_window
        assert restored.pane_closes == window.pane_closes
        assert restored.evictions == window.evictions
        # further updates evolve identically
        extra = rng.integers(0, DIMENSION, size=60)
        window.update_batch(extra)
        restored.update_batch(extra)
        assert restored.to_bytes() == window.to_bytes()

    def test_bare_sketch_payload_is_not_a_window(self):
        bare = config().build()
        assert not is_window_payload(bare.to_bytes())
        with pytest.raises(SerializationError, match="magic"):
            SlidingWindowSketch.from_bytes(bare.to_bytes())

    def test_truncated_payload_fails_loudly(self, rng):
        payload = self.make_loaded_window(rng).to_bytes()
        with pytest.raises(SerializationError, match="truncated"):
            SlidingWindowSketch.from_bytes(payload[:-7])

    def test_corrupt_header_fails_loudly(self, rng):
        payload = bytearray(self.make_loaded_window(rng).to_bytes())
        payload[12] ^= 0xFF
        with pytest.raises(SerializationError):
            SlidingWindowSketch.from_bytes(bytes(payload))

    def test_future_wire_version_fails_loudly(self, rng):
        payload = bytearray(self.make_loaded_window(rng).to_bytes())
        payload[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(SerializationError, match="version"):
            SlidingWindowSketch.from_bytes(bytes(payload))

    @pytest.mark.parametrize("fill", [-1, 25, 400])
    def test_out_of_range_fill_fails_instead_of_spinning(self, rng, fill):
        """A crafted payload with fill outside [0, pane_size) must be
        rejected at restore — replaying into it would loop forever."""
        window = self.make_loaded_window(rng)     # pane_size = 25
        state = window.state_dict()
        state["meta"]["fill"] = fill
        with pytest.raises(SerializationError, match="fill"):
            SlidingWindowSketch.from_state(state)


class TestEngineCopy:
    """``_copy`` shares the closed panes, yet neither side sees the other's
    later updates — what a read replica of a live window relies on."""

    CASES = {
        "sliding-count": ("count_sketch",
                          dict(mode="sliding", panes=3, pane_size=10)),
        "sliding-time": ("count_min", dict(mode="sliding", panes=3,
                                           pane_size=5.0, by="time")),
        "tumbling": ("count_min", dict(mode="tumbling", pane_size=10)),
        "tumbling-cu": ("count_min_cu", dict(mode="tumbling", pane_size=10)),
        "decay": ("count_sketch", dict(mode="decay", pane_size=10,
                                       decay=0.5)),
    }

    @staticmethod
    def feed(window, start, stop):
        """Updates ``start..stop`` of one fixed stream, 10 per pane."""
        rng = np.random.default_rng(start)
        indices = rng.integers(0, DIMENSION, size=stop - start)
        deltas = rng.integers(1, 4, size=stop - start).astype(float)
        if window.spec.by == "time":
            window.update_batch(indices, deltas,
                                timestamps=np.arange(start, stop) * 0.5)
        else:
            window.update_batch(indices, deltas)

    @pytest.mark.parametrize("moved", ["original", "copy"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_copy_is_equal_then_independent(self, case, moved):
        name, fields = self.CASES[case]
        window = SlidingWindowSketch(config(name, **fields))
        self.feed(window, 0, 25)
        duplicate = window._copy()
        frozen = window.to_bytes()
        assert duplicate.to_bytes() == frozen
        mover, still = ((window, duplicate) if moved == "original"
                        else (duplicate, window))
        evictions = mover.evictions
        self.feed(mover, 25, 60)
        assert mover.pane_closes >= 5
        if fields["mode"] != "decay":
            assert mover.evictions > evictions
        assert still.to_bytes() == frozen
        # the side that moved evolves exactly as an uncopied window would
        reference = SlidingWindowSketch(config(name, **fields))
        self.feed(reference, 0, 25)
        self.feed(reference, 25, 60)
        assert mover.to_bytes() == reference.to_bytes()


class TestSessionIntegration:
    def make_session(self, **window_fields):
        return SketchSession.from_config(config(**window_fields))

    def test_session_routes_queries_through_the_window(self, rng):
        session = self.make_session(mode="sliding", panes=2, pane_size=100)
        session.ingest(rng.integers(0, DIMENSION, size=450))
        assert session.windowed
        assert session.items_processed == 450
        assert session.items_in_window == 150   # 1 closed pane + 50 open
        # session.sketch is the merged window view
        assert session.sketch.items_processed == 150

    def test_save_open_round_trip_preserves_window(self, tmp_path, rng):
        session = self.make_session(mode="sliding", panes=3, pane_size=40)
        session.ingest(rng.integers(0, DIMENSION, size=200))
        path = session.save(tmp_path / "windowed.sketch")
        reopened = SketchSession.open(path)
        assert reopened.windowed
        assert reopened.config == session.config
        assert reopened.to_bytes() == session.to_bytes()
        np.testing.assert_array_equal(reopened.recover(), session.recover())

    def test_sharded_windowed_ingest_matches_inline(self, rng):
        indices = rng.integers(0, DIMENSION, size=2_000)
        inline = self.make_session(mode="sliding", panes=3, pane_size=600)
        inline.ingest(indices)
        sharded = self.make_session(mode="sliding", panes=3, pane_size=600)
        sharded.ingest(indices, shards=2)
        assert sharded.to_bytes() == inline.to_bytes()
        assert sharded.last_shard_report is not None
        # sharding happens within a pane: no shard spans a pane boundary
        assert sharded.last_shard_report.updates <= 600

    def test_auto_shard_decides_per_segment_not_per_batch(self, rng):
        indices = rng.integers(0, DIMENSION, size=5_000)
        session = SketchSession.from_config(
            config(mode="sliding", panes=3, pane_size=300),
            auto_shard_threshold=1_000,
        )
        # the whole batch (5000) exceeds the threshold, but every within-pane
        # segment (<= 300) is far below it: nothing must shard
        session.ingest(indices)
        assert session.last_shard_report is None
        # with panes big enough, the per-segment decision does shard
        import os
        if (os.cpu_count() or 1) > 1:
            session = SketchSession.from_config(
                config(mode="sliding", panes=3, pane_size=4_000),
                auto_shard_threshold=1_000,
            )
            session.ingest(indices)
            assert session.last_shard_report is not None
        # an explicit shards=1 disables auto-sharding entirely
        session = SketchSession.from_config(
            config(mode="sliding", panes=3, pane_size=4_000),
            auto_shard_threshold=1_000,
        )
        session.ingest(indices, shards=1)
        assert session.last_shard_report is None

    def test_dense_vector_streams_into_panes(self, rng):
        vector = np.zeros(DIMENSION)
        hot = rng.choice(DIMENSION, size=80, replace=False)
        vector[hot] = rng.integers(1, 9, size=80).astype(float)
        session = self.make_session(mode="sliding", panes=2, pane_size=30)
        session.ingest(vector)
        assert session.items_processed == 80
        assert session.items_in_window == 50    # 1 closed pane + 20 open

    def test_timestamped_session_ingest(self, rng):
        session = self.make_session(mode="sliding", panes=2, pane_size=5.0,
                                    by="time")
        stamps = np.sort(rng.uniform(0.0, 40.0, size=100))
        session.ingest(rng.integers(0, DIMENSION, size=100), timestamps=stamps)
        assert session.window.last_timestamp == pytest.approx(float(stamps[-1]))
        session.ingest(3, timestamps=float(stamps[-1]) + 1.0)
        assert session.items_processed == 101

    def test_windowed_stream_ingest(self, rng):
        from repro.streaming import UpdateStream

        indices = rng.integers(0, DIMENSION, size=120)
        stream = UpdateStream.from_arrays(DIMENSION, indices)
        session = self.make_session(mode="sliding", panes=2, pane_size=50)
        session.ingest(stream)
        direct = self.make_session(mode="sliding", panes=2, pane_size=50)
        direct.ingest(indices)
        assert session.to_bytes() == direct.to_bytes()


class TestTumblingConservativeUpdate:
    """Tumbling panes never merge, so exact-batchable CU kinds can tumble."""

    CU_KINDS = ["count_min_cu", "count_min_log_cu"]

    @pytest.mark.parametrize("name", CU_KINDS)
    def test_tumbling_cu_window_matches_open_pane_replay(self, name):
        window = SlidingWindowSketch(
            config(name, mode="tumbling", pane_size=25)
        )
        rng = np.random.default_rng(4)
        indices = rng.integers(0, DIMENSION, size=60)
        window.update_batch(indices)
        assert window.pane_count == 1          # the ring never grows
        assert window.items_in_window == 10    # 60 = 2 full panes + 10 open
        # the open pane summarises exactly the updates since the last
        # boundary: replay them into a fresh sketch and compare state
        reference = config(name).build()
        reference.update_batch(indices[50:])
        probe = np.arange(0, DIMENSION, 17)
        np.testing.assert_array_equal(
            window.query_batch(probe), reference.query_batch(probe)
        )

    @pytest.mark.parametrize("name", CU_KINDS)
    def test_tumbling_cu_round_trips_through_wire_format(self, name):
        window = SlidingWindowSketch(
            config(name, mode="tumbling", pane_size=40)
        )
        rng = np.random.default_rng(9)
        window.update_batch(rng.integers(0, DIMENSION, size=90))
        restored = SlidingWindowSketch.from_bytes(window.to_bytes())
        probe = np.arange(0, DIMENSION, 13)
        np.testing.assert_array_equal(
            window.query_batch(probe), restored.query_batch(probe)
        )
        # the restored window continues bit-identically (CML-CU replays the
        # same randomised-rounding draws after restore)
        more = rng.integers(0, DIMENSION, size=35)
        window.update_batch(more)
        restored.update_batch(more)
        assert window.to_bytes() == restored.to_bytes()

    @pytest.mark.parametrize("name", CU_KINDS)
    def test_sliding_and_decay_still_reject_cu_kinds(self, name):
        with pytest.raises(CapabilityError, match="pane-merge algebra"):
            config(name, mode="sliding", panes=2, pane_size=10)
        with pytest.raises(CapabilityError, match="scale"):
            config(name, mode="decay", pane_size=10, decay=0.5)
        # the rejection names the capability that would unlock windowing
        with pytest.raises(CapabilityError, match="tumbling"):
            config(name, mode="sliding", panes=2, pane_size=10)

    @pytest.mark.parametrize("name", CU_KINDS)
    def test_tumbling_cu_window_cannot_shard(self, name):
        session = SketchSession.from_config(
            config(name, mode="tumbling", pane_size=100)
        )
        before = session.to_bytes()
        with pytest.raises(CapabilityError, match="cannot be sharded"):
            session.ingest(np.arange(10), shards=2)
        # refused before any update reached the pane
        assert session.items_processed == 0
        assert session.to_bytes() == before

    @pytest.mark.parametrize("name", CU_KINDS)
    def test_tumbling_cu_session_end_to_end(self, name):
        session = SketchSession.from_config(
            config(name, mode="tumbling", pane_size=30)
        )
        rng = np.random.default_rng(2)
        session.ingest(rng.integers(0, DIMENSION, size=75))
        assert session.windowed
        assert session.items_in_window == 15
        assert session.query(kind="point", index=3) >= 0.0
