"""Unit tests for the ``SketchSession`` facade."""

import numpy as np
import pytest

from repro.api import CapabilityError, ConfigError, SketchConfig, SketchSession
from repro.queries.heavy_hitters import HeavyHitter
from repro.sketches.base import LinearSketch
from repro.sketches.registry import (
    available_sketches,
    get_spec,
    register_sketch,
    unregister_sketch,
)
from repro.streaming.stream import UpdateStream

DIMENSION = 2_000


def make_session(name="count_sketch", seed=7, **options):
    return SketchSession.from_config(
        SketchConfig(name, dimension=DIMENSION, width=128, depth=5, seed=seed,
                     **options)
    )


def reference_sketch(name="count_sketch", seed=7):
    return SketchConfig(
        name, dimension=DIMENSION, width=128, depth=5, seed=seed
    ).build()


@pytest.fixture
def vector(rng):
    return rng.normal(50.0, 8.0, size=DIMENSION)


class TestConstruction:
    def test_from_config_accepts_config_or_name(self):
        by_config = make_session()
        by_name = SketchSession.from_config(
            "count_sketch", dimension=DIMENSION, width=128, depth=5, seed=7
        )
        assert by_config.config == by_name.config

    def test_from_config_rejects_mixing_config_and_fields(self):
        config = SketchConfig("count_sketch", dimension=10, width=4, depth=2)
        with pytest.raises(ConfigError, match="not both"):
            SketchSession.from_config(config, width=8)

    def test_from_config_rejects_non_configs(self):
        with pytest.raises(ConfigError):
            SketchSession.from_config(42)


class TestIngestDispatch:
    def test_scalar_update(self):
        session = make_session()
        session.ingest(3)
        session.ingest(3, 2.5)
        direct = reference_sketch()
        direct.update(3)
        direct.update(3, 2.5)
        np.testing.assert_array_equal(session.recover(), direct.recover())
        assert session.items_processed == 2

    def test_integer_array_is_coordinate_updates(self):
        session = make_session()
        session.ingest(np.array([1, 5, 1, 9]))
        direct = reference_sketch().update_batch([1, 5, 1, 9])
        np.testing.assert_array_equal(session.recover(), direct.recover())

    def test_coordinates_with_deltas(self):
        session = make_session()
        session.ingest([1, 5, 9], [2.0, 3.0, 4.0])
        direct = reference_sketch().update_batch([1, 5, 9], [2.0, 3.0, 4.0])
        np.testing.assert_array_equal(session.recover(), direct.recover())

    def test_pairs_array(self):
        session = make_session()
        session.ingest([(1, 2.0), (5, 3.0), (9, 4.0)])
        direct = reference_sketch().update_batch([1, 5, 9], [2.0, 3.0, 4.0])
        np.testing.assert_array_equal(session.recover(), direct.recover())

    def test_float_vector_is_fit(self, vector):
        session = make_session()
        session.ingest(vector)
        direct = reference_sketch().fit(vector)
        np.testing.assert_array_equal(session.recover(), direct.recover())

    def test_float_vector_of_wrong_length_rejected(self):
        session = make_session()
        with pytest.raises(ConfigError, match="frequency vector"):
            session.ingest(np.ones(17))

    def test_dimension_length_integer_array_is_ambiguous(self):
        # an int array of exactly `dimension` entries could be counts or
        # coordinates; the session must refuse rather than guess
        session = make_session()
        counts = np.zeros(DIMENSION, dtype=np.int64)
        counts[3] = 2
        with pytest.raises(ConfigError, match="ambiguous"):
            session.ingest(counts)
        # both disambiguations work
        session.ingest(counts.astype(float))                # dense vector
        make_session().ingest(counts % 10, deltas=1.0)      # coordinates

    def test_dataset_is_fit(self):
        from repro.data import load_dataset

        dataset = load_dataset("gaussian", seed=3, dimension=DIMENSION)
        session = make_session()
        session.ingest(dataset)
        direct = reference_sketch().fit(dataset.vector)
        np.testing.assert_array_equal(session.recover(), direct.recover())

    def test_update_stream_replay(self, rng):
        indices = rng.integers(0, DIMENSION, size=500)
        stream = UpdateStream.from_arrays(DIMENSION, indices)
        session = make_session()
        session.ingest(stream)
        direct = reference_sketch().update_batch(indices)
        np.testing.assert_array_equal(session.recover(), direct.recover())

    def test_stream_dimension_mismatch_rejected(self):
        stream = UpdateStream.from_arrays(17, [0, 1])
        with pytest.raises(ConfigError, match="dimension"):
            make_session().ingest(stream)

    def test_batch_size_chunking_matches_single_call(self, rng):
        indices = rng.integers(0, DIMENSION, size=999)
        chunked = make_session()
        chunked.ingest(indices, batch_size=100)
        whole = make_session()
        whole.ingest(indices)
        np.testing.assert_array_equal(chunked.recover(), whole.recover())

    def test_ingest_returns_self_for_chaining(self, vector):
        session = make_session()
        assert session.ingest(vector) is session


class TestShardedIngest:
    def test_explicit_shards_match_inline(self, rng):
        indices = rng.integers(0, DIMENSION, size=20_000)
        sharded = make_session(seed=3)
        sharded.ingest(indices, shards=3)
        inline = make_session(seed=3)
        inline.ingest(indices)
        np.testing.assert_array_equal(sharded.recover(), inline.recover())
        assert sharded.last_shard_report is not None
        assert sharded.last_shard_report.shards == 3
        assert inline.last_shard_report is None

    def test_sharded_ingest_folds_into_existing_state(self, rng):
        indices = rng.integers(0, DIMENSION, size=6_000)
        session = make_session(seed=3)
        session.ingest(indices[:3_000])
        session.ingest(indices[3_000:], shards=2)
        whole = make_session(seed=3)
        whole.ingest(indices)
        np.testing.assert_array_equal(session.recover(), whole.recover())

    def test_auto_shard_by_size(self, rng):
        indices = rng.integers(0, DIMENSION, size=5_000)
        session = SketchSession.from_config(
            SketchConfig("count_sketch", dimension=DIMENSION, width=128,
                         depth=5, seed=3),
            auto_shard_threshold=1_000,
        )
        session.ingest(indices)
        import os
        if (os.cpu_count() or 1) > 1:
            assert session.last_shard_report is not None
            assert session.last_shard_report.shards > 1
        inline = make_session(seed=3)
        inline.ingest(indices, shards=1)
        np.testing.assert_array_equal(session.recover(), inline.recover())

    def test_auto_shard_skips_unseeded_sessions(self, rng):
        indices = rng.integers(0, DIMENSION, size=5_000)
        session = SketchSession.from_config(
            SketchConfig("count_sketch", dimension=DIMENSION, width=128,
                         depth=5),
            auto_shard_threshold=1_000,
        )
        session.ingest(indices)
        assert session.last_shard_report is None

    def test_non_linear_sketch_cannot_shard(self):
        session = make_session("count_min_cu", seed=1)
        with pytest.raises(CapabilityError, match="not a linear sketch"):
            session.ingest(np.arange(100), shards=2)

    def test_sharding_requires_integer_seed(self):
        session = make_session(seed=None)
        with pytest.raises(ConfigError, match="seed"):
            session.ingest(np.arange(100), shards=2)

    def test_sharded_ingest_respects_algorithm_options(self, rng):
        indices = rng.integers(0, DIMENSION, size=8_000)
        sharded = make_session("l2_sr", seed=3, head_size=8)
        sharded.ingest(indices, shards=2)
        inline = make_session("l2_sr", seed=3, head_size=8)
        inline.ingest(indices)
        np.testing.assert_array_equal(sharded.recover(), inline.recover())


class TestQueryDispatch:
    def test_point_scalar_and_batch(self, vector):
        session = make_session()
        session.ingest(vector)
        direct = reference_sketch().fit(vector)
        assert session.query(kind="point", index=11) == direct.query(11)
        np.testing.assert_array_equal(
            session.query(kind="point", index=[1, 2, 3]),
            direct.query_batch([1, 2, 3]),
        )

    def test_integer_shorthand(self, vector):
        session = make_session()
        session.ingest(vector)
        assert session.query(11) == session.query(kind="point", index=11)

    def test_heavy_hitters(self, vector):
        session = make_session()
        session.ingest(vector)
        hitters = session.query(kind="heavy_hitters", threshold=70.0, top_k=5)
        assert len(hitters) <= 5
        assert all(isinstance(h, HeavyHitter) for h in hitters)

    def test_range(self, vector):
        session = make_session()
        session.ingest(vector)
        direct = reference_sketch().fit(vector)
        expected = float(sum(direct.query(i) for i in range(10, 20)))
        assert session.query(kind="range", low=10, high=20) == pytest.approx(expected)

    def test_inner_product(self, vector):
        session = make_session()
        session.ingest(vector)
        estimate = session.query(kind="inner_product", vector=vector)
        truth = float(np.dot(vector, vector))
        assert estimate == pytest.approx(truth, rel=0.2)

    def test_unknown_kind_lists_known_kinds(self):
        with pytest.raises(ValueError, match="known kinds"):
            make_session().query(kind="quantile")


class TestCapabilityGating:
    @pytest.fixture
    def point_only_session(self):
        class PointOnly(LinearSketch):
            name = "point_only_test"

            def __init__(self, dimension, width, depth, seed=None):
                super().__init__(dimension, width, depth, seed=seed)
                self._values = np.zeros(dimension)

            def update(self, index, delta=1.0):
                self._values[self._check_index(index)] += delta
                self._items_processed += 1

            def query(self, index):
                return float(self._values[self._check_index(index)])

            def size_in_words(self):
                return self.dimension

            def merge(self, other):
                self._values += other._values
                return self

            def scale(self, factor):
                self._values *= factor
                return self

        register_sketch(
            "point_only_test",
            "point-only (test double)",
            lambda n, s, d, seed, **kw: PointOnly(n, s, d, seed=seed),
            linear=True,
            queries=frozenset({"point"}),
            overwrite=True,
        )
        yield SketchSession.from_config(
            "point_only_test", dimension=50, width=4, depth=2, seed=1
        )
        unregister_sketch("point_only_test")

    def test_supported_kind_answers(self, point_only_session):
        point_only_session.ingest(3, 2.0)
        assert point_only_session.query(kind="point", index=3) == 2.0
        assert point_only_session.supports("point")

    def test_batch_ingest_applies_every_update(self, point_only_session):
        # a kind with no counter tables ingests a batch by replaying its
        # own scalar update
        indices = np.array([3, 7, 3, 49, 0, 7], dtype=np.int64)
        deltas = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        point_only_session.ingest(indices, deltas)
        expected = np.zeros(50)
        np.add.at(expected, indices, deltas)
        got = [point_only_session.query(kind="point", index=index)
               for index in range(50)]
        assert got == expected.tolist()
        assert point_only_session.items_processed == indices.size

    @pytest.mark.parametrize("kind,params", [
        ("heavy_hitters", {"threshold": 1.0}),
        ("range", {"low": 0, "high": 5}),
        ("inner_product", {"vector": np.ones(50)}),
    ])
    def test_unsupported_kinds_raise_capability_error(
        self, point_only_session, kind, params
    ):
        assert not point_only_session.supports(kind)
        with pytest.raises(CapabilityError, match=kind):
            point_only_session.query(kind=kind, **params)

    def test_merge_of_non_linear_sketch_raises(self):
        one = make_session("count_min_cu", seed=1)
        two = make_session("count_min_cu", seed=1)
        with pytest.raises(CapabilityError, match="merge"):
            one.merge(two)

    def test_estimate_bias_gated(self, vector):
        aware = make_session("l2_sr")
        aware.ingest(vector)
        assert aware.estimate_bias() == pytest.approx(50.0, abs=5.0)
        with pytest.raises(CapabilityError, match="bias"):
            make_session("count_sketch").estimate_bias()


class TestMerge:
    def test_merge_sessions_sketches_and_payloads(self, rng):
        partials = [make_session(seed=3) for _ in range(3)]
        chunks = [rng.integers(0, DIMENSION, size=500) for _ in range(3)]
        for session, chunk in zip(partials, chunks):
            session.ingest(chunk)
        combined = make_session(seed=3)
        combined.ingest(chunks[0])
        combined.merge(partials[1])                  # a session
        combined.merge(partials[2].to_bytes())       # a wire payload
        whole = make_session(seed=3)
        whole.ingest(np.concatenate(chunks))
        np.testing.assert_array_equal(combined.recover(), whole.recover())

    def test_merge_accepts_a_list_of_payloads(self, rng):
        partials = [make_session(seed=3) for _ in range(3)]
        chunks = [rng.integers(0, DIMENSION, size=400) for _ in range(3)]
        for session, chunk in zip(partials, chunks):
            session.ingest(chunk)
        combined = make_session(seed=3)
        combined.merge([p.to_bytes() for p in partials])
        whole = make_session(seed=3)
        whole.ingest(np.concatenate(chunks))
        np.testing.assert_array_equal(combined.recover(), whole.recover())

    def test_merge_accepts_a_mixed_tuple(self, rng):
        one, two = make_session(seed=3), make_session(seed=3)
        one.ingest(rng.integers(0, DIMENSION, size=200))
        two.ingest(rng.integers(0, DIMENSION, size=200))
        combined = make_session(seed=3)
        combined.merge((one, two.to_bytes()))
        assert combined.items_processed == 400


class TestMergeRejectionPaths:
    """Every rejected ``merge`` input gets an error naming the accepted ones."""

    ACCEPTED_NEEDLES = ("SketchSession", "Sketch", "bytes", "list/tuple")

    def assert_names_accepted_inputs(self, excinfo):
        message = str(excinfo.value)
        for needle in self.ACCEPTED_NEEDLES:
            assert needle in message, (needle, message)

    @pytest.mark.parametrize("junk", [
        3.14,
        "a-path-not-a-payload",
        {"payload": b"..."},
        None,
        object(),
    ])
    def test_scalar_junk_is_rejected_with_accepted_inputs(self, junk):
        with pytest.raises(TypeError) as excinfo:
            make_session().merge(junk)
        self.assert_names_accepted_inputs(excinfo)
        assert type(junk).__name__ in str(excinfo.value)

    def test_list_with_a_junk_element_names_its_position(self, rng):
        good = make_session(seed=7)
        good.ingest(rng.integers(0, DIMENSION, size=50))
        target = make_session(seed=7)
        with pytest.raises(TypeError) as excinfo:
            target.merge([good.to_bytes(), 3.14])
        self.assert_names_accepted_inputs(excinfo)
        assert "element 1" in str(excinfo.value)
        assert "float" in str(excinfo.value)
        # the junk element was detected before any merging happened
        assert target.items_processed == 0

    def test_failed_list_merge_leaves_the_session_untouched(self, rng):
        """Decode and compatibility failures mid-list must also be atomic —
        retrying the fixed list must not double-count earlier elements."""
        from repro.serialization import SerializationError

        good = make_session(seed=7)
        good.ingest(rng.integers(0, DIMENSION, size=50))
        target = make_session(seed=7)
        with pytest.raises(SerializationError):
            target.merge([good.to_bytes(), b"corrupt payload"])
        assert target.items_processed == 0
        mismatched = make_session(seed=8)       # different seed: unmergeable
        mismatched.ingest(rng.integers(0, DIMENSION, size=50))
        with pytest.raises(ValueError, match="seed"):
            target.merge([good.to_bytes(), mismatched])
        assert target.items_processed == 0
        target.merge([good.to_bytes()])          # the fixed list applies once
        assert target.items_processed == 50

    def test_corrupt_payload_still_raises_serialization_error(self):
        from repro.serialization import SerializationError

        with pytest.raises(SerializationError):
            make_session().merge(b"this is not a sketch payload")

    def test_windowed_session_cannot_be_merged(self, rng):
        from repro.streaming import WindowSpec

        windowed = SketchSession.from_config(
            SketchConfig("count_sketch", dimension=DIMENSION, width=128,
                         depth=5, seed=7,
                         window=WindowSpec(mode="sliding", panes=2,
                                           pane_size=100))
        )
        windowed.ingest(rng.integers(0, DIMENSION, size=50))
        with pytest.raises(CapabilityError, match="windowed session"):
            windowed.merge(make_session())

    def test_timestamps_require_a_windowed_session(self):
        with pytest.raises(ConfigError, match="windowed"):
            make_session().ingest(np.arange(10), timestamps=np.arange(10.0))


def streaming_kinds():
    return [name for name in available_sketches() if get_spec(name).streaming]


class TestNonFiniteScalarDeltas:
    """A scalar update is held to the batch contract: finite deltas only."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", streaming_kinds())
    def test_rejected_with_state_unchanged(self, name, bad, rng):
        session = make_session(name)
        session.ingest(rng.integers(0, DIMENSION, size=200))
        before = session.to_bytes()
        with pytest.raises(ValueError, match="deltas must contain only finite values"):
            session.ingest(3, deltas=bad)
        assert session.to_bytes() == before
        session.ingest(3, deltas=2.0)
        assert np.isfinite(session.query(kind="point", index=3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_windowed_session_rejects_too(self, bad, rng):
        from repro.streaming import WindowSpec

        session = make_session(
            "l2_sr_streaming",
            window=WindowSpec(mode="sliding", panes=2, pane_size=100),
        )
        session.ingest(rng.integers(0, DIMENSION, size=150))
        before = session.to_bytes()
        with pytest.raises(ValueError, match="deltas must contain only finite values"):
            session.ingest(3, deltas=bad)
        assert session.to_bytes() == before
        assert np.isfinite(session.estimate_bias())


class TestPersistence:
    def test_full_round_trip(self, tmp_path, vector):
        session = make_session("l2_sr")
        session.ingest(vector)
        path = session.save(tmp_path / "state.sketch")
        reopened = SketchSession.open(path)
        # the reopened config pins every algorithm option explicitly (the
        # state records defaults the original left implicit)
        for field in ("name", "dimension", "width", "depth", "seed"):
            assert getattr(reopened.config, field) == getattr(session.config, field)
        assert reopened.items_processed == session.items_processed
        np.testing.assert_array_equal(reopened.recover(), session.recover())
        # the reopened session keeps evolving identically
        session.ingest(5, 2.0)
        reopened.ingest(5, 2.0)
        assert reopened.query(5) == session.query(5)

    def test_state_dict_round_trip(self, vector):
        session = make_session()
        session.ingest(vector)
        clone = SketchSession.from_bytes(session.to_bytes())
        assert clone.state_dict()["kind"] == session.state_dict()["kind"]

    def test_unseeded_session_cannot_serialize(self, vector):
        session = make_session(seed=None)
        session.ingest(vector)
        with pytest.raises(ValueError, match="seed"):
            session.to_bytes()


class TestConservativeAutoBatching:
    """Above the auto threshold, CU ingests chunk through the exact batch
    path (the non-linear analogue of auto-sharding) — the result must be
    byte-identical to one monolithic update_batch call."""

    @pytest.mark.parametrize("name", ["count_min_cu", "count_min_log_cu"])
    def test_large_cu_ingest_auto_chunks_identically(self, name):
        rng = np.random.default_rng(8)
        indices = rng.integers(0, 300, size=20_000)
        cfg = SketchConfig(name, dimension=300, width=32, depth=3, seed=5)
        auto = SketchSession.from_config(cfg, auto_shard_threshold=1_000)
        whole = SketchSession.from_config(cfg, auto_shard_threshold=None)
        auto.ingest(indices)
        whole.ingest(indices)
        assert auto.to_bytes() == whole.to_bytes()
        # chunked, not sharded: CU kinds never reach the worker pool
        assert auto.last_shard_report is None
        assert auto.shard_pool is None

    def test_linear_kinds_do_not_auto_chunk(self):
        cfg = SketchConfig("count_min", dimension=300, width=32, depth=3,
                           seed=5)
        session = SketchSession.from_config(cfg, auto_shard_threshold=1_000)
        assert session._auto_batch_size(50_000) is None
