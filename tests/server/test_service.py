"""End-to-end service tests: writer/reader split, staleness, drain, store.

Each test boots a real server on an ephemeral port via
:class:`ServerHandle` (event loop on a daemon thread) and talks to it with
the synchronous :class:`Client` — the same way the benchmark and the CI
smoke workload do.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.api import SketchConfig, SketchSession
from repro.api.errors import ConfigError
from repro.server import (
    AsyncClient,
    Client,
    RemoteOperationError,
    ServerConfig,
    ServerHandle,
)
from repro.streaming import WindowSpec

DIMENSION = 2_000
SEED = 11


def sketch_config(**overrides):
    fields = dict(dimension=DIMENSION, width=256, depth=5, seed=SEED)
    fields.update(overrides)
    algorithm = fields.pop("algorithm", "count_min")
    return SketchConfig(algorithm, **fields)


@pytest.fixture
def handle():
    handle = ServerHandle.start(
        ServerConfig(sketch=sketch_config(), snapshot_interval=0.05)
    )
    yield handle
    handle.stop()


@pytest.fixture
def client(handle):
    with Client(handle.host, handle.port) as client:
        yield client


class TestIngestAndQuery:
    def test_ingested_updates_are_visible_after_flush(self, client):
        client.ingest([3, 5, 3], [1.0, 2.0, 1.0])
        epoch = client.flush()
        assert epoch >= 1
        answer = client.point(3)
        assert answer.value == 2.0
        assert answer.epoch == epoch

    def test_epoch_zero_before_any_ingest(self, client):
        assert client.ping() == 0
        assert client.point(3).epoch == 0

    def test_queries_match_single_process_reference(self, client):
        rng = np.random.default_rng(0)
        indices = rng.integers(0, DIMENSION, 5_000)
        client.ingest(indices)
        client.flush()
        reference = SketchSession.from_config(sketch_config())
        reference.ingest(indices)
        for probe in (0, 7, 423, DIMENSION - 1):
            assert client.point(probe).value == pytest.approx(
                reference.query(kind="point", index=probe)
            )
        assert client.range(10, 200).value == pytest.approx(
            reference.query(kind="range", low=10, high=200)
        )

    def test_heavy_hitters_round_trip(self, client):
        client.ingest([7] * 50 + [9] * 30 + list(range(20)))
        client.flush()
        hitters = client.heavy_hitters(threshold=25.0).value
        assert [h.index for h in hitters[:2]] == [7, 9]
        assert hitters[0].estimate >= 50.0

    def test_inner_product_round_trip(self, client):
        client.ingest([1, 2, 3], [2.0, 3.0, 4.0])
        client.flush()
        vector = np.zeros(DIMENSION)
        vector[2] = 10.0
        assert client.inner_product(vector).value == pytest.approx(30.0)

    def test_vectorized_point_query(self, client):
        client.ingest([4, 4, 6])
        client.flush()
        answer = client.query("point", index=[4, 6, 8])
        assert answer.value == [2.0, 1.0, 0.0]

    def test_out_of_range_key_is_rejected_with_config_code(self, client):
        with pytest.raises(RemoteOperationError) as excinfo:
            client.ingest([DIMENSION + 5])
        assert excinfo.value.code == "config"
        # the rejected batch never reached the writer
        client.flush()
        assert client.stats()["updates_applied"] == 0

    def test_non_finite_delta_is_rejected_on_the_connection(self, client):
        with pytest.raises(RemoteOperationError,
                           match="deltas must contain only finite values") \
                as excinfo:
            client.ingest([1, 2], [1.0, float("nan")])
        assert excinfo.value.code == "config"
        client.flush()
        stats = client.stats()
        assert stats["updates_accepted"] == 0
        assert stats["batches_rejected"] == 0

    @pytest.mark.parametrize("algorithm",
                             ["count_min_cu", "count_min_log_cu"])
    def test_batch_the_writer_would_drop_is_rejected_at_the_door(
            self, algorithm):
        """A conservative-update server refuses a negative delta on the
        connection instead of acknowledging a batch its writer drops."""
        config = ServerConfig(sketch=sketch_config(algorithm=algorithm),
                              snapshot_interval=0.05)
        handle = ServerHandle.start(config)
        try:
            with Client(handle.host, handle.port) as client:
                with pytest.raises(RemoteOperationError,
                                   match="non-negative increments") \
                        as excinfo:
                    client.ingest([1, 2, 3], [1.0, -1.0, 2.0])
                assert excinfo.value.code == "config"
                client.ingest([1, 2], [1.0, 2.0])
                client.flush()
                stats = client.stats()
                assert stats["updates_accepted"] == 2
                assert stats["updates_applied"] == 2
                assert stats["batches_rejected"] == 0
        finally:
            handle.stop()


class TestStalenessContract:
    def test_snapshot_is_bit_identical_to_reported_epoch(self, client):
        client.ingest(np.arange(500) % DIMENSION)
        client.flush()
        epoch, payload = client.snapshot()
        answer = client.point(17)
        assert answer.epoch == epoch
        restored = SketchSession.from_bytes(payload)
        assert restored.query(kind="point", index=17) == answer.value

    def test_replica_refreshes_on_cadence_without_flush(self, handle, client):
        client.ingest([1, 1, 1])
        deadline = 50
        for _ in range(deadline):
            if client.point(1).epoch >= 1:
                break
            time.sleep(0.05)
        answer = client.point(1)
        assert answer.epoch >= 1
        assert answer.value == 3.0

    def test_flush_with_no_pending_updates_keeps_epoch(self, client):
        client.ingest([2])
        first = client.flush()
        second = client.flush()
        assert second == first


class TestWindowedServing:
    def test_count_paned_window_round_trip(self):
        window = WindowSpec(mode="sliding", panes=4, pane_size=500)
        config = sketch_config(algorithm="count_sketch", window=window)
        handle = ServerHandle.start(
            ServerConfig(sketch=config, snapshot_interval=0.05)
        )
        rng = np.random.default_rng(9)
        batches = [rng.integers(0, DIMENSION, 700) for _ in range(5)]
        reference = SketchSession.from_config(config)
        try:
            with Client(handle.host, handle.port) as client:
                for batch in batches:
                    assert client.ingest(batch) == batch.size
                    reference.ingest(batch)
                client.flush()
                epoch, payload = client.snapshot()
                answers = client.query("point", index=[0, 17, 423]).value
        finally:
            handle.stop()
        assert epoch >= 1
        assert payload == reference.to_bytes()
        assert answers == [
            reference.query(kind="point", index=i) for i in (0, 17, 423)
        ]

    def test_time_paned_window_is_refused_at_boot(self):
        window = WindowSpec(mode="sliding", panes=4, pane_size=5.0, by="time")
        with pytest.raises(ConfigError, match="timestamps"):
            ServerHandle.start(ServerConfig(sketch=sketch_config(window=window)))

    def test_store_restored_time_paned_window_is_refused_at_boot(
        self, tmp_path
    ):
        window = WindowSpec(mode="tumbling", pane_size=5.0, by="time")
        uri = f"store://{tmp_path / 'timed.db'}#live"
        SketchSession.from_config(sketch_config(window=window)).save(uri)
        with pytest.raises(ConfigError, match="timestamps"):
            ServerHandle.start(ServerConfig(store=uri))


class TestReplicaIsolation:
    """A published replica stays put while the writer moves on behind it."""

    @pytest.mark.parametrize("config", [
        sketch_config(algorithm="count_sketch",
                      window=WindowSpec(mode="sliding", panes=4,
                                        pane_size=500)),
        sketch_config(algorithm="l2_sr_streaming"),
    ], ids=["sliding-window", "l2_sr_streaming"])
    def test_replica_ignores_ingest_after_its_epoch(self, config):
        # an interval and an update total that never publish by themselves
        handle = ServerHandle.start(
            ServerConfig(sketch=config, snapshot_interval=60)
        )
        rng = np.random.default_rng(5)
        prefix = [rng.integers(0, DIMENSION, 600) for _ in range(2)]
        # three panes' worth: the writer rotates and evicts behind the
        # published replica
        suffix = [rng.integers(0, DIMENSION, 500) for _ in range(3)]
        reference = SketchSession.from_config(config)
        probes = [0, 17, 423, DIMENSION - 1]
        try:
            with Client(handle.host, handle.port) as client:
                for batch in prefix:
                    client.ingest(batch)
                    reference.ingest(batch)
                epoch = client.flush()
                for batch in suffix:
                    client.ingest(batch)
                deadline = time.monotonic() + 10.0
                while (client.stats()["updates_applied"] < 2_700
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert client.stats()["updates_applied"] == 2_700
                # the epoch is first encoded and queried only now, after the
                # writer has moved on
                assert client.snapshot() == (epoch, reference.to_bytes())
                answers = client.query("point", index=probes)
                assert answers.epoch == epoch
                assert answers.value == [
                    reference.query(kind="point", index=i) for i in probes
                ]
                for batch in suffix:
                    reference.ingest(batch)
                later = client.flush()
                assert later == epoch + 1
                assert client.snapshot() == (later, reference.to_bytes())
        finally:
            handle.stop()


class TestStats:
    def test_stats_reports_per_connection_byte_counts(self, handle):
        with Client(handle.host, handle.port) as ingester:
            ingester.ingest(np.arange(100), np.ones(100))
            ingester.flush()
            with Client(handle.host, handle.port) as querier:
                querier.point(1)
                querier.point(2)
                stats = querier.stats()
        connections = stats["connections"]
        assert len(connections) == 2
        summaries = sorted(
            connections.values(), key=lambda s: -s["ingest_updates"]
        )
        assert summaries[0]["ingest_updates"] == 100
        assert summaries[0]["ingest_bytes"] > 100 * 16  # payload + response
        assert summaries[1]["queries"] == 2
        assert summaries[1]["query_bytes"] > 0
        totals = stats["totals"]
        assert totals["ingest_updates"] == 100
        assert totals["queries"] == 2

    def test_closed_connections_fold_into_lifetime_totals(self, handle):
        with Client(handle.host, handle.port) as first:
            first.ingest([1, 2, 3])
            first.flush()
        with Client(handle.host, handle.port) as second:
            totals = second.stats()["totals"]
        assert totals["ingest_updates"] == 3

    def test_accounting_stays_one_counter_set_per_live_connection(
        self, handle
    ):
        for _ in range(5):
            with Client(handle.host, handle.port) as client:
                for _ in range(40):
                    client.ingest([1, 2])
                    client.point(1)
        server = handle.server
        deadline = time.monotonic() + 5.0
        while server._conn_counters and time.monotonic() < deadline:
            time.sleep(0.01)
        with Client(handle.host, handle.port) as client:
            client.ping()
            stats = client.stats()
            # read while the connection is live: closing it races the
            # server's teardown of its counters
            live_counters = len(server._conn_counters)
        # only the live connection is listed; the five closed ones were
        # folded into one total and left nothing behind
        assert len(stats["connections"]) == 1
        (live,) = stats["connections"].values()
        assert live["messages"] == 1
        assert live_counters == 1
        totals = stats["totals"]
        assert totals["ingest_updates"] == 5 * 40 * 2
        assert totals["queries"] == 5 * 40
        assert totals["messages"] == 5 * 80 + 1


class TestDrain:
    def test_drain_applies_queued_batches_before_stopping(self):
        handle = ServerHandle.start(
            ServerConfig(sketch=sketch_config(), snapshot_interval=5.0)
        )
        with Client(handle.host, handle.port) as client:
            for _ in range(10):
                client.ingest(np.arange(50))
        summary = handle.stop()
        assert summary["updates_accepted"] == 500
        assert summary["updates_applied"] == 500
        assert summary["final_epoch"] >= 1

    def test_store_boot_and_checkpoint_round_trip(self, tmp_path):
        uri = f"store://{tmp_path / 'serve.db'}#live"
        config = ServerConfig(sketch=sketch_config(), store=uri,
                              snapshot_interval=0.05)
        handle = ServerHandle.start(config)
        assert handle.server.restored_from_store is False
        with Client(handle.host, handle.port) as client:
            client.ingest([5] * 7)
            client.flush()
            expected = client.point(5).value
        summary = handle.stop()
        assert summary["checkpoint"] == f"{uri}@1"

        second = ServerHandle.start(config)
        try:
            assert second.server.restored_from_store is True
            with Client(second.host, second.port) as client:
                assert client.point(5).value == expected
        finally:
            second.stop()

    def test_store_only_boot_requires_existing_entry(self, tmp_path):
        uri = f"store://{tmp_path / 'missing.db'}#nothing"
        with pytest.raises(ConfigError, match="no existing"):
            ServerHandle.start(ServerConfig(store=uri))


class TestServerConfigValidation:
    def test_needs_sketch_or_store(self):
        with pytest.raises(ConfigError, match="sketch"):
            ServerConfig()

    def test_rejects_non_store_uri(self):
        with pytest.raises(ConfigError, match="store://"):
            ServerConfig(sketch=sketch_config(), store="/plain/path")

    def test_rejects_bad_port(self):
        with pytest.raises(ConfigError, match="port"):
            ServerConfig(sketch=sketch_config(), port=99_999)

    @pytest.mark.parametrize("field", [
        "shards", "queue_depth", "snapshot_updates", "max_frame_bytes",
    ])
    def test_wrong_typed_count_is_a_config_error(self, field):
        with pytest.raises(ConfigError, match=field):
            ServerConfig(sketch=sketch_config(), **{field: "2"})

    def test_rejects_bool_snapshot_interval(self):
        with pytest.raises(ConfigError, match="snapshot_interval"):
            ServerConfig(sketch=sketch_config(), snapshot_interval=True)

    def test_rejects_nonlinear_sketch_with_shards(self):
        with pytest.raises(ConfigError, match="not linear"):
            ServerConfig(sketch=sketch_config(algorithm="count_min_cu"),
                         shards=2)

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown server config key"):
            ServerConfig.from_mapping({"algorithm": "count_min",
                                       "dimension": 100, "typo": 1})

    def test_from_mapping_builds_sketch_from_json_keys(self):
        config = ServerConfig.from_mapping({
            "algorithm": "count_min", "dimension": 100, "width": 32,
            "depth": 3, "seed": 4, "port": 1234,
        })
        assert config.sketch.name == "count_min"
        assert config.port == 1234

    def test_unseeded_sketch_is_rejected_at_boot(self):
        config = ServerConfig(
            sketch=SketchConfig("count_min", dimension=100, width=32,
                                depth=3, seed=None)
        )
        with pytest.raises(ConfigError, match="seed"):
            ServerHandle.start(config)


class TestAsyncClient:
    def test_async_client_full_surface(self, handle):
        async def scenario():
            async with await AsyncClient.connect(
                handle.host, handle.port
            ) as client:
                assert await client.ping() == 0
                await client.ingest([1, 1, 2], [1.0, 1.0, 5.0])
                epoch = await client.flush()
                answer = await client.point(1)
                assert answer.value == 2.0
                assert answer.epoch == epoch
                hitters = (await client.heavy_hitters(threshold=4.0)).value
                assert hitters[0].index == 2
                stats = await client.stats()
                assert stats["totals"]["ingest_updates"] == 3

        asyncio.run(scenario())


class TestShardedServing:
    def test_server_with_shards_matches_reference_and_releases_memory(self):
        config = ServerConfig(sketch=sketch_config(), shards=2,
                              snapshot_interval=0.05)
        handle = ServerHandle.start(config)
        rng = np.random.default_rng(5)
        indices = rng.integers(0, DIMENSION, 10_000)
        with Client(handle.host, handle.port) as client:
            client.ingest(indices)
            client.flush()
            observed = client.point(int(indices[0])).value
        session = handle.server._session
        pool = session._pool
        names = pool.segment_names() if pool is not None else []
        handle.stop()
        reference = SketchSession.from_config(sketch_config())
        reference.ingest(indices)
        assert observed == reference.query(kind="point", index=int(indices[0]))
        if names:
            from multiprocessing import shared_memory

            for name in names:
                with pytest.raises(FileNotFoundError):
                    segment = shared_memory.SharedMemory(name=name)
                    segment.close()  # pragma: no cover - only on leak
