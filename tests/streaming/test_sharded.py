"""Tests for the multi-core sharded ingestion engine.

The engine's contract: partition an update stream across a persistent pool
of worker processes, scatter-add every shard into a per-worker shared-memory
counter block, fold the blocks into the target with vectorized ``+=`` — and
for linear sketches on integer-weighted streams reach exactly the
single-process state, regardless of shard count.  No counters are
serialized in either direction.
"""

import os
import signal
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.api import SketchConfig, SketchSession
from repro.streaming import ShardedIngestPool, UpdateStream, shard_arrays

DIMENSION = 1_500
WIDTH = 64
DEPTH = 5
SEED = 23


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(77)
    indices = rng.integers(0, DIMENSION, size=20_000).astype(np.int64)
    return UpdateStream.from_arrays(DIMENSION, indices)


def sketch_config(name):
    return SketchConfig(name, dimension=DIMENSION, width=WIDTH, depth=DEPTH,
                        seed=SEED)


def single_process_state(name, stream, batch_size=4_096):
    sketch = sketch_config(name).build()
    for indices, deltas in stream.iter_batches(batch_size):
        sketch.update_batch(indices, deltas)
    return sketch


def assert_segments_released(names):
    """Every named shared-memory segment must be unlinked."""
    for name in names:
        with pytest.raises(FileNotFoundError):
            segment = shared_memory.SharedMemory(name=name)
            segment.close()  # pragma: no cover - only on leak


class TestShardArrays:
    def test_shards_partition_the_stream_in_order(self):
        indices = np.arange(10, dtype=np.int64)
        deltas = np.ones(10)
        pieces = shard_arrays(indices, deltas, 3)
        assert len(pieces) == 3
        np.testing.assert_array_equal(
            np.concatenate([idx for idx, _ in pieces]), indices
        )

    def test_more_shards_than_updates_drops_empty_slices(self):
        # 5-way split of 2 updates must not produce zero-length shards —
        # an empty shard would dispatch a worker task that contributes
        # nothing.
        indices = np.arange(2, dtype=np.int64)
        pieces = shard_arrays(indices, np.ones(2), 5)
        assert sum(idx.size for idx, _ in pieces) == 2
        assert all(idx.size > 0 for idx, _ in pieces)
        assert len(pieces) == 2

    def test_empty_input_yields_no_shards(self):
        pieces = shard_arrays(
            np.empty(0, dtype=np.int64), np.empty(0), 4
        )
        assert pieces == []


class TestShardedIngestion:
    @pytest.mark.parametrize("name", ["count_min", "count_sketch", "l2_sr"])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_matches_single_process_state(self, stream, name, shards):
        with SketchSession.from_config(sketch_config(name)) as session:
            session.ingest(stream, shards=shards)
        expected = single_process_state(name, stream)
        state_a = session.sketch.state_dict()
        state_b = expected.state_dict()
        for key in state_b["arrays"]:
            np.testing.assert_array_equal(
                state_a["arrays"][key], state_b["arrays"][key]
            )
        assert session.sketch.items_processed == len(stream)

    def test_report_accounting(self, stream):
        with SketchSession.from_config(sketch_config("count_min")) as session:
            report = session.ingest(stream, shards=4).last_shard_report
        assert report.shards == 4
        assert report.updates == len(stream)
        assert sum(report.shard_updates) == len(stream)
        assert report.elapsed_seconds > 0
        # phase breakdown: split + workers + fold
        assert report.split_seconds >= 0
        assert report.fold_seconds >= 0
        assert len(report.worker_seconds) == report.workers
        assert all(seconds >= 0 for seconds in report.worker_seconds)

    def test_accepts_raw_arrays(self, stream):
        indices, deltas = stream.indices(), stream.deltas()
        with SketchSession.from_config(sketch_config("count_min")) as session:
            session.ingest(indices, deltas, shards=2)
        expected = single_process_state("count_min", stream)
        np.testing.assert_array_equal(session.sketch.table, expected.table)

    def test_explicit_seed_required(self):
        with pytest.raises(ValueError, match="seed"):
            ShardedIngestPool("count_min", DIMENSION, WIDTH, DEPTH, None)

    def test_turnstile_stream_is_sharded_correctly(self):
        rng = np.random.default_rng(5)
        indices = rng.integers(0, DIMENSION, size=5_000).astype(np.int64)
        deltas = rng.integers(-3, 4, size=5_000).astype(np.float64)
        from repro.streaming import StreamKind

        turnstile = UpdateStream.from_arrays(
            DIMENSION, indices, deltas, kind=StreamKind.TURNSTILE
        )
        with SketchSession.from_config(sketch_config("count_sketch")) as session:
            session.ingest(turnstile, shards=3)
        expected = single_process_state("count_sketch", turnstile)
        np.testing.assert_array_equal(session.sketch.table, expected.table)


class TestShardedIngestPool:
    def test_warm_pool_reuse_across_ingests(self, stream):
        """One pool, several ingest() calls folding into one target."""
        indices = stream.indices()
        target = sketch_config("count_min").build()
        with ShardedIngestPool(
            "count_min", DIMENSION, WIDTH, DEPTH, SEED, workers=2
        ) as pool:
            pool.ingest(indices[:8_000], target=target, shards=3)
            pool.ingest(indices[8_000:], target=target, shards=2)
        expected = single_process_state("count_min", stream)
        np.testing.assert_array_equal(target.table, expected.table)
        assert target.items_processed == len(stream)

    def test_more_shards_than_workers_round_robins(self, stream):
        target = sketch_config("count_min").build()
        with ShardedIngestPool(
            "count_min", DIMENSION, WIDTH, DEPTH, SEED, workers=2
        ) as pool:
            report = pool.ingest(stream.indices(), target=target, shards=7)
        assert report.shards == 7
        assert report.workers == 2
        assert len(report.shard_updates) == 7
        expected = single_process_state("count_min", stream)
        np.testing.assert_array_equal(target.table, expected.table)

    def test_more_shards_than_updates(self):
        target = sketch_config("count_min").build()
        with ShardedIngestPool(
            "count_min", DIMENSION, WIDTH, DEPTH, SEED, workers=2
        ) as pool:
            report = pool.ingest(
                np.arange(3, dtype=np.int64), target=target, shards=10
            )
        # only the 3 non-empty slices are dispatched
        assert sum(report.shard_updates) == 3
        assert all(size > 0 for size in report.shard_updates)
        assert target.items_processed == 3

    def test_empty_ingest_is_a_noop(self):
        target = sketch_config("count_min").build()
        with ShardedIngestPool(
            "count_min", DIMENSION, WIDTH, DEPTH, SEED, workers=1
        ) as pool:
            report = pool.ingest(
                np.empty(0, dtype=np.int64), target=target, shards=4
            )
        assert report.updates == 0
        assert report.workers == 0
        assert target.items_processed == 0

    def test_incompatible_target_rejected(self):
        other_seed = SketchConfig("count_min", dimension=DIMENSION, width=WIDTH,
                                  depth=DEPTH, seed=SEED + 1).build()
        with ShardedIngestPool(
            "count_min", DIMENSION, WIDTH, DEPTH, SEED, workers=1
        ) as pool:
            with pytest.raises(ValueError, match="seed"):
                pool.ingest(
                    np.arange(5, dtype=np.int64), target=other_seed, shards=2
                )

    def test_non_linear_pool_rejected(self):
        with pytest.raises(ValueError, match="not linear"):
            ShardedIngestPool(
                "count_min_cu", DIMENSION, WIDTH, DEPTH, SEED, workers=1
            )

    def test_close_unlinks_every_segment(self, stream):
        pool = ShardedIngestPool(
            "count_min", DIMENSION, WIDTH, DEPTH, SEED, workers=2
        )
        target = sketch_config("count_min").build()
        pool.ingest(stream.indices(), target=target, shards=2)
        names = pool.segment_names()
        assert len(names) == 3  # two worker blocks + the updates segment
        pool.close()
        assert pool.closed
        assert_segments_released(names)
        pool.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            pool.ingest(np.arange(1, dtype=np.int64), target=target)

    def test_worker_crash_aborts_and_releases_memory(self, stream):
        pool = ShardedIngestPool(
            "count_min", DIMENSION, WIDTH, DEPTH, SEED, workers=2
        )
        target = sketch_config("count_min").build()
        pool.ingest(stream.indices()[:100], target=target, shards=2)
        names = pool.segment_names()
        os.kill(pool._processes[0].pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while pool._processes[0].is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(RuntimeError, match="broken"):
            pool.ingest(stream.indices(), target=target, shards=2)
        assert pool.closed
        assert_segments_released(names)

    def test_close_during_inflight_ingest_aborts_and_releases_memory(self):
        # regression: close() from another thread used to race the round —
        # _collect_acks polled a concurrently-closed pipe (raw OSError) and
        # the fold could touch unlinked shared memory.  The contract now:
        # the in-flight round aborts with the pool's usual typed
        # RuntimeError (or the next round is refused with ValueError if the
        # close lands between rounds), and by the time close() returns
        # every shared segment is released.
        import threading

        from repro.api import SketchConfig, SketchSession

        session = SketchSession.from_config(
            SketchConfig("count_min", dimension=100_000, width=256, depth=4,
                         seed=SEED)
        )
        rng = np.random.default_rng(7)
        batch = rng.integers(0, 100_000, size=1_000_000).astype(np.int64)
        errors = []

        def keep_ingesting():
            try:
                while True:
                    session.ingest(batch, shards=4)
            except (RuntimeError, ValueError) as error:
                errors.append(error)

        thread = threading.Thread(target=keep_ingesting, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10.0
        pool = None
        while time.monotonic() < deadline:
            pool = session._pool
            if pool is not None and pool._round_active:
                break
            time.sleep(0.002)
        assert pool is not None, "sharded pool never came up"
        names = pool.segment_names()
        assert names, "pool reported no live segments"

        session.close()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "ingest thread did not abort"
        assert pool.closed
        assert errors, "in-flight ingest survived a concurrent close"
        assert isinstance(errors[0], (RuntimeError, ValueError))
        assert_segments_released(names)

    def test_updates_segment_grows_geometrically(self):
        target = sketch_config("count_min").build()
        rng = np.random.default_rng(3)
        big = rng.integers(0, DIMENSION, size=200_000).astype(np.int64)
        with ShardedIngestPool(
            "count_min", DIMENSION, WIDTH, DEPTH, SEED, workers=2
        ) as pool:
            pool.ingest(big[:10], target=target, shards=2)
            first_updates = pool.segment_names()[-1]
            pool.ingest(big, target=target, shards=2)
            second_updates = pool.segment_names()[-1]
            # growth re-maps under a fresh name; the old segment is unlinked
            assert first_updates != second_updates
            assert_segments_released([first_updates])
        expected = sketch_config("count_min").build()
        expected.update_batch(big[:10])
        expected.update_batch(big)
        np.testing.assert_array_equal(target.table, expected.table)
