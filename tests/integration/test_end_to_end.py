"""End-to-end integration tests across packages.

These exercise the realistic usage paths a downstream user would follow:
streaming ingestion + real-time queries, distributed aggregation over sites,
and the consistency between all three ingestion modes (vector, stream,
distributed merge).
"""

import numpy as np
import pytest

from repro.api import SketchConfig, SketchSession
from repro.core import StreamingL2BiasAwareSketch
from repro.data.hudong import simulated_hudong
from repro.data.registry import load_dataset
from repro.distributed import Coordinator, Site, partition_vector
from repro.streaming.generators import stream_from_items, stream_from_vector
from repro.streaming.runner import StreamRunner


class TestThreeIngestionModesAgree:
    """Vector fit, stream replay and distributed merge give the same sketch."""

    @pytest.mark.parametrize("algorithm", ["l1_sr", "l2_sr", "count_sketch"])
    def test_consistency(self, algorithm, rng):
        dimension = 1_200
        vector = rng.poisson(35.0, size=dimension).astype(float)

        config = SketchConfig(algorithm, dimension=dimension, width=64,
                              depth=5, seed=101)
        batch = config.build().fit(vector)

        streamed = config.build()
        for update in stream_from_vector(vector, shuffle=True, seed=3):
            streamed.update(update.index, update.delta)

        locals_ = partition_vector(vector, 3, seed=5, by="items")
        sites = [
            Site(f"site-{i}", config).observe_vector(local)
            for i, local in enumerate(locals_)
        ]
        merged = Coordinator().collect_all(sites).global_sketch

        np.testing.assert_allclose(batch.recover(), streamed.recover())
        np.testing.assert_allclose(batch.recover(), merged.recover())


class TestStreamingMonitoringScenario:
    """The Hudong-style scenario: ingest an edge stream, query hubs in real time."""

    def test_degree_monitoring(self):
        stream_data = simulated_hudong(dimension=3_000, edges=30_000, seed=21)
        sketch = StreamingL2BiasAwareSketch(3_000, 1_024, 7, seed=23)
        for article, delta in stream_data.iter_updates():
            sketch.update(article, delta)

        truth = stream_data.degree_vector()
        top_articles = np.argsort(truth)[-5:]
        for article in top_articles:
            assert sketch.query(int(article)) == pytest.approx(
                truth[article], abs=0.25 * truth[top_articles].max() + 5.0
            )

    def test_stream_runner_end_to_end(self):
        stream_data = simulated_hudong(dimension=2_000, edges=10_000, seed=25)
        stream = stream_from_items(stream_data.sources, stream_data.dimension)
        runner = StreamRunner(stream)
        report = runner.run(
            StreamingL2BiasAwareSketch(2_000, 512, 5, seed=27), query_count=200,
            seed=29,
        )
        assert report.updates == 10_000
        # average degree is 5; the sketch error stays well below it
        assert report.average_error < 4.0


class TestHeavyHitterScenario:
    """Web-traffic style anomaly detection over a biased count vector."""

    def test_finds_flash_crowd_seconds(self):
        dataset = load_dataset("worldcup", seed=31, dimension=10_000,
                               flash_crowds=3, flash_multiplier=30.0)
        session = SketchSession.from_config(SketchConfig(
            "l2_sr", dimension=dataset.dimension, width=512, depth=7, seed=33,
        )).ingest(dataset.vector)

        threshold = 5.0 * float(np.median(dataset.vector))
        hitters = session.query(kind="heavy_hitters", threshold=threshold)
        reported = {h.index for h in hitters}
        truly_hot = set(np.flatnonzero(dataset.vector > 1.5 * threshold))
        # every strongly hot second is reported (no false negatives among the
        # clear cases); the sketch may add a few borderline false positives
        assert truly_hot <= reported


class TestPublicApiSurface:
    def test_star_import_names_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version_string(self):
        import re

        import repro
        from repro.version import __version__ as module_version

        # sourced from the installed distribution metadata, falling back to
        # the pyproject-pinned version for source checkouts
        assert repro.__version__ == module_version
        assert re.fullmatch(r"\d+\.\d+\.\d+([.\w]*)?", repro.__version__)
