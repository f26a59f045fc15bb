"""Integration-style tests of the site/coordinator protocol."""

import numpy as np
import pytest

from repro.api import SketchConfig
from repro.core import L2BiasAwareSketch
from repro.distributed import Coordinator, Site, partition_vector
from repro.streaming.generators import stream_from_vector


@pytest.fixture
def global_vector(rng):
    return rng.poisson(40.0, size=6_000).astype(float)


class TestPartitionVector:
    def test_coordinate_partition_sums_to_global(self, global_vector):
        locals_ = partition_vector(global_vector, 5, seed=1, by="coordinates")
        assert len(locals_) == 5
        np.testing.assert_allclose(sum(locals_), global_vector)

    def test_item_partition_sums_to_global(self, global_vector):
        locals_ = partition_vector(global_vector, 3, seed=2, by="items")
        np.testing.assert_allclose(sum(locals_), global_vector)
        # item partitioning spreads each coordinate's mass across sites
        assert all(np.all(local >= 0) for local in locals_)

    def test_item_partition_rejects_real_valued_vectors(self):
        with pytest.raises(ValueError, match="integer"):
            partition_vector(np.array([1.5, 2.0]), 2, by="items")

    def test_unknown_scheme_rejected(self, global_vector):
        with pytest.raises(ValueError):
            partition_vector(global_vector, 2, by="bogus")


class TestDistributedProtocol:
    def _config(self, dimension, name="l2_sr"):
        return SketchConfig(name, dimension=dimension, width=256, depth=5,
                            seed=77)

    def test_merged_sketch_equals_centralised_sketch(self, global_vector):
        n = global_vector.size
        locals_ = partition_vector(global_vector, 4, seed=3, by="coordinates")
        sites = [
            Site(f"site-{i}", self._config(n)).observe_vector(local)
            for i, local in enumerate(locals_)
        ]
        coordinator = Coordinator().collect_all(sites)
        centralised = L2BiasAwareSketch(n, 256, 5, seed=77).fit(global_vector)
        np.testing.assert_allclose(coordinator.recover(), centralised.recover())

    def test_streaming_sites_match_vector_sites(self, global_vector):
        n = global_vector.size
        locals_ = partition_vector(global_vector, 2, seed=4, by="coordinates")
        vector_site = Site("v", self._config(n)).observe_vector(locals_[0])
        stream_site = Site("s", self._config(n)).observe_stream(
            stream_from_vector(locals_[0])
        )
        np.testing.assert_allclose(
            vector_site.sketch.recover(), stream_site.sketch.recover()
        )

    def test_batched_site_ingestion_matches_scalar(self, global_vector):
        n = global_vector.size
        locals_ = partition_vector(global_vector, 2, seed=4, by="coordinates")
        stream = stream_from_vector(locals_[0])
        scalar_site = Site("s", self._config(n)).observe_stream(stream)
        batched_site = Site("b", self._config(n)).observe_stream(
            stream, batch_size=512
        )
        np.testing.assert_allclose(
            scalar_site.sketch.recover(), batched_site.sketch.recover()
        )

    def test_observe_batch_matches_observe_updates(self, global_vector):
        n = global_vector.size
        indices = np.array([5, 17, 5, 99], dtype=np.int64)
        deltas = np.array([2.0, 1.0, 3.0, 4.0])
        scalar_site = Site("s", self._config(n))
        for index, delta in zip(indices, deltas):
            scalar_site.observe_update(int(index), float(delta))
        batched_site = Site("b", self._config(n)).observe_batch(indices, deltas)
        np.testing.assert_array_equal(
            scalar_site.sketch.table, batched_site.sketch.table
        )

    def test_communication_is_sites_times_sketch_size(self, global_vector):
        n = global_vector.size
        locals_ = partition_vector(global_vector, 6, seed=5, by="coordinates")
        sites = [
            Site(f"site-{i}", self._config(n)).observe_vector(local)
            for i, local in enumerate(locals_)
        ]
        coordinator = Coordinator().collect_all(sites)
        per_site_words = sites[0].sketch.size_in_words()
        assert coordinator.total_communication_words == 6 * per_site_words
        # far below shipping the raw vectors
        assert coordinator.total_communication_words < 6 * n

    def test_point_query_on_global_vector(self, global_vector):
        n = global_vector.size
        locals_ = partition_vector(global_vector, 3, seed=6, by="coordinates")
        sites = [
            Site(f"site-{i}", self._config(n, "l1_sr")).observe_vector(local)
            for i, local in enumerate(locals_)
        ]
        coordinator = Coordinator().collect_all(sites)
        index = 7
        assert coordinator.query(index) == pytest.approx(
            global_vector[index], abs=40.0
        )

    def test_non_linear_sketch_rejected_at_site(self, global_vector):
        n = global_vector.size
        site = Site("bad", SketchConfig("count_min_cu", dimension=n, width=64,
                                        depth=5, seed=1))
        with pytest.raises(TypeError, match="non-linear"):
            site.observe_vector(global_vector)

    def test_coordinator_requires_at_least_one_site(self):
        with pytest.raises(RuntimeError):
            Coordinator().recover()

    def test_sites_collected_order(self, global_vector):
        n = global_vector.size
        locals_ = partition_vector(global_vector, 2, seed=8, by="coordinates")
        sites = [
            Site(f"site-{i}", self._config(n)).observe_vector(local)
            for i, local in enumerate(locals_)
        ]
        coordinator = Coordinator().collect_all(sites)
        assert coordinator.sites_collected == ["site-0", "site-1"]

    def test_mixing_incompatible_sketch_seeds_fails(self, global_vector):
        n = global_vector.size
        a = Site("a", SketchConfig("count_sketch", dimension=n, width=64,
                                   depth=5, seed=1)).observe_vector(global_vector)
        b = Site("b", SketchConfig("count_sketch", dimension=n, width=64,
                                   depth=5, seed=2)).observe_vector(global_vector)
        coordinator = Coordinator().collect(a)
        with pytest.raises(ValueError):
            coordinator.collect(b)

    def test_empty_site_name_rejected(self):
        with pytest.raises(ValueError):
            Site("", SketchConfig("count_sketch", dimension=10, width=4,
                                  depth=2, seed=1))
