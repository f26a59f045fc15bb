"""Distributed-model bench: communication and accuracy versus number of sites.

Section 5.5 of the paper notes that the distributed behaviour of the linear
sketches is fully predicted by the centralised results: the communication is
(number of sites) × (sketch size) and the merged sketch is identical to the
centralised one.  This bench verifies both on the simulated protocol and
times the site-sketch + coordinator-merge pipeline.
"""

import numpy as np
import pytest

from repro.api import SketchConfig
from repro.distributed import Coordinator, Site, partition_vector

DIMENSION = 50_000
WIDTH = 1_024
DEPTH = 9
SITE_COUNTS = (2, 4, 8)
CONFIG = SketchConfig("l2_sr", dimension=DIMENSION, width=WIDTH, depth=DEPTH,
                      seed=61)


@pytest.fixture(scope="module")
def global_vector():
    rng = np.random.default_rng(55)
    return np.round(rng.normal(300.0, 20.0, size=DIMENSION))


def _run_protocol(global_vector, sites):
    locals_ = partition_vector(global_vector, sites, seed=3, by="coordinates")
    site_objects = [
        Site(f"site-{i}", CONFIG).observe_vector(local)
        for i, local in enumerate(locals_)
    ]
    coordinator = Coordinator().collect_all(site_objects)
    return coordinator


def test_distributed_aggregation(benchmark, global_vector):
    centralised = CONFIG.build().fit(global_vector)
    reference = centralised.recover()
    per_site_words = centralised.size_in_words()

    print()
    print("  sites  communication(words)  communication(bytes)  "
          "max |distributed - centralised|")
    for sites in SITE_COUNTS:
        coordinator = _run_protocol(global_vector, sites)
        deviation = float(np.max(np.abs(coordinator.recover() - reference)))
        print(f"  {sites:5d}  {coordinator.total_communication_words:20d}  "
              f"{coordinator.total_communication_bytes:20d}  "
              f"{deviation:12.3e}")
        # the merged sketch is exactly the centralised one (linearity)
        assert deviation < 1e-6
        # the communication is sites × sketch size, far below shipping vectors
        assert coordinator.total_communication_words == sites * per_site_words
        assert coordinator.total_communication_words < sites * DIMENSION
        # the byte accounting reflects real payloads: 8 bytes per state word
        # plus a bounded header, and no sketch mis-declares its size
        assert coordinator.total_communication_bytes > 8 * sites * per_site_words
        assert coordinator.log.inconsistent_messages() == []

    benchmark(_run_protocol, global_vector, 4)
