"""Tests for the byte-accurate distributed protocol.

The coordinator must reconstruct every site sketch from its serialized
payload alone (no shared Python objects), account both declared words and
true bytes, and flag sketches whose ``size_in_words()`` disagrees with their
encoded state.
"""

import numpy as np
import pytest

from repro.api import SketchConfig
from repro.distributed import CommunicationLog, Coordinator, Site, partition_vector
from repro.serialization import register_serializable
from repro.sketches import CountMin

DIMENSION = 2_000
WIDTH = 128
DEPTH = 5
SEED = 31


def make_sites(global_vector, count, config):
    locals_ = partition_vector(global_vector, count, seed=8, by="coordinates")
    return [
        Site(f"site-{i}", config).observe_vector(local)
        for i, local in enumerate(locals_)
    ]


@pytest.fixture
def global_vector(rng):
    return np.round(rng.normal(60.0, 9.0, size=DIMENSION))


class TestBytesOnTheWire:
    def test_ship_state_returns_wire_payload(self, global_vector):
        site = Site("a", SketchConfig("count_sketch", dimension=DIMENSION,
                                      width=WIDTH, depth=DEPTH, seed=SEED))
        site.observe_vector(global_vector)
        payload = site.ship_state()
        assert isinstance(payload, bytes)
        assert payload == site.local_sketch().to_bytes()

    def test_coordinator_state_is_independent_of_sites(self, global_vector):
        sites = make_sites(
            global_vector, 2,
            SketchConfig("count_sketch", dimension=DIMENSION, width=WIDTH,
                         depth=DEPTH, seed=SEED),
        )
        coordinator = Coordinator().collect_all(sites)
        before = coordinator.recover().copy()
        # mutating a site after collection must not affect the coordinator
        sites[0].sketch.update(0, 1_000_000.0)
        np.testing.assert_array_equal(coordinator.recover(), before)

    def test_receive_accepts_a_raw_payload(self, global_vector):
        sketch = CountMin(DIMENSION, WIDTH, DEPTH, seed=SEED)
        sketch.fit(np.abs(global_vector))
        coordinator = Coordinator().receive("remote", sketch.to_bytes())
        np.testing.assert_array_equal(
            coordinator.recover(), sketch.recover()
        )
        assert coordinator.sites_collected == ["remote"]

    def test_merged_protocol_equals_centralised(self, global_vector):
        config = SketchConfig("l1_sr", dimension=DIMENSION, width=WIDTH,
                              depth=DEPTH, seed=SEED)
        sites = make_sites(global_vector, 4, config)
        coordinator = Coordinator().collect_all(sites)
        centralised = config.build().fit(global_vector)
        np.testing.assert_allclose(
            coordinator.recover(), centralised.recover()
        )

    def test_non_linear_payload_rejected(self, global_vector):
        from repro.sketches import CountMinCU

        sketch = CountMinCU(DIMENSION, WIDTH, DEPTH, seed=SEED)
        sketch.fit(np.abs(global_vector))
        with pytest.raises(TypeError, match="non-linear"):
            Coordinator().receive("bad", sketch.to_bytes())

    def test_unseeded_site_cannot_ship(self, global_vector):
        site = Site("u", SketchConfig("count_sketch", dimension=DIMENSION,
                                      width=WIDTH, depth=DEPTH, seed=None))
        site.observe_vector(global_vector)
        with pytest.raises(ValueError, match="seed"):
            site.ship_state()


class TestDualAccounting:
    def test_words_and_bytes_recorded_per_message(self, global_vector):
        sites = make_sites(
            global_vector, 3,
            SketchConfig("count_sketch", dimension=DIMENSION, width=WIDTH,
                         depth=DEPTH, seed=SEED),
        )
        coordinator = Coordinator().collect_all(sites)
        per_site_words = WIDTH * DEPTH
        assert coordinator.total_communication_words == 3 * per_site_words
        assert coordinator.total_communication_bytes == sum(
            len(site.ship_state()) for site in sites
        )
        for message in coordinator.log.messages:
            assert message.payload_bytes > 8 * message.payload_words
            assert message.measured_words == message.payload_words
            assert message.words_consistent is True

    def test_bytes_by_sender(self, global_vector):
        sites = make_sites(
            global_vector, 2,
            SketchConfig("count_min", dimension=DIMENSION, width=WIDTH,
                         depth=DEPTH, seed=SEED),
        )
        coordinator = Coordinator().collect_all(sites)
        totals = coordinator.log.bytes_by_sender()
        assert set(totals) == {"site-0", "site-1"}
        assert all(total > 0 for total in totals.values())

    def test_honest_sketches_are_not_flagged(self, global_vector):
        sites = make_sites(
            global_vector, 3,
            SketchConfig("l1_sr", dimension=DIMENSION, width=WIDTH,
                         depth=DEPTH, seed=SEED),
        )
        coordinator = Coordinator().collect_all(sites)
        assert coordinator.log.inconsistent_messages() == []


class _UnderreportingCountMin(CountMin):
    """A sketch that lies about its word footprint (for the flagging test)."""

    name = "underreporting_count_min"

    def size_in_words(self):
        return super().size_in_words() - 7


register_serializable(_UnderreportingCountMin)


class TestMismatchFlagging:
    def test_disagreeing_sketch_is_flagged(self, global_vector):
        sketch = _UnderreportingCountMin(DIMENSION, WIDTH, DEPTH, seed=SEED)
        sketch.fit(np.abs(global_vector))
        coordinator = Coordinator().receive("liar", sketch.to_bytes())
        flagged = coordinator.log.inconsistent_messages()
        assert len(flagged) == 1
        assert flagged[0].sender == "liar"
        assert flagged[0].payload_words == WIDTH * DEPTH - 7
        assert flagged[0].measured_words == WIDTH * DEPTH
        assert flagged[0].words_consistent is False

    def test_log_level_flag_semantics(self):
        log = CommunicationLog()
        log.record("a", 100, payload_bytes=900, measured_words=100)
        log.record("b", 90, payload_bytes=900, measured_words=100)
        log.record("c", 50)  # no payload inspected
        assert [m.sender for m in log.inconsistent_messages()] == ["b"]
        assert log.messages[2].words_consistent is None
        assert log.total_bytes == 1_800
