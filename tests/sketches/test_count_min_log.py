"""Unit tests for Count-Min-Log with conservative update (CML-CU)."""

import numpy as np
import pytest

from repro.sketches import CountMinLogCU
from repro.sketches.count_min_log import PAPER_BASE


class TestLogCounterArithmetic:
    def test_counter_value_roundtrip(self):
        sketch = CountMinLogCU(10, 8, 2, base=1.1, seed=0)
        for value in [0.0, 1.0, 10.0, 1_000.0, 123_456.0]:
            counter = sketch.value_to_counter(value)
            assert sketch.counter_to_value(counter) == pytest.approx(value, rel=1e-9)

    def test_counter_zero_means_value_zero(self):
        sketch = CountMinLogCU(10, 8, 2, seed=0)
        assert sketch.counter_to_value(0.0) == 0.0
        assert sketch.value_to_counter(0.0) == 0.0

    def test_paper_base_constant(self):
        assert PAPER_BASE == pytest.approx(1.00025)
        sketch = CountMinLogCU(10, 8, 2, seed=0)
        assert sketch.base == pytest.approx(PAPER_BASE)

    def test_rejects_base_at_most_one(self):
        with pytest.raises(ValueError):
            CountMinLogCU(10, 8, 2, base=1.0, seed=0)

    def test_rejects_negative_value_encoding(self):
        sketch = CountMinLogCU(10, 8, 2, seed=0)
        with pytest.raises(ValueError):
            sketch.value_to_counter(-1.0)

    def test_batch_decodes_a_counter_exactly_as_query(self):
        """(base^5 - 1)/(base - 1) through np.power read 5.002500625077672.

        The subtraction magnifies np.power's last-ulp rounding, so a batched
        answer used to differ from the scalar one for the same key.
        """
        state = CountMinLogCU(100, 16, 3, seed=1).state_dict()
        state["arrays"]["table"][:] = 5.0
        sketch = CountMinLogCU.from_state(state)
        assert sketch.query(3) == 5.00250062507856
        assert sketch.query_batch([3, 4]).tolist() == [5.00250062507856] * 2


class TestCountMinLogEstimation:
    def test_estimates_close_to_truth_with_paper_base(self, rng):
        """With base 1.00025 the log counters are nearly linear counters.

        At a generous width (few collisions per bucket) the conservative-update
        estimates sit close to the true counts.
        """
        vector = rng.poisson(50.0, size=500).astype(float)
        sketch = CountMinLogCU(500, 512, 5, seed=3).fit(vector)
        relative_errors = np.abs(sketch.recover() - vector) / np.maximum(vector, 1.0)
        assert np.median(relative_errors) < 0.25

    def test_tracks_count_min_cu_with_paper_base(self, rng):
        """With base 1.00025 CML-CU behaves like CM-CU up to log-counter noise."""
        from repro.sketches import CountMinCU

        vector = rng.poisson(50.0, size=500).astype(float)
        cml = CountMinLogCU(500, 128, 5, seed=3).fit(vector)
        cmcu = CountMinCU(500, 128, 5, seed=3).fit(vector)
        cml_error = np.mean(np.abs(cml.recover() - vector))
        cmcu_error = np.mean(np.abs(cmcu.recover() - vector))
        assert cml_error == pytest.approx(cmcu_error, rel=0.5)

    def test_larger_base_gives_coarser_estimates(self, rng):
        vector = rng.poisson(100.0, size=400).astype(float)
        fine = CountMinLogCU(400, 256, 5, base=1.00025, seed=1).fit(vector)
        coarse = CountMinLogCU(400, 256, 5, base=2.0, seed=1).fit(vector)
        fine_error = np.mean(np.abs(fine.recover() - vector))
        coarse_error = np.mean(np.abs(coarse.recover() - vector))
        assert fine_error < coarse_error

    def test_counters_are_much_smaller_than_counts_with_large_base(self):
        """The point of log counters: counter magnitude ≈ log_base(count)."""
        sketch = CountMinLogCU(10, 8, 2, base=2.0, seed=0)
        for _ in range(1_000):
            sketch.update(3, 1.0)
        max_counter = float(np.max(sketch.table))
        # the represented value has high variance (that is the price of log
        # counters) but the counter itself stays logarithmic in the count
        assert max_counter <= 20.0

    def test_rejects_negative_updates_and_vectors(self):
        sketch = CountMinLogCU(20, 8, 2, seed=0)
        with pytest.raises(ValueError):
            sketch.update(0, -1.0)
        with pytest.raises(ValueError):
            sketch.fit(np.array([-1.0] + [0.0] * 19))

    def test_merge_raises_type_error(self):
        from repro.api.errors import CapabilityError

        a = CountMinLogCU(20, 8, 2, seed=0)
        b = CountMinLogCU(20, 8, 2, seed=0)
        with pytest.raises(TypeError, match="not linear"):
            a.merge(b)
        # the typed taxonomy: a CapabilityError subclassing TypeError
        with pytest.raises(CapabilityError, match="CountMin"):
            a.merge(b)

    def test_zero_delta_is_a_noop(self):
        sketch = CountMinLogCU(20, 8, 2, seed=0)
        sketch.update(1, 4.0)
        before = sketch.table.copy()
        sketch.update(1, 0.0)
        np.testing.assert_array_equal(sketch.table, before)
