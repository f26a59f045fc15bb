"""Integration tests checking the paper's headline experimental claims.

These tests run the same harness as the benchmarks on scaled-down workloads
and assert the *qualitative* outcomes the paper reports (who wins, by roughly
what factor) — the reproduction criteria recorded in EXPERIMENTS.md.
"""

import pytest

from repro.data.registry import load_dataset
from repro.data.synthetic import gaussian2_dataset, gaussian_dataset
from repro.eval.harness import evaluate_algorithms
from repro.sketches.registry import mean_heuristic_suite


class TestGaussianClaims:
    """Figure 1: on biased Gaussian data the bias-aware sketches win by a lot."""

    @pytest.fixture(scope="class")
    def table(self):
        dataset = gaussian_dataset(dimension=30_000, bias=100.0, sigma=15.0, seed=1)
        return evaluate_algorithms(dataset, width=512, depth=9, seed=7)

    def _error(self, table, algorithm):
        return table.filter(algorithm=algorithm).rows[0].average_error

    def test_bias_aware_beats_count_sketch_by_a_wide_margin(self, table):
        assert self._error(table, "l2_sr") < self._error(table, "count_sketch") / 3.0
        assert self._error(table, "l1_sr") < self._error(table, "count_sketch") / 3.0

    def test_bias_aware_beats_count_min_family(self, table):
        for baseline in ("count_median", "count_min_cu", "count_min_log_cu"):
            assert self._error(table, "l2_sr") < self._error(table, baseline) / 5.0

    def test_count_median_is_the_worst_baseline(self, table):
        cm_error = self._error(table, "count_median")
        for other in ("count_sketch", "count_min_cu", "count_min_log_cu"):
            assert cm_error > self._error(table, other)

    def test_errors_insensitive_to_bias_value(self):
        """Figure 1c-1d: raising b from 100 to 500 leaves ℓ-S/R errors flat."""
        low = gaussian_dataset(dimension=20_000, bias=100.0, sigma=15.0, seed=2)
        high = gaussian_dataset(dimension=20_000, bias=500.0, sigma=15.0, seed=2)
        ours_low = evaluate_algorithms(low, algorithms=["l2_sr"], width=256,
                                       depth=9, seed=3).rows[0].average_error
        ours_high = evaluate_algorithms(high, algorithms=["l2_sr"], width=256,
                                        depth=9, seed=3).rows[0].average_error
        baseline_low = evaluate_algorithms(low, algorithms=["count_sketch"],
                                           width=256, depth=9, seed=3
                                           ).rows[0].average_error
        baseline_high = evaluate_algorithms(high, algorithms=["count_sketch"],
                                            width=256, depth=9, seed=3
                                            ).rows[0].average_error
        assert ours_high == pytest.approx(ours_low, rel=0.5)
        assert baseline_high > 2.0 * baseline_low


class TestMeanHeuristicClaims:
    """Figure 8: mean heuristics match ℓ-S/R on clean data, break when shifted."""

    def test_clean_gaussian2(self):
        dataset = gaussian2_dataset(dimension=20_000, shifted_entries=0, seed=4)
        table = evaluate_algorithms(
            dataset, algorithms=mean_heuristic_suite(), width=256, depth=9, seed=5
        )
        errors = {row.algorithm: row.average_error for row in table}
        assert errors["l2_mean"] == pytest.approx(errors["l2_sr"], rel=1.0)

    def test_shifted_gaussian2(self):
        # the number of shifted entries stays below s/4 so they fit in the
        # head the bias-aware sketches are allowed to ignore (the paper keeps
        # 500 shifted entries against sketch widths of 10^4 and more)
        dataset = gaussian2_dataset(dimension=20_000, shifted_entries=25,
                                    shift=100_000.0, seed=6)
        table = evaluate_algorithms(
            dataset, algorithms=mean_heuristic_suite(), width=256, depth=9, seed=7
        )
        errors = {row.algorithm: row.average_error for row in table}
        assert errors["l1_mean"] > 3.0 * errors["l1_sr"]
        assert errors["l2_mean"] > 3.0 * errors["l2_sr"]


class TestRealDatasetSubstituteClaims:
    """Figures 2-5 (shape only): ℓ2-S/R is the best or tied-best algorithm."""

    @pytest.mark.parametrize("name", ["wiki", "worldcup", "higgs", "meme"])
    def test_l2_sr_is_best_or_close(self, name):
        dataset = load_dataset(name, seed=11, dimension=20_000)
        table = evaluate_algorithms(dataset, width=256, depth=9, seed=13)
        errors = {row.algorithm: row.average_error for row in table}
        best = min(errors.values())
        # ℓ2-S/R wins outright or sits within 25% of the best (the paper's
        # WorldCup plot has CS and ℓ1-S/R very close to it)
        assert errors["l2_sr"] <= 1.25 * best

    def test_wiki_substitute_shows_order_of_magnitude_gap(self):
        """Figure 2: on the strongly biased Wiki workload ℓ2-S/R wins ~10×."""
        dataset = load_dataset("wiki", seed=17, dimension=20_000)
        table = evaluate_algorithms(dataset, width=256, depth=9, seed=19)
        errors = {row.algorithm: row.average_error for row in table}
        assert errors["l2_sr"] < errors["count_median"] / 5.0
        assert errors["l2_sr"] < errors["count_min_cu"] / 5.0
