"""Unit tests for the capability-aware sketch registry."""

import pytest

from repro.api import SketchConfig
from repro.sketches.registry import (
    QUERY_KINDS,
    available_sketches,
    get_spec,
    mean_heuristic_suite,
    paper_reference_suite,
    register_sketch,
    unregister_sketch,
)


class TestRegistryLookup:
    def test_paper_suite_contains_six_algorithms(self):
        suite = paper_reference_suite()
        assert suite == [
            "l1_sr",
            "l2_sr",
            "count_sketch",
            "count_median",
            "count_min_cu",
            "count_min_log_cu",
        ]

    def test_mean_heuristic_suite(self):
        assert mean_heuristic_suite() == ["l1_sr", "l2_sr", "l1_mean", "l2_mean"]

    def test_all_registered_names_buildable(self):
        for name in available_sketches():
            sketch = SketchConfig(name, dimension=50, width=8,
                                  depth=2, seed=1).build()
            assert sketch.dimension == 50

    def test_bias_aware_flag(self):
        assert get_spec("l2_sr").bias_aware is True
        assert get_spec("count_sketch").bias_aware is False

    def test_linearity_flag_matches_merge_behaviour(self):
        assert get_spec("count_min_cu").linear is False
        assert get_spec("l1_sr").linear is True

    def test_unknown_name_raises_keyerror_with_suggestions(self):
        with pytest.raises(KeyError, match="available"):
            get_spec("no_such_sketch")

    def test_baselines_listed_before_bias_aware(self):
        names = available_sketches()
        first_bias_aware = min(
            i for i, name in enumerate(names) if get_spec(name).bias_aware
        )
        last_baseline = max(
            i for i, name in enumerate(names) if not get_spec(name).bias_aware
        )
        assert last_baseline < first_bias_aware

    def test_exclude_bias_aware(self):
        names = available_sketches(include_bias_aware=False)
        assert names
        assert all(not get_spec(name).bias_aware for name in names)


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_sketch(
                "count_sketch",
                "duplicate",
                lambda n, s, d, seed: None,
                linear=True,
            )

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_sketch("", "label", lambda n, s, d, seed: None, linear=True)

    def test_unknown_query_kind_rejected(self):
        with pytest.raises(ValueError, match="query kinds"):
            register_sketch(
                "bogus_queries_test",
                "label",
                lambda n, s, d, seed: None,
                linear=True,
                queries=frozenset({"point", "telepathy"}),
            )

    def test_unregister(self):
        register_sketch(
            "ephemeral_test", "label", lambda n, s, d, seed: None, linear=True
        )
        assert "ephemeral_test" in available_sketches()
        unregister_sketch("ephemeral_test")
        assert "ephemeral_test" not in available_sketches()


class TestCapabilityMetadata:
    def test_default_capabilities(self):
        spec = get_spec("count_sketch")
        assert spec.streaming is True
        assert spec.queries == frozenset(QUERY_KINDS)
        assert spec.supported_queries() == list(QUERY_KINDS)
        assert spec.kwargs_schema == {}

    def test_declared_kwargs_schemas(self):
        assert get_spec("l2_sr").kwargs_schema == {"head_size": int}
        assert get_spec("l1_sr").kwargs_schema == {"bias_samples": int}
        assert get_spec("count_min_log_cu").kwargs_schema == {"base": float}

    def test_supports_query(self):
        spec = get_spec("l1_sr")
        assert spec.supports_query("range")
        assert not spec.supports_query("telepathy")

    def test_build_validates_kwargs(self):
        spec = get_spec("l2_sr")
        sketch = spec.build(100, 16, 3, seed=1, head_size=4)
        assert sketch.head_size == 4
        with pytest.raises(ValueError, match="does not accept"):
            spec.build(100, 16, 3, seed=1, bogus=1)
        with pytest.raises(TypeError, match="head_size"):
            spec.build(100, 16, 3, seed=1, head_size="four")

    def test_describe_is_plain_data(self):
        description = get_spec("count_min_log_cu").describe()
        assert description["name"] == "count_min_log_cu"
        assert description["linear"] is False
        assert description["queries"] == list(QUERY_KINDS)
        assert description["kwargs"] == {"base": "float"}


class TestDeterministicListings:
    def test_available_sketches_is_stable_and_grouped(self):
        names = available_sketches()
        baselines = [n for n in names if not get_spec(n).bias_aware]
        bias_aware = [n for n in names if get_spec(n).bias_aware]
        assert names == sorted(baselines) + sorted(bias_aware)
        assert names == available_sketches()  # idempotent

    def test_available_datasets_sorted(self):
        from repro.data.registry import available_datasets

        names = available_datasets()
        assert names == sorted(names)

    def test_available_experiments_sorted(self):
        from repro.eval.experiments import available_experiments

        names = available_experiments()
        assert names == sorted(names)
        assert names  # non-empty

    def test_registered_serialization_kinds_sorted(self):
        from repro.serialization import registered_kinds

        names = registered_kinds()
        assert names == sorted(names)


class TestExactBatchCapability:
    def test_linear_kinds_are_exact_batchable_by_default(self):
        for name in available_sketches():
            spec = get_spec(name)
            if spec.linear:
                assert spec.exact_batch, name

    def test_cu_kinds_are_exact_batchable_without_linearity(self):
        for name in ("count_min_cu", "count_min_log_cu"):
            spec = get_spec(name)
            assert spec.exact_batch and not spec.linear, name

    def test_describe_reports_exact_batch(self):
        assert get_spec("count_min_cu").describe()["exact_batch"] is True
        assert get_spec("count_min").describe()["exact_batch"] is True
