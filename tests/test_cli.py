"""Unit tests for the command-line interface."""

import io

import numpy as np
import pytest

from repro.cli import main


def run_cli(*argv):
    buffer = io.StringIO()
    exit_code = main(list(argv), out=buffer)
    return exit_code, buffer.getvalue()


class TestVersionFlag:
    def test_version_prints_package_version_and_exits_zero(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        captured = capsys.readouterr()
        assert __version__ in captured.out
        assert "repro" in captured.out


class TestScientificNotationGeometry:
    """Geometry flags accept scientific notation (`--dimension 1e8`)."""

    def test_dimension_and_width_in_scientific_notation(self):
        code, output = run_cli(
            "sketch", "fit", "--dataset", "gaussian", "--dimension", "2e3",
            "--width", "1.28e2", "--depth", "4", "--algorithm", "count_min",
        )
        assert code == 0
        assert "n = 2000" in output

    def test_datasets_accepts_scientific_dimension(self):
        code, output = run_cli("dataset", "list", "--dimension", "2e3",
                               "--head-size", "1e2")
        assert code == 0
        assert "dataset" in output

    def test_non_integral_value_is_one_line_error(self):
        code, output = run_cli(
            "sketch", "fit", "--dataset", "gaussian", "--dimension", "1.5e-3",
            "--width", "64", "--depth", "3",
        )
        assert code == 2
        assert output.startswith("error:")
        assert len(output.strip().splitlines()) == 1
        assert "whole number" in output

    def test_garbage_value_is_one_line_error(self):
        code, output = run_cli(
            "sketch", "fit", "--dataset", "gaussian", "--dimension", "huge",
            "--width", "64", "--depth", "3",
        )
        assert code == 2
        assert output.startswith("error:")
        assert len(output.strip().splitlines()) == 1
        assert "scientific notation" in output


class TestErrorPaths:
    """User errors exit non-zero with a one-line actionable message."""

    def assert_one_line_error(self, code, output, *needles):
        assert code == 2
        assert output.startswith("error:")
        assert len(output.strip().splitlines()) == 1
        assert "Traceback" not in output
        for needle in needles:
            assert needle in output

    def test_unknown_sketch_name(self):
        code, output = run_cli(
            "sketch", "fit", "--dataset", "gaussian", "--dimension", "1000",
            "--width", "64", "--depth", "3", "--algorithm", "no_such_sketch",
        )
        self.assert_one_line_error(code, output, "no_such_sketch", "available")

    def test_invalid_width(self):
        code, output = run_cli(
            "sketch", "fit", "--dataset", "gaussian", "--dimension", "1000",
            "--width", "-64", "--depth", "3",
        )
        self.assert_one_line_error(code, output, "width", "positive")

    def test_invalid_depth(self):
        code, output = run_cli(
            "sketch", "fit", "--dataset", "gaussian", "--dimension", "1000",
            "--width", "64", "--depth", "0",
        )
        self.assert_one_line_error(code, output, "depth", "positive")

    def test_missing_dataset(self):
        code, output = run_cli(
            "sketch", "fit", "--dataset", "no_such_dataset", "--dimension", "1000",
            "--width", "64", "--depth", "3",
        )
        self.assert_one_line_error(code, output, "no_such_dataset", "available")

    def test_missing_dataset_on_save(self, tmp_path):
        code, output = run_cli(
            "sketch", "save", "--dataset", "no_such_dataset", "--output",
            str(tmp_path / "x.sketch"),
        )
        self.assert_one_line_error(code, output, "no_such_dataset", "available")

    def test_load_missing_file(self, tmp_path):
        code, output = run_cli("sketch", "load", str(tmp_path / "missing.sketch"))
        self.assert_one_line_error(code, output, "missing.sketch")

    def test_load_corrupt_payload(self, tmp_path):
        path = tmp_path / "corrupt.sketch"
        path.write_bytes(b"this is not a sketch payload")
        code, output = run_cli("sketch", "load", str(path))
        self.assert_one_line_error(code, output)

    def test_serve_config_with_wrong_typed_field(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text('{"algorithm": "count_min", "dimension": 100, '
                        '"seed": 1, "shards": "2"}')
        code, output = run_cli("serve", "--config", str(path))
        self.assert_one_line_error(code, output, "shards")


class TestDatasetsCommand:
    def test_lists_all_datasets_with_bias_gain(self):
        code, output = run_cli("dataset", "list", "--dimension", "2000",
                               "--head-size", "20")
        assert code == 0
        for name in ("gaussian", "wiki", "worldcup", "higgs", "meme"):
            assert name in output
        assert "bias gain" in output


class TestSketchCommand:
    def test_reports_accuracy_and_bias(self):
        code, output = run_cli(
            "sketch", "fit", "--dataset", "gaussian", "--dimension", "5000",
            "--width", "256", "--depth", "5", "--algorithm", "l2_sr",
        )
        assert code == 0
        assert "average error" in output
        assert "estimated bias" in output

    def test_list_algorithms(self):
        code, output = run_cli("sketch", "list")
        assert code == 0
        assert "l2_sr" in output
        assert "count_min_cu" in output

    def test_baseline_without_bias_estimate(self):
        code, output = run_cli(
            "sketch", "fit", "--dataset", "zipf", "--dimension", "2000",
            "--width", "128", "--depth", "4", "--algorithm", "count_min",
        )
        assert code == 0
        assert "estimated bias" not in output

    def test_sharded_ingestion_flag(self):
        code, output = run_cli(
            "sketch", "fit", "--dataset", "gaussian", "--dimension", "2000",
            "--width", "128", "--depth", "4", "--algorithm", "count_sketch",
            "--shards", "3",
        )
        assert code == 0
        assert "sharded (3 shards)" in output
        assert "average error" in output

    def test_sharding_a_non_linear_sketch_fails(self):
        code, output = run_cli(
            "sketch", "fit", "--dataset", "gaussian", "--dimension", "2000",
            "--width", "128", "--depth", "4", "--algorithm", "count_min_cu",
            "--shards", "2",
        )
        assert code == 2
        assert "not a linear sketch" in output


class TestSaveLoadCommands:
    def _save(self, tmp_path, algorithm="l2_sr", extra=()):
        path = tmp_path / "state.sketch"
        code, output = run_cli(
            "sketch", "save", "--dataset", "gaussian", "--dimension", "2000",
            "--width", "128", "--depth", "4", "--seed", "3",
            "--algorithm", algorithm, "--output", str(path), *extra,
        )
        return code, output, path

    def test_save_writes_a_wire_payload(self, tmp_path):
        code, output, path = self._save(tmp_path)
        assert code == 0
        assert "saved" in output
        data = path.read_bytes()
        assert data[:4] == b"RPSK"
        assert f"{len(data)} bytes" in output

    def test_load_reports_and_queries_the_saved_sketch(self, tmp_path):
        code, _, path = self._save(tmp_path)
        assert code == 0
        code, output = run_cli("sketch", "load", str(path), "--query", "0", "7")
        assert code == 0
        assert "kind             : l2_sr" in output
        assert "state_version 1" in output
        assert "query x[0]" in output
        assert "query x[7]" in output

    def test_save_load_round_trip_matches_in_process_sketch(self, tmp_path):
        from repro import serialization
        from repro.core import L2BiasAwareSketch
        from repro.data import load_dataset

        code, _, path = self._save(tmp_path)
        assert code == 0
        restored = serialization.sketch_from_bytes(path.read_bytes())
        dataset = load_dataset("gaussian", seed=3, dimension=2000)
        direct = L2BiasAwareSketch(2000, 128, 4, seed=3).fit(dataset.vector)
        np.testing.assert_array_equal(restored.recover(), direct.recover())

    def test_save_with_shards(self, tmp_path):
        code, output, path = self._save(
            tmp_path, algorithm="count_sketch", extra=("--shards", "2")
        )
        assert code == 0
        assert path.exists()


class TestWindowFlags:
    """``--window``/``--pane`` happy paths and exit-2 error paths."""

    BASE = ("sketch", "fit", "--dataset", "gaussian", "--dimension", "2000",
            "--width", "128", "--depth", "5", "--algorithm", "count_sketch")

    def assert_one_line_error(self, code, output, *needles):
        assert code == 2
        assert output.startswith("error:")
        assert len(output.strip().splitlines()) == 1
        assert "Traceback" not in output
        for needle in needles:
            assert needle in output

    def test_sliding_window_reports_fill_and_in_window_errors(self):
        code, output = run_cli(*self.BASE, "--window", "sliding:4",
                               "--pane", "300")
        assert code == 0
        assert "window           : sliding (4 pane(s) x 300 updates)" in output
        assert "updates in window" in output
        assert "window avg error" in output

    def test_tumbling_window_happy_path(self):
        code, output = run_cli(*self.BASE, "--window", "tumbling",
                               "--pane", "500")
        assert code == 0
        assert "tumbling" in output

    def test_decay_window_reports_no_error_metrics(self):
        code, output = run_cli(*self.BASE, "--window", "decay:0.9",
                               "--pane", "500")
        assert code == 0
        assert "decay" in output
        assert "n/a for decay windows" in output

    def test_pane_accepts_scientific_notation(self):
        code, output = run_cli(*self.BASE, "--window", "sliding:4",
                               "--pane", "3e2")
        assert code == 0
        assert "x 300 updates" in output

    def test_windowed_save_load_round_trip(self, tmp_path):
        path = tmp_path / "windowed.sketch"
        code, output = run_cli(
            "sketch", "save", "--dataset", "gaussian", "--dimension", "2000",
            "--width", "128", "--depth", "5", "--algorithm", "count_sketch",
            "--window", "sliding:4", "--pane", "300", "--output", str(path),
        )
        assert code == 0
        assert path.exists()
        code, output = run_cli("sketch", "load", str(path), "--query", "0", "1")
        assert code == 0
        assert "windowed count_sketch" in output
        assert "sliding (4 pane(s) x 300 updates)" in output
        assert "query x[0]" in output

    def test_window_without_pane(self):
        code, output = run_cli(*self.BASE, "--window", "sliding:4")
        self.assert_one_line_error(code, output, "--window requires --pane")

    def test_pane_without_window(self):
        code, output = run_cli(*self.BASE, "--pane", "300")
        self.assert_one_line_error(code, output, "--pane requires --window")

    def test_sliding_without_pane_count(self):
        code, output = run_cli(*self.BASE, "--window", "sliding",
                               "--pane", "300")
        self.assert_one_line_error(code, output, "pane count", "sliding:16")

    def test_unknown_window_mode(self):
        code, output = run_cli(*self.BASE, "--window", "hopping:4",
                               "--pane", "300")
        self.assert_one_line_error(code, output, "hopping", "tumbling")

    def test_tumbling_rejects_an_argument(self):
        code, output = run_cli(*self.BASE, "--window", "tumbling:4",
                               "--pane", "300")
        self.assert_one_line_error(code, output, "no argument")

    def test_decay_without_factor(self):
        code, output = run_cli(*self.BASE, "--window", "decay",
                               "--pane", "300")
        self.assert_one_line_error(code, output, "factor")

    def test_decay_factor_out_of_range(self):
        code, output = run_cli(*self.BASE, "--window", "decay:1.5",
                               "--pane", "300")
        self.assert_one_line_error(code, output, "(0, 1)", "1.5")

    def test_decay_factor_garbage(self):
        code, output = run_cli(*self.BASE, "--window", "decay:hot",
                               "--pane", "300")
        self.assert_one_line_error(code, output, "hot")

    def test_non_positive_pane_size(self):
        code, output = run_cli(*self.BASE, "--window", "sliding:4",
                               "--pane", "0")
        self.assert_one_line_error(code, output, "pane_size")

    def test_garbage_pane_size(self):
        code, output = run_cli(*self.BASE, "--window", "sliding:4",
                               "--pane", "huge")
        self.assert_one_line_error(code, output, "pane", "scientific notation")

    def test_non_positive_pane_count(self):
        code, output = run_cli(*self.BASE, "--window", "sliding:0",
                               "--pane", "300")
        self.assert_one_line_error(code, output, "panes")

    def test_non_linear_sketch_cannot_be_windowed(self):
        code, output = run_cli(
            "sketch", "fit", "--dataset", "gaussian", "--dimension", "2000",
            "--width", "128", "--depth", "5", "--algorithm", "count_min_cu",
            "--window", "sliding:4", "--pane", "300",
        )
        self.assert_one_line_error(code, output, "count_min_cu",
                                   "pane-merge algebra")


class TestExperimentCommand:
    def test_list(self):
        code, output = run_cli("experiment", "list")
        assert code == 0
        assert "fig1_b100" in output
        assert "Figure 9" in output

    def test_unknown_experiment_exits_with_one_line_error(self):
        code, output = run_cli("experiment", "run", "fig99")
        assert code == 2
        assert output.startswith("error:")
        assert "fig99" in output
        assert "available" in output
        assert "Traceback" not in output

    def test_batch_size_flag_is_parsed(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["experiment", "run", "fig6", "--batch-size", "4096"]
        )
        assert args.batch_size == 4096
        default = _build_parser().parse_args(["experiment", "run", "fig6"])
        assert default.batch_size is None

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestNounVerbGrammar:
    """The noun-verb grammar is the only one the CLI parses."""

    def test_new_forms_emit_no_deprecation_warning(self):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, output = run_cli("sketch", "list")
            assert code == 0 and "l2_sr" in output
            code, output = run_cli("experiment", "list")
            assert code == 0 and "fig2" in output
            code, output = run_cli("dataset", "list", "--dimension", "2000")
            assert code == 0 and "bias gain" in output
        deprecations = [w for w in caught
                        if issubclass(w.category, DeprecationWarning)]
        assert deprecations == []


class TestStoreCommands:
    """The ``repro store`` noun: put/get/list/history/compact/delete."""

    FIT = ("--dataset", "gaussian", "--dimension", "1000",
           "--width", "64", "--depth", "4", "--seed", "3")
    WINDOWED = FIT + ("--algorithm", "count_sketch",
                      "--window", "sliding:4", "--pane", "150")

    def assert_one_line_error(self, code, output, *needles):
        assert code == 2
        assert output.startswith("error:")
        assert len(output.strip().splitlines()) == 1
        assert "Traceback" not in output
        for needle in needles:
            assert needle in output

    def test_put_prints_the_versioned_uri(self, tmp_path):
        db = tmp_path / "cat.db"
        code, output = run_cli("store", "put", str(db), "traffic", *self.FIT)
        assert code == 0
        assert f"store://{db}#traffic@1" in output
        code, output = run_cli("store", "put", str(db), "traffic", *self.FIT)
        assert code == 0
        assert f"store://{db}#traffic@2" in output

    def test_get_restores_across_processes_worth_of_state(self, tmp_path):
        db = tmp_path / "cat.db"
        run_cli("store", "put", str(db), "traffic", *self.FIT)
        code, output = run_cli("store", "get", str(db), "traffic",
                               "--query", "0", "7")
        assert code == 0
        assert f"store://{db}#traffic@1" in output
        assert "config           : l2_sr" in output
        assert "query x[0]" in output and "query x[7]" in output

    def test_get_output_flag_writes_the_exact_payload(self, tmp_path):
        db, out_path = tmp_path / "cat.db", tmp_path / "copy.sketch"
        run_cli("store", "put", str(db), "traffic", *self.FIT)
        code, output = run_cli("store", "get", str(db), "traffic",
                               "--output", str(out_path))
        assert code == 0
        from repro.store import SketchStore

        with SketchStore(db) as store:
            assert out_path.read_bytes() == store.get_payload("traffic")

    def test_put_input_flag_stores_an_existing_payload(self, tmp_path):
        db, path = tmp_path / "cat.db", tmp_path / "x.sketch"
        run_cli("sketch", "save", *self.FIT, "--output", str(path))
        code, output = run_cli("store", "put", str(db), "copied",
                               "--input", str(path))
        assert code == 0
        from repro.store import SketchStore

        with SketchStore(db) as store:
            assert store.get_payload("copied") == path.read_bytes()

    def test_sketch_save_and_load_accept_store_uris(self, tmp_path):
        db = tmp_path / "cat.db"
        uri = f"store://{db}#traffic"
        code, output = run_cli("sketch", "save", *self.FIT,
                               "--output", uri)
        assert code == 0
        assert f"{uri}@1" in output
        code, output = run_cli("sketch", "load", f"{uri}@1", "--query", "0")
        assert code == 0
        assert "query x[0]" in output

    def test_list_and_history_render_the_catalog(self, tmp_path):
        db = tmp_path / "cat.db"
        run_cli("store", "put", str(db), "traffic", *self.FIT)
        run_cli("store", "put", str(db), "win", *self.WINDOWED)
        run_cli("store", "put", str(db), "win", *self.WINDOWED)
        code, output = run_cli("store", "list", str(db))
        assert code == 0
        lines = output.strip().splitlines()
        assert lines[0].startswith("name")
        assert any(line.startswith("traffic") and " l2_sr " in line
                   for line in lines)
        assert any(line.startswith("win") and "count_sketch+w" in line
                   for line in lines)
        code, output = run_cli("store", "history", str(db), "win")
        assert code == 0
        rows = output.strip().splitlines()[1:]
        assert len(rows) == 2
        assert rows[0].lstrip().startswith("1")
        assert rows[1].lstrip().startswith("2")

    def test_compact_reports_and_preserves_restores(self, tmp_path):
        db = tmp_path / "cat.db"
        for _ in range(3):
            run_cli("store", "put", str(db), "win", *self.WINDOWED)
        from repro.store import SketchStore

        with SketchStore(db) as store:
            payloads = {version: store.get("win", version).recover()
                        for version in (1, 2, 3)}
        code, output = run_cli("store", "compact", str(db), "win",
                               "--include-latest")
        assert code == 0
        assert "compacted        : 3 of 3" in output
        assert "saved" in output
        with SketchStore(db) as store:
            for version, recovered in payloads.items():
                np.testing.assert_array_equal(
                    store.get("win", version).recover(), recovered
                )

    def test_delete_removes_a_version_then_the_name(self, tmp_path):
        db = tmp_path / "cat.db"
        run_cli("store", "put", str(db), "traffic", *self.FIT)
        run_cli("store", "put", str(db), "traffic", *self.FIT)
        code, output = run_cli("store", "delete", str(db), "traffic",
                               "--version", "1")
        assert code == 0
        assert "traffic@1" in output
        code, output = run_cli("store", "delete", str(db), "traffic")
        assert code == 0
        code, output = run_cli("store", "list", str(db))
        assert "(empty store)" in output

    def test_get_unknown_name_is_a_one_line_error(self, tmp_path):
        db = tmp_path / "cat.db"
        run_cli("store", "put", str(db), "traffic", *self.FIT)
        code, output = run_cli("store", "get", str(db), "ghost")
        self.assert_one_line_error(code, output, "ghost")

    def test_bad_name_is_a_one_line_error(self, tmp_path):
        db = tmp_path / "cat.db"
        code, output = run_cli("store", "put", str(db), "bad#name", *self.FIT)
        self.assert_one_line_error(code, output, "bad#name")

    def test_malformed_uri_is_a_one_line_error(self, tmp_path):
        code, output = run_cli("sketch", "load",
                               f"store://{tmp_path / 'cat.db'}")
        self.assert_one_line_error(code, output, "store://")


class TestLoadReportsEmbeddedWireVersion:
    """A stale-build payload names the version it was written as (exit 2)."""

    def _window_payload(self, tmp_path):
        path = tmp_path / "state.window"
        code, _ = run_cli(
            "sketch", "save", "--dataset", "gaussian", "--dimension", "2000",
            "--width", "128", "--depth", "4", "--seed", "3",
            "--algorithm", "count_sketch", "--window", "sliding:4",
            "--pane", "300", "--output", str(path),
        )
        assert code == 0
        return path

    def assert_one_line_error(self, code, output, *needles):
        assert code == 2
        assert output.startswith("error:")
        assert len(output.strip().splitlines()) == 1
        assert "Traceback" not in output
        for needle in needles:
            assert needle in output

    def test_older_window_wire_version_is_reported(self, tmp_path):
        from repro.serialization import _PREAMBLE

        path = self._window_payload(tmp_path)
        payload = path.read_bytes()
        magic, _, header_len = _PREAMBLE.unpack_from(payload, 0)
        path.write_bytes(_PREAMBLE.pack(magic, 0, header_len)
                         + payload[_PREAMBLE.size:])
        code, output = run_cli("sketch", "load", str(path))
        self.assert_one_line_error(code, output, "version 0",
                                   "reads version 1")

    def test_corrupt_window_header_names_the_embedded_version(self, tmp_path):
        path = self._window_payload(tmp_path)
        payload = bytearray(path.read_bytes())
        from repro.serialization import _PREAMBLE

        payload[_PREAMBLE.size] = ord("!")  # break the JSON header
        path.write_bytes(bytes(payload))
        code, output = run_cli("sketch", "load", str(path))
        self.assert_one_line_error(code, output, "wire version 1",
                                   "corrupt window header")

    def test_truncated_window_payload_names_the_embedded_version(
        self, tmp_path
    ):
        path = self._window_payload(tmp_path)
        payload = path.read_bytes()
        from repro.serialization import _PREAMBLE

        path.write_bytes(payload[:_PREAMBLE.size + 4])
        code, output = run_cli("sketch", "load", str(path))
        self.assert_one_line_error(code, output, "truncated window payload",
                                   "wire version 1")

    def test_truncated_sketch_payload_names_the_embedded_version(
        self, tmp_path
    ):
        path = tmp_path / "state.sketch"
        code, _ = run_cli("sketch", "save", "--dimension", "1000",
                          "--width", "64", "--depth", "4",
                          "--output", str(path))
        assert code == 0
        from repro.serialization import _PREAMBLE

        path.write_bytes(path.read_bytes()[:_PREAMBLE.size + 4])
        code, output = run_cli("sketch", "load", str(path))
        self.assert_one_line_error(code, output, "truncated payload",
                                   "wire version 1")
