"""The pre-session surface that release 2.0 removed stays removed.

Each name, module, form, field and CLI spelling below had a replacement
since the session facade landed (the README's "Removed in 2.0" section maps
them); none may come back, not even as a warning shim.
"""

import dataclasses
import importlib
import inspect

import pytest

from repro.api import SketchConfig
from repro.cli import main
from repro.distributed import Site
from repro.streaming import ShardedIngestReport

REMOVED_NAMES = {
    "repro": ["make_sketch", "point_query", "heavy_hitters", "range_sum",
              "ingest_stream_sharded"],
    "repro.sketches": ["make_sketch"],
    "repro.sketches.registry": ["make_sketch"],
    "repro.queries": ["point_query", "batch_point_query", "PointQueryResult",
                      "heavy_hitters", "range_sum", "inner_product_estimate"],
    "repro.streaming": ["ingest_stream_sharded"],
}


@pytest.mark.parametrize("module, name", [
    (module, name)
    for module, names in REMOVED_NAMES.items()
    for name in names
])
def test_removed_name_is_absent(module, name):
    imported = importlib.import_module(module)
    # repro.queries.heavy_hitters survives as the name of the submodule that
    # holds the query kernel, but no longer as a function
    value = getattr(imported, name, None)
    assert value is None or inspect.ismodule(value)
    assert name not in getattr(imported, "__all__", ())


@pytest.mark.parametrize("module", ["repro.utils.deprecation",
                                    "repro.queries.point"])
def test_removed_module_does_not_import(module):
    with pytest.raises(ImportError):
        importlib.import_module(module)


def test_site_rejects_a_factory_callable():
    config = SketchConfig("count_sketch", dimension=100, width=16, depth=3,
                          seed=7)
    with pytest.raises(TypeError, match="SketchConfig"):
        Site("a", lambda: config.build())


def test_sharded_report_has_no_zero_valued_fields():
    fields = {field.name for field in dataclasses.fields(ShardedIngestReport)}
    assert "payload_bytes" not in fields
    assert "bytes_crossed" not in fields


@pytest.mark.parametrize("argv", [
    ["datasets"],
    ["sketch", "--dataset", "gaussian"],
    ["save", "--output", "x.sketch"],
    ["load", "x.sketch"],
    ["experiment", "--list"],
    ["experiment"],
    ["experiment", "fig6"],
    ["sketch", "fit", "--list-algorithms"],
    ["experiment", "list", "--seed", "3"],
])
def test_removed_cli_spelling_exits_with_status_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "usage:" in capsys.readouterr().err
