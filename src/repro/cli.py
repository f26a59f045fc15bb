"""Command-line interface: noun-verb subcommands over the session facade.

The grammar is ``repro NOUN VERB [options]``, one noun per subsystem, all
routed through the unified :mod:`repro.api` session facade:

* ``repro dataset list`` — list the available workloads and their bias
  profiles;
* ``repro sketch fit`` — sketch a workload with one algorithm and report
  its accuracy and size (``--shards N`` ingests through the multi-core
  sharded engine; ``--window MODE[:ARG] --pane N`` sketches through the
  sliding-window engine and reports in-window accuracy);
* ``repro sketch list`` — list the registered algorithms;
* ``repro sketch save`` — sketch a workload and persist the session's
  sketch state (``--output`` takes a path **or** a ``store://`` URI);
* ``repro sketch load`` — reopen a saved session (from a path or a
  ``store://`` URI) and query it, independently of the process (or
  machine) that built it;
* ``repro experiment list`` / ``repro experiment run NAME`` — regenerate
  one of the paper's figures and optionally render it as an ASCII chart;
* ``repro store put|get|list|history|compact|delete`` — the persistent,
  versioned sketch catalog (:class:`repro.store.SketchStore`): append
  named snapshots, restore them bit-identically in any process, inspect
  the catalog, and fold closed window panes to reclaim space;
* ``repro serve`` — the asyncio ingest/query front door
  (:mod:`repro.server`): one writer session fed by batched ingest frames,
  read replicas answering queries on a bounded-staleness snapshot
  cadence, optional ``--store`` restore-on-boot / checkpoint-on-shutdown,
  graceful drain on SIGTERM.

User errors (unknown sketch or dataset names, invalid geometry, missing
files, unknown store entries) exit with status 2 and a one-line
``error: ...`` message, never a traceback.  ``repro --version`` prints the
package version.

Invoke either as ``python -m repro.cli ...`` or through the ``repro-sketches``
console script installed by the package.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from typing import List, Optional

import numpy as np

from repro.api import (
    CapabilityError,
    ConfigError,
    SketchConfig,
    SketchSession,
    read_payload,
)
from repro.data.registry import available_datasets, load_dataset
from repro.eval.experiments import (
    available_experiments,
    get_experiment,
    run_experiment,
)
from repro.eval.metrics import average_error, maximum_error
from repro.eval.plots import plot_result_table
from repro.serialization import SerializationError
from repro.server import ServerConfig, serve_until_signalled
from repro.sketches.registry import available_sketches, get_spec
from repro.store import SketchStore, format_store_uri
from repro.streaming.windows import WINDOW_MODES, WindowSpec
from repro.version import __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sketches",
        description="Bias-aware sketches (Chen & Zhang, VLDB 2017): datasets, "
                    "sketching, a persistent sketch store, and figure "
                    "reproduction from the command line.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    nouns = parser.add_subparsers(dest="command", required=True)

    dataset = nouns.add_parser("dataset", help="the workload catalog")
    dataset_verbs = dataset.add_subparsers(dest="verb", required=True)
    dataset_list = dataset_verbs.add_parser(
        "list", help="list available workloads and their bias profiles"
    )
    dataset_list.add_argument("--dimension", type=str, default=20_000,
                              help="dimension used when profiling each "
                                   "workload (scientific notation like 1e5 "
                                   "is accepted)")
    dataset_list.add_argument("--head-size", type=str, default=100,
                              help="k used for the tail/bias-gain statistics")
    dataset_list.add_argument("--seed", type=int, default=0)

    sketch = nouns.add_parser("sketch", help="fit, persist and restore sketches")
    sketch_verbs = sketch.add_subparsers(dest="verb", required=True)
    fit = sketch_verbs.add_parser(
        "fit", help="sketch one workload with one algorithm and report accuracy"
    )
    _add_sketch_arguments(fit)
    sketch_verbs.add_parser("list", help="list the registered algorithms")
    save = sketch_verbs.add_parser(
        "save", help="sketch a workload and persist the sketch state"
    )
    _add_sketch_arguments(save)
    save.add_argument("--output", required=True,
                      help="destination for the serialized sketch: a path or "
                           "a store://PATH#NAME catalog URI")
    load = sketch_verbs.add_parser(
        "load", help="restore a saved sketch and query it"
    )
    load.add_argument("path",
                      help="file written by 'repro sketch save' (or "
                           "session.save()), or a store://PATH#NAME[@VERSION] "
                           "catalog URI")
    load.add_argument("--query", type=int, nargs="*", default=None,
                      help="coordinates to point-query on the restored sketch")

    experiment = nouns.add_parser("experiment", help="the paper's figures")
    experiment_verbs = experiment.add_subparsers(dest="verb", required=True)
    experiment_verbs.add_parser(
        "list", help="print the registered experiments"
    )
    run = experiment_verbs.add_parser(
        "run", help="regenerate one of the paper's figures"
    )
    run.add_argument("name", help="experiment id (see 'repro experiment list')")
    run.add_argument("--seed", type=int, default=2017)
    run.add_argument("--batch-size", type=int, default=None,
                     help="replay streaming experiments through the "
                          "vectorised update_batch path in chunks of "
                          "this many updates (default: scalar "
                          "update-at-a-time replay)")
    run.add_argument("--plot", action="store_true",
                     help="also render the series as an ASCII chart")
    run.add_argument("--metric", default="average_error",
                     choices=["average_error", "maximum_error"])

    store = nouns.add_parser(
        "store", help="the persistent, versioned sketch catalog (SQLite)"
    )
    store_verbs = store.add_subparsers(dest="verb", required=True)
    put = store_verbs.add_parser(
        "put", help="append an immutable snapshot of a sketch under a name"
    )
    put.add_argument("store",
                     help="path of the catalog database (created if missing)")
    put.add_argument("name", help="catalog name the snapshot is appended to")
    put.add_argument("--input", default=None,
                     help="store an existing payload file instead of fitting "
                          "a workload")
    _add_sketch_arguments(put)
    get = store_verbs.add_parser(
        "get", help="restore a named snapshot and describe it"
    )
    get.add_argument("store", help="path of the catalog database")
    get.add_argument("name", help="catalog name to restore")
    get.add_argument("--version", type=int, default=None,
                     help="snapshot version to restore (default: latest)")
    get.add_argument("--output", default=None,
                     help="also write the restored payload to this path")
    get.add_argument("--query", type=int, nargs="*", default=None,
                     help="coordinates to point-query on the restored sketch")
    store_list = store_verbs.add_parser(
        "list", help="list the catalog's names and their latest snapshots"
    )
    store_list.add_argument("store", help="path of the catalog database")
    history = store_verbs.add_parser(
        "history", help="list every retained snapshot of a name"
    )
    history.add_argument("store", help="path of the catalog database")
    history.add_argument("name", help="catalog name to inspect")
    compact = store_verbs.add_parser(
        "compact", help="fold closed window panes of retained snapshots"
    )
    compact.add_argument("store", help="path of the catalog database")
    compact.add_argument("name", nargs="?", default=None,
                         help="compact one name (default: the whole store)")
    compact.add_argument("--include-latest", action="store_true",
                         help="also fold each name's newest snapshot "
                              "(default keeps it pane-for-pane replayable)")
    compact.add_argument("--no-vacuum", action="store_true",
                         help="skip the VACUUM that reclaims freed file space")
    delete = store_verbs.add_parser(
        "delete", help="remove a name (or one of its snapshots)"
    )
    delete.add_argument("store", help="path of the catalog database")
    delete.add_argument("name", help="catalog name to remove")
    delete.add_argument("--version", type=int, default=None,
                        help="remove one snapshot version instead of the "
                             "whole name")

    serve = nouns.add_parser(
        "serve", help="run the asyncio ingest/query front door"
    )
    serve.set_defaults(verb=None)
    serve.add_argument("--host", default=None,
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port; 0 binds an ephemeral port and prints "
                            "it (default 0)")
    serve.add_argument("--config", default=None, metavar="PATH",
                       help="JSON file of server + sketch settings "
                            "(flags override file keys)")
    serve.add_argument("--store", default=None, metavar="URI",
                       help="store://PATH#NAME catalog URI: restore the "
                            "newest snapshot on boot (when it exists) and "
                            "checkpoint on graceful shutdown")
    serve.add_argument("--algorithm", default=None,
                       help="sketch to create when neither --config nor the "
                            "store provides one (see 'repro sketch list')")
    serve.add_argument("--dimension", type=str, default=None,
                       help="universe size (scientific notation accepted)")
    serve.add_argument("--width", type=str, default=2_048,
                       help="buckets per row (scientific notation accepted)")
    serve.add_argument("--depth", type=str, default=9,
                       help="hash rows (scientific notation accepted)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--shards", type=int, default=None,
                       help="apply ingest batches through the multi-core "
                            "sharded engine with this many shards (linear "
                            "sketches only; default 1)")
    serve.add_argument("--window", default=None, metavar="MODE[:ARG]",
                       help="windowed serving: 'tumbling', 'sliding:<panes>' "
                            "or 'decay:<factor>' (requires --pane)")
    serve.add_argument("--pane", type=str, default=None,
                       help="pane size in updates for --window")
    serve.add_argument("--snapshot-interval", type=float, default=None,
                       dest="snapshot_interval", metavar="SECONDS",
                       help="refresh the read replica at most this many "
                            "seconds after the first un-snapshotted update "
                            "(default 0.25)")
    serve.add_argument("--snapshot-updates", type=str, default=None,
                       dest="snapshot_updates", metavar="N",
                       help="also refresh once this many updates accumulate "
                            "(default 100000)")
    serve.add_argument("--queue-depth", type=str, default=None,
                       dest="queue_depth", metavar="BATCHES",
                       help="bound of the ingest queue, in batches "
                            "(default 64)")
    serve.add_argument("--max-frame-bytes", type=str, default=None,
                       dest="max_frame_bytes", metavar="BYTES",
                       help="per-connection cap on one frame's size "
                            "(default 64 MiB)")
    return parser


def _add_sketch_arguments(parser: argparse.ArgumentParser) -> None:
    """Workload/algorithm/geometry options shared by the fitting verbs."""
    parser.add_argument("--dataset", default="gaussian",
                        help="workload name (see 'repro dataset list')")
    parser.add_argument("--algorithm", default="l2_sr",
                        help="sketch algorithm (see 'repro sketch list')")
    parser.add_argument("--dimension", type=str, default=50_000,
                        help="universe size (scientific notation like 1e8 is "
                             "accepted)")
    parser.add_argument("--width", type=str, default=2_048,
                        help="buckets per row (scientific notation accepted)")
    parser.add_argument("--depth", type=str, default=9,
                        help="hash rows (scientific notation accepted)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shards", type=int, default=1,
                        help="ingest through the multi-core sharded engine "
                             "with this many shards (linear sketches only; "
                             "default 1 = single-process fit)")
    parser.add_argument("--window", default=None, metavar="MODE[:ARG]",
                        help="windowed ingestion: 'tumbling', "
                             "'sliding:<panes>' (e.g. sliding:16) or "
                             "'decay:<factor>' (e.g. decay:0.9); queries "
                             "are answered over the most recent panes only "
                             "(linear sketches; requires --pane)")
    parser.add_argument("--pane", type=str, default=None,
                        help="pane size in updates for --window "
                             "(scientific notation accepted)")


#: flags coerced through :func:`_geometry_value` before dispatch
_GEOMETRY_FLAGS = ("dimension", "width", "depth", "head_size", "pane",
                   "snapshot_updates", "queue_depth", "max_frame_bytes")


def _geometry_value(value, name: str) -> int:
    """Coerce a geometry flag to an int, accepting scientific notation.

    ``--dimension 1e8`` and ``--width 2e4`` parse to exact integers; values
    that are not whole numbers (``1.5``, ``1e-3``, ``abc``) raise
    :class:`~repro.api.ConfigError`, which the CLI reports as its usual
    one-line ``error: ...`` with exit status 2.
    """
    if value is None or isinstance(value, int):
        return value
    try:
        return int(value)
    except ValueError:
        pass
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(
            f"{name} must be an integer (scientific notation like 1e8 is "
            f"accepted), got {value!r}"
        ) from None
    if not number.is_integer():
        raise ConfigError(
            f"{name} must be a whole number, got {value!r}"
        )
    return int(number)


def _coerce_geometry(args: argparse.Namespace) -> None:
    for name in _GEOMETRY_FLAGS:
        if hasattr(args, name):
            setattr(args, name, _geometry_value(getattr(args, name), name))


def _window_spec(args: argparse.Namespace) -> Optional[WindowSpec]:
    """Build the :class:`WindowSpec` the ``--window``/``--pane`` flags ask for.

    Returns ``None`` when no windowing was requested; every malformed
    combination raises :class:`~repro.api.ConfigError`, which the CLI
    reports as its usual one-line ``error: ...`` with exit status 2.
    """
    window = getattr(args, "window", None)
    pane = getattr(args, "pane", None)
    if window is None:
        if pane is not None:
            raise ConfigError(
                "--pane requires --window (it sizes the window's panes)"
            )
        return None
    if pane is None:
        raise ConfigError(
            "--window requires --pane (the pane size in updates, e.g. "
            "--window sliding:16 --pane 1000)"
        )
    mode, _, argument = window.partition(":")
    if mode not in WINDOW_MODES:
        raise ConfigError(
            f"unknown window mode {mode!r}; expected tumbling, "
            "sliding:<panes> or decay:<factor>"
        )
    panes, decay = 1, None
    if mode == "sliding":
        if not argument:
            raise ConfigError(
                "sliding windows take a pane count, e.g. --window sliding:16"
            )
        panes = _geometry_value(argument, "window pane count")
    elif mode == "decay":
        if not argument:
            raise ConfigError(
                "decay windows take a factor in (0, 1), e.g. --window "
                "decay:0.9"
            )
        try:
            decay = float(argument)
        except ValueError:
            raise ConfigError(
                f"decay factor must be a number in (0, 1), got {argument!r}"
            ) from None
    elif argument:
        raise ConfigError(
            "tumbling windows take no argument; use --window tumbling"
        )
    return WindowSpec(mode=mode, panes=panes, pane_size=pane, by="count",
                      decay=decay)


def _load_cli_dataset(args: argparse.Namespace):
    if args.dataset not in available_datasets():
        known = ", ".join(available_datasets())
        raise ConfigError(f"unknown dataset {args.dataset!r}; available: {known}")
    return load_dataset(args.dataset, seed=args.seed, dimension=args.dimension)


def _command_dataset_list(args: argparse.Namespace, out) -> int:
    print(f"{'dataset':<12} {'mean':>12} {'std':>12} {'bias gain (l2)':>16}",
          file=out)
    for name in available_datasets():
        dataset = load_dataset(name, seed=args.seed, dimension=args.dimension)
        summary = dataset.summary(head_size=args.head_size)
        print(
            f"{name:<12} {summary['mean']:>12.2f} {summary['std']:>12.2f} "
            f"{summary['bias_gain_l2']:>16.2f}",
            file=out,
        )
    print("\n'bias gain' is Err_2^k(x) / min_b Err_2^k(x - b): how much "
          "de-biasing shrinks the error the sketches are charged against.",
          file=out)
    return 0


def _build_workload_session(args: argparse.Namespace):
    """Open a session on the requested workload (single-process or sharded).

    Callers must close the session (``with session: ...``) — a sharded
    ingest leaves a warm worker pool attached to it.
    """
    dataset = _load_cli_dataset(args)
    config = SketchConfig(
        args.algorithm,
        dimension=dataset.dimension,
        width=args.width,
        depth=args.depth,
        seed=args.seed,
        window=_window_spec(args),
    )
    session = SketchSession.from_config(config)
    try:
        session.ingest(
            dataset.vector, shards=max(1, getattr(args, "shards", 1))
        )
    except BaseException:
        session.close()
        raise
    return dataset, session


def _describe_window(session, out) -> None:
    """Print the window lines shared by ``sketch fit`` and the restore verbs."""
    window = session.window
    spec = window.spec
    extent = "update" if spec.by == "count" else "time-unit"
    detail = f"{spec.panes} pane(s) x {spec.pane_size} {extent}s"
    if spec.mode == "decay":
        detail += f", factor {spec.decay}"
    print(f"window           : {spec.mode} ({detail})", file=out)
    print(f"window fill      : {window.items_in_window} of "
          f"{session.items_processed} updates in window "
          f"({window.pane_closes} pane closes, {window.evictions} evictions)",
          file=out)


def _windowed_truth(session, dataset) -> Optional[np.ndarray]:
    """The frequency vector the current window actually summarises.

    A dense workload vector is streamed into a windowed session as one
    update per non-zero coordinate in index order, so the window retains the
    *last* ``items_in_window`` of those updates.  Decay windows keep (faded)
    full history, which no restriction reproduces — they return ``None``.
    """
    if session.window.spec.mode == "decay":
        return None
    indices = np.flatnonzero(dataset.vector)
    kept = indices[indices.size - session.items_in_window:]
    truth = np.zeros(dataset.dimension)
    truth[kept] = dataset.vector[kept]
    return truth


def _command_sketch_list(args: argparse.Namespace, out) -> int:
    for name in available_sketches():
        print(name, file=out)
    return 0


def _command_sketch_fit(args: argparse.Namespace, out) -> int:
    dataset, session = _build_workload_session(args)
    with session:
        print(f"dataset          : {dataset.name} (n = {dataset.dimension})",
              file=out)
        print(f"algorithm        : {args.algorithm}", file=out)
        if getattr(args, "shards", 1) > 1:
            print(f"ingestion        : sharded ({args.shards} shards)", file=out)
        if session.windowed:
            _describe_window(session, out)
        print(f"sketch size      : {session.size_in_words()} words "
              f"({dataset.dimension / session.size_in_words():.1f}x compression)",
              file=out)
        truth = dataset.vector
        average_label, maximum_label = "average error", "maximum error"
        if session.windowed:
            truth = _windowed_truth(session, dataset)
            if truth is None:
                # no error metrics to print, so skip the (full-universe)
                # recovery
                print("errors           : n/a for decay windows (estimates "
                      "are exponentially faded counts)", file=out)
                return 0
            average_label, maximum_label = ("window avg error",
                                            "window max error")
        recovered = session.recover()
        print(f"{average_label:<17}: {average_error(truth, recovered):.4f}",
              file=out)
        print(f"{maximum_label:<17}: {maximum_error(truth, recovered):.4f}",
              file=out)
        if get_spec(args.algorithm).bias_aware and not session.windowed:
            print(f"estimated bias   : {session.estimate_bias():.4f}", file=out)
            print(f"vector mean      : {float(np.mean(dataset.vector)):.4f}",
                  file=out)
    return 0


def _command_sketch_save(args: argparse.Namespace, out) -> int:
    dataset, session = _build_workload_session(args)
    with session:
        payload = session.to_bytes()
        destination = session.save(args.output)
    print(f"saved            : {destination if destination is not None else args.output}",
          file=out)
    print(f"dataset          : {dataset.name} (n = {dataset.dimension})", file=out)
    print(f"algorithm        : {args.algorithm}", file=out)
    print(f"payload          : {len(payload)} bytes "
          f"({session.size_in_words()} state words)", file=out)
    return 0


def _command_sketch_load(args: argparse.Namespace, out) -> int:
    payload = read_payload(args.path)
    session = SketchSession.from_bytes(payload)
    print(f"loaded           : {args.path}", file=out)
    if session.windowed:
        state = session.state_dict()
        print(f"kind             : windowed {session.config.name} "
              f"(window_version {state['window_version']})", file=out)
        _describe_window(session, out)
        pane_config = state["panes"][-1]["config"]
        settings = ", ".join(f"{k}={v}" for k, v in sorted(pane_config.items()))
        print(f"pane config      : {settings}", file=out)
    else:
        state = session.state_dict()
        print(f"kind             : {state['kind']} "
              f"(state_version {state['state_version']})", file=out)
        settings = ", ".join(f"{k}={v}" for k, v in sorted(state["config"].items()))
        print(f"config           : {settings}", file=out)
    print(f"payload          : {len(payload)} bytes "
          f"({session.size_in_words()} state words)", file=out)
    print(f"items processed  : {session.items_processed}", file=out)
    if session.spec.bias_aware and not session.windowed:
        print(f"estimated bias   : {session.estimate_bias():.4f}", file=out)
    if args.query:
        for index in args.query:
            estimate = session.query(kind="point", index=index)
            print(f"query x[{index}]      : {estimate:.4f}", file=out)
    return 0


def _command_experiment_list(args: argparse.Namespace, out) -> int:
    for name in available_experiments():
        spec = get_experiment(name)
        print(f"{name:<14} {spec.figure:<14} {spec.description}", file=out)
    return 0


def _command_experiment_run(args: argparse.Namespace, out) -> int:
    table = run_experiment(args.name, seed=args.seed, batch_size=args.batch_size)
    metrics = ("average_error", "maximum_error")
    if any(row.update_seconds is not None for row in table):
        metrics = ("average_error", "maximum_error", "update_seconds",
                   "query_seconds")
    print(table.to_text(metrics=metrics), file=out)
    if args.plot:
        print(plot_result_table(table, metric=args.metric), file=out)
    print(f"best algorithm by {args.metric}: "
          f"{table.best_algorithm(args.metric)}", file=out)
    return 0


def _command_store_put(args: argparse.Namespace, out) -> int:
    if args.input is not None:
        payload = read_payload(args.input)
    else:
        _, session = _build_workload_session(args)
        with session:
            payload = session.to_bytes()
    with SketchStore(args.store) as store:
        version = store.put(args.name, payload)
    print(f"stored           : "
          f"{format_store_uri(args.store, args.name, version)}", file=out)
    print(f"payload          : {len(payload)} bytes", file=out)
    return 0


def _command_store_get(args: argparse.Namespace, out) -> int:
    with SketchStore(args.store) as store:
        snapshots = store.history(args.name)
        payload = store.get_payload(args.name, args.version)
    version = args.version if args.version is not None else snapshots[-1].version
    session = SketchSession.from_bytes(payload)
    print(f"restored         : "
          f"{format_store_uri(args.store, args.name, version)}", file=out)
    print(f"config           : {session.config.summary()}", file=out)
    if session.windowed:
        _describe_window(session, out)
    print(f"payload          : {len(payload)} bytes "
          f"({session.size_in_words()} state words)", file=out)
    print(f"items processed  : {session.items_processed}", file=out)
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(payload)
        print(f"written          : {args.output}", file=out)
    if args.query:
        for index in args.query:
            estimate = session.query(kind="point", index=index)
            print(f"query x[{index}]      : {estimate:.4f}", file=out)
    return 0


def _command_store_list(args: argparse.Namespace, out) -> int:
    with SketchStore(args.store) as store:
        entries = store.list()
    print(f"{'name':<20} {'kind':<14} {'latest':>6} {'snaps':>5} "
          f"{'items':>10} {'bytes':>10}  updated (UTC)", file=out)
    for entry in entries:
        kind = entry.kind + ("+w" if entry.windowed else "")
        print(f"{entry.name:<20} {kind:<14} {entry.latest_version:>6} "
              f"{entry.snapshot_count:>5} {entry.items_processed:>10} "
              f"{entry.total_bytes:>10}  {entry.updated_at}", file=out)
    if not entries:
        print("(empty store)", file=out)
    return 0


def _command_store_history(args: argparse.Namespace, out) -> int:
    with SketchStore(args.store) as store:
        snapshots = store.history(args.name)
    print(f"{'version':>7} {'kind':<14} {'panes':>5} {'items':>10} "
          f"{'bytes':>10} {'compacted':>9}  created (UTC)", file=out)
    for snapshot in snapshots:
        panes = "-" if snapshot.pane_count is None else str(snapshot.pane_count)
        compacted = "yes" if snapshot.compacted else "no"
        print(f"{snapshot.version:>7} {snapshot.kind:<14} {panes:>5} "
              f"{snapshot.items_processed:>10} {snapshot.payload_bytes:>10} "
              f"{compacted:>9}  {snapshot.created_at}", file=out)
    return 0


def _command_store_compact(args: argparse.Namespace, out) -> int:
    with SketchStore(args.store) as store:
        report = store.compact(
            args.name,
            keep_latest=not args.include_latest,
            vacuum=not args.no_vacuum,
        )
    print(f"compacted        : {report.snapshots_compacted} of "
          f"{report.snapshots_examined} candidate snapshot(s)", file=out)
    print(f"panes folded     : {report.panes_folded}", file=out)
    print(f"payload bytes    : {report.bytes_before} -> {report.bytes_after} "
          f"({report.bytes_saved} saved)", file=out)
    return 0


def _command_store_delete(args: argparse.Namespace, out) -> int:
    with SketchStore(args.store) as store:
        removed = store.delete(args.name, args.version)
    label = (args.name if args.version is None
             else f"{args.name}@{args.version}")
    print(f"deleted          : {label} ({removed} snapshot(s))", file=out)
    return 0


def _server_config(args: argparse.Namespace) -> ServerConfig:
    """Build the :class:`ServerConfig` that ``repro serve`` asked for.

    Precedence (highest first): command-line flags, ``--config`` file
    keys, :class:`ServerConfig` defaults.  The sketch geometry flags only
    apply when ``--algorithm`` is given; otherwise the sketch comes from
    the config file, or from the store snapshot on boot.
    """
    mapping = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                mapping = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"invalid JSON in {args.config}: {exc}"
                ) from exc
    sketch = None
    if args.algorithm is not None:
        if args.dimension is None:
            raise ConfigError(
                "serve needs --dimension alongside --algorithm"
            )
        sketch = SketchConfig(
            args.algorithm,
            dimension=args.dimension,
            width=args.width,
            depth=args.depth,
            seed=args.seed,
            window=_window_spec(args),
        )
    elif _window_spec(args) is not None:
        raise ConfigError(
            "--window on serve requires --algorithm (the window shapes the "
            "sketch being created)"
        )
    overrides = {
        key: getattr(args, key)
        for key in ("host", "port", "store", "shards", "snapshot_interval",
                    "snapshot_updates", "queue_depth", "max_frame_bytes")
        if getattr(args, key) is not None
    }
    return ServerConfig.from_mapping(mapping, sketch=sketch, **overrides)


def _command_serve(args: argparse.Namespace, out) -> int:
    config = _server_config(args)

    def on_ready(server) -> None:
        print(f"serving          : {server.host}:{server.port} "
              f"(pid {os.getpid()})", file=out)
        print(f"sketch           : {server.sketch_config.summary()}", file=out)
        if config.store is not None:
            origin = ("restored from" if server.restored_from_store
                      else "will checkpoint to")
            print(f"store            : {origin} {config.store}", file=out)
        if config.shards > 1:
            print(f"ingestion        : sharded ({config.shards} shards)",
                  file=out)
        print(f"cadence          : snapshot every "
              f"{config.snapshot_interval:g}s or {config.snapshot_updates} "
              f"updates", file=out)
        print("send SIGTERM (or Ctrl-C) to drain", file=out)
        out.flush()

    summary = asyncio.run(serve_until_signalled(config, on_ready=on_ready))
    print(f"drained          : {summary['updates_applied']} update(s) in "
          f"{summary['batches_applied']} batch(es), final epoch "
          f"{summary['final_epoch']}", file=out)
    if summary["batches_rejected"]:
        print(f"rejected         : {summary['batches_rejected']} batch(es)",
              file=out)
    if summary["checkpoint"] is not None:
        print(f"checkpoint       : {summary['checkpoint']}", file=out)
    return 0


_COMMANDS = {
    ("dataset", "list"): _command_dataset_list,
    ("sketch", "fit"): _command_sketch_fit,
    ("sketch", "list"): _command_sketch_list,
    ("sketch", "save"): _command_sketch_save,
    ("sketch", "load"): _command_sketch_load,
    ("experiment", "list"): _command_experiment_list,
    ("experiment", "run"): _command_experiment_run,
    ("store", "put"): _command_store_put,
    ("store", "get"): _command_store_get,
    ("store", "list"): _command_store_list,
    ("store", "history"): _command_store_history,
    ("store", "compact"): _command_store_compact,
    ("store", "delete"): _command_store_delete,
    ("serve", None): _command_serve,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code.

    User errors surface as a single ``error: ...`` line and exit code 2.
    """
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[(args.command, args.verb)]
    try:
        _coerce_geometry(args)
        return handler(args, out)
    except (ConfigError, CapabilityError, SerializationError) as error:
        return _fail(error, out)
    except KeyError as error:
        # registry lookups (datasets, experiments) raise KeyError whose first
        # argument is the full one-line message
        return _fail(error.args[0] if error.args else error, out)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as error:
        name = getattr(error, "filename", None) or "file"
        return _fail(f"cannot read {name}: {error.strerror or error}", out)
    except (IndexError, ValueError) as error:
        # the validation layer raises these for bad user input (out-of-range
        # query indices, bad dataset parameters, store misuse via StoreError);
        # anything else is a bug that REPRO_CLI_DEBUG=1 surfaces with a full
        # traceback
        return _fail(error, out)


def _fail(detail, out) -> int:
    """Report a user error as a single line, unless debugging is requested."""
    if os.environ.get("REPRO_CLI_DEBUG"):
        raise
    print(f"error: {detail}", file=out)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
