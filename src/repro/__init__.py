"""repro — Bias-Aware Sketches (Chen & Zhang, VLDB 2017).

A reproduction of the paper "Bias-Aware Sketches": linear sketches whose
point-query error is bounded by the *de-biased* tail of the input vector,

    ‖x̂ - x‖∞ = O(k^{-1/p}) · min_β Err_p^k(x - β·1),    p ∈ {1, 2},

strictly improving on Count-Median (p = 1) and Count-Sketch (p = 2) whenever
the coordinates of ``x`` share a common bias β.

Quick start
-----------
Everything goes through one front door: a declarative
:class:`~repro.api.SketchConfig` plus a :class:`~repro.api.SketchSession`
facade that owns construction, ingestion, queries, merging and persistence.

>>> import numpy as np
>>> from repro import SketchConfig, SketchSession
>>> x = np.random.default_rng(0).normal(100, 15, 100_000)   # biased vector
>>> session = SketchSession.from_config(
...     SketchConfig("l2_sr", dimension=x.size, width=2_000, depth=9, seed=1)
... )
>>> _ = session.ingest(x)                    # vectors, updates, or streams
>>> abs(session.query(kind="point", index=12_345) - x[12_345]) < 15
True
>>> hot = session.query(kind="heavy_hitters", threshold=150.0)
>>> _ = session.save("traffic.sketch")       # restore anywhere with .open()

``ingest`` auto-dispatches scalar updates, ``(index, delta)`` batches, dense
vectors, update streams, and multi-core sharded ingestion; ``query`` covers
the four query kinds (``point`` / ``heavy_hitters`` / ``range`` /
``inner_product``) and raises :class:`~repro.api.CapabilityError` for
operations outside the algorithm's declared capabilities.

Large universes
---------------
Bucket and sign assignments are computed **on demand** with a fused
vectorised hash evaluator, never precomputed per coordinate, so a sketch
occupies O(depth × width) memory *regardless of* ``dimension`` —
``dimension=10**8`` constructs in under a millisecond, and
``dimension=None`` selects **hashed-key mode**: an unbounded universe where
any non-negative 64-bit integer (a user id, a hash of a string key) is a
valid coordinate.

>>> session = SketchSession.from_config(
...     SketchConfig("count_min", dimension=None, width=4_096, depth=9,
...                  seed=1)
... )
>>> _ = session.ingest(2**62 + 12345)        # any 64-bit key
>>> session.query(kind="point", index=2**62 + 12345) >= 1.0
True

Hashed-key mode supports the table-based algorithms (``count_min``,
``count_median``, ``count_sketch``, ``count_min_cu``, ``count_min_log_cu``
— those whose registry spec declares ``unbounded``); the bias-aware
algorithms need the per-bucket coordinate counts of a bounded universe.
Operations that enumerate the universe (dense-vector ``ingest``,
``recover``) are rejected; heavy-hitter queries take an explicit
``candidates=`` key set (for example from
:class:`~repro.queries.topk.StreamingTopK`).  Memory model: counters are
``depth × width`` words, plus a lazily-filled hot-key cache of at most
``depth × 65_536`` assignments, plus — for bias-aware sketches on bounded
universes — O(depth × width) column sums computed by a one-off O(n) scan,
memoised and shared across copies, shards and restored replicas (the
hot-key cache is shared the same way, so window panes and shard replicas
built from one seed hash the hot range once).

Windowed streams
----------------
Recency-bounded queries — last-hour heavy hitters, last-N-updates
estimates — ride the same linearity: configure a session with
``window=WindowSpec(...)`` and every update is routed into a ring of
per-pane sketches whose merged view answers all queries over the most
recent panes only (see :mod:`repro.streaming.windows`).

>>> from repro import WindowSpec
>>> session = SketchSession.from_config(SketchConfig(
...     "count_sketch", dimension=x.size, width=2_000, depth=9, seed=1,
...     window=WindowSpec(mode="sliding", panes=16, pane_size=10_000),
... ))
>>> _ = session.ingest(x)                    # only the tail stays queryable
>>> _ = session.save("trailing.window")      # full window state, versioned

Package layout
--------------
* :mod:`repro.api` — the unified session facade (start here).
* :mod:`repro.core` — the paper's contribution: ℓ1-S/R, ℓ2-S/R, streaming
  variants, the Bias-Heap, bias estimators and the exact error functionals.
* :mod:`repro.sketches` — the classical baselines (Count-Min, Count-Median,
  Count-Sketch, CM-CU, CML-CU) and the capability-aware sketch registry.
* :mod:`repro.hashing`, :mod:`repro.matrices` — the hashing and sketching-
  matrix substrate (Definitions 1-3).
* :mod:`repro.streaming`, :mod:`repro.distributed` — the streaming and
  distributed computation models (including multi-core sharded ingestion).
* :mod:`repro.serialization` — the versioned binary wire format behind the
  state protocol every sketch implements.
* :mod:`repro.data` — the paper's synthetic datasets plus simulated
  substitutes for its real datasets.
* :mod:`repro.queries` — the query kernels the session facade dispatches to.
* :mod:`repro.eval` — the evaluation harness behind every figure.
"""

from repro.api import (
    CapabilityError,
    ConfigError,
    SketchConfig,
    SketchSession,
)
from repro.core import (
    BiasHeap,
    L1BiasAwareSketch,
    L1MeanSketch,
    L2BiasAwareSketch,
    L2MeanSketch,
    StreamingL1BiasAwareSketch,
    StreamingL2BiasAwareSketch,
    bias_gain,
    debias,
    debiased_err,
    err_pk,
    optimal_bias,
    optimal_bias_error,
)
from repro.data import Dataset, available_datasets, load_dataset
from repro.distributed import Coordinator, Site, partition_vector
from repro.eval import (
    ResultTable,
    average_error,
    depth_sweep,
    evaluate_algorithms,
    maximum_error,
    streaming_comparison,
    width_sweep,
)
from repro.sketches import (
    CountMedian,
    CountMin,
    CountMinCU,
    CountMinLogCU,
    CountSketch,
    available_sketches,
    paper_reference_suite,
)
from repro.serialization import sketch_from_bytes, sketch_from_state
from repro.streaming import (
    SlidingWindowSketch,
    StreamRunner,
    UpdateStream,
    WindowSpec,
    stream_from_vector,
)
from repro.version import __version__

__all__ = [
    "__version__",
    # the unified facade
    "SketchConfig",
    "SketchSession",
    "CapabilityError",
    "ConfigError",
    # core contribution
    "BiasHeap",
    "L1BiasAwareSketch",
    "L1MeanSketch",
    "L2BiasAwareSketch",
    "L2MeanSketch",
    "StreamingL1BiasAwareSketch",
    "StreamingL2BiasAwareSketch",
    "bias_gain",
    "debias",
    "debiased_err",
    "err_pk",
    "optimal_bias",
    "optimal_bias_error",
    # baselines and registry
    "CountMedian",
    "CountMin",
    "CountMinCU",
    "CountMinLogCU",
    "CountSketch",
    "available_sketches",
    "paper_reference_suite",
    # data
    "Dataset",
    "available_datasets",
    "load_dataset",
    # models
    "Coordinator",
    "Site",
    "partition_vector",
    "StreamRunner",
    "UpdateStream",
    "stream_from_vector",
    # windowed streams (the pane-ring engine)
    "SlidingWindowSketch",
    "WindowSpec",
    # portable state
    "sketch_from_bytes",
    "sketch_from_state",
    # evaluation
    "ResultTable",
    "average_error",
    "maximum_error",
    "evaluate_algorithms",
    "width_sweep",
    "depth_sweep",
    "streaming_comparison",
]
