"""Construction cost vs universe size: the on-demand addressing payoff.

Before this refactor ``HashedCounterTable`` materialised a dense
``(depth, dimension)`` bucket table (plus a sign table for Count-Sketch
layouts) at construction, so building a sketch cost O(n·d) time and memory —
capping the library at toy universes.  With on-demand hashing a sketch is
O(depth × width) to build regardless of ``dimension``, which opens the
``dimension = 10^8`` (and ``dimension=None`` hashed-key) scenario class.

This benchmark sweeps the universe size, recording for each dimension:

* **after** — measured construction wall time and tracemalloc peak of the
  on-demand path;
* **before** — the legacy dense-structure cost: measured by materialising
  the dense tables with ``bucket_columns`` / ``sign_columns`` over the whole
  universe where that is feasible (≤ 10^6), and the exact arithmetic size
  of the arrays the old constructor allocated everywhere;
* batched ingestion and query throughput on the constructed sketch, to show
  the hot path did not regress while construction collapsed.

Set ``REPRO_BENCH_SMOKE=1`` for the reduced configuration CI runs.
"""

import os
import time
import tracemalloc

import numpy as np
import pytest

from benchmarks.common import RESULTS_DIR, sketch_memory_footprint
from repro.api import SketchConfig, SketchSession

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

DIMENSIONS = (10**5, 10**6) if SMOKE else (10**5, 10**6, 10**7, 10**8)
#: dense legacy materialisation is only attempted up to this size
LEGACY_LIMIT = 10**6
WIDTH = 2_048
DEPTH = 9
UPDATES = 50_000 if SMOKE else 200_000
ALGORITHM = "count_sketch"  # signed layout: the legacy path paid for
#                             both a bucket and a sign table

#: construction of the on-demand path must not scale with n: the peak
#: allocation at the largest dimension may exceed the smallest by at most
#: this factor (hot-key caches are lazily filled, so construction itself
#: allocates only the (depth, width) counters)
CONSTRUCTION_MEMORY_RATIO_BAR = 3.0


def _measure_construction(dimension):
    config = SketchConfig(
        ALGORITHM, dimension=dimension, width=WIDTH, depth=DEPTH, seed=7
    )
    tracemalloc.start()
    start = time.perf_counter()
    session = SketchSession.from_config(config)
    build_seconds = time.perf_counter() - start
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return session, build_seconds, peak_bytes


def _measure_legacy_dense(session):
    """Materialise the structure the old constructor precomputed."""
    table = session.sketch._table
    keys = np.arange(table.dimension, dtype=np.int64)
    start = time.perf_counter()
    dense_buckets = table.bucket_columns(keys)
    dense_signs = table.sign_columns(keys) if table.signed else None
    seconds = time.perf_counter() - start
    nbytes = dense_buckets.nbytes + (0 if dense_signs is None else
                                     dense_signs.nbytes)
    return seconds, nbytes


@pytest.mark.figure("universe-scaling")
def test_construction_is_universe_independent():
    rng = np.random.default_rng(13)
    rows = []
    peaks = {}
    for dimension in DIMENSIONS:
        session, build_seconds, peak_bytes = _measure_construction(dimension)
        peaks[dimension] = peak_bytes

        # legacy cost: measured where feasible, exact arithmetic everywhere
        legacy_bytes = DEPTH * dimension * 8 * 2  # int64 buckets + f64 signs
        legacy_seconds = None
        if dimension <= LEGACY_LIMIT:
            legacy_seconds, measured = _measure_legacy_dense(session)
            legacy_bytes = measured

        indices = rng.integers(0, dimension, size=UPDATES)
        start = time.perf_counter()
        session.ingest(indices, deltas=1.0)
        ingest_seconds = time.perf_counter() - start

        probe = rng.integers(0, dimension, size=10_000)
        start = time.perf_counter()
        estimates = session.query(kind="point", index=probe)
        query_seconds = time.perf_counter() - start
        assert estimates.shape == probe.shape

        counter_bytes, object_bytes = sketch_memory_footprint(session.sketch)
        rows.append((dimension, build_seconds, peak_bytes, legacy_seconds,
                     legacy_bytes, UPDATES / ingest_seconds,
                     probe.size / query_seconds, counter_bytes, object_bytes))

    # the acceptance bar: construction memory must not scale with n
    smallest, largest = DIMENSIONS[0], DIMENSIONS[-1]
    ratio = peaks[largest] / max(peaks[smallest], 1)
    assert ratio <= CONSTRUCTION_MEMORY_RATIO_BAR, (
        f"construction peak grew {ratio:.1f}x from n={smallest} to "
        f"n={largest}; on-demand addressing must be universe-independent"
    )

    lines = [
        f"sketch construction vs universe size ({ALGORITHM}, s={WIDTH}, "
        f"d={DEPTH}, updates={UPDATES}{', smoke' if SMOKE else ''})",
        "",
        "'before' is the legacy precomputed-bucket path: measured dense",
        "materialisation up to n=1e6, exact array arithmetic beyond; "
        "'after'",
        "is the on-demand construction actually shipped.",
        "",
        f"{'n':>12} {'after_s':>9} {'after_peak_kb':>14} {'before_s':>9} "
        f"{'before_kb':>12} {'ingest_ups':>12} {'query_qps':>12} "
        f"{'counter_kb':>11} {'object_kb':>10}",
    ]
    for (dimension, build_s, peak, legacy_s, legacy_b, ups, qps,
         counter_b, object_b) in rows:
        legacy_s_text = "-" if legacy_s is None else f"{legacy_s:.3f}"
        lines.append(
            f"{dimension:>12} {build_s:>9.4f} {peak / 1024:>14.1f} "
            f"{legacy_s_text:>9} {legacy_b / 1024:>12.0f} {ups:>12.0f} "
            f"{qps:>12.0f} {counter_b / 1024:>11.1f} {object_b / 1024:>10.1f}"
        )
    print()
    print("\n".join(lines))
    if not SMOKE:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / "universe_scaling.txt").write_text(
            "\n".join(lines) + "\n"
        )
