"""Batched vs scalar ingestion throughput on the Figure 6 streaming workload.

The paper's streaming model applies one ``(index, delta)`` update at a time;
the batched ingestion path replays the same stream in order through
``update_batch`` chunks, reaching an equivalent state (bit-identical counters
on this unit-delta stream — for *every* algorithm, conservative-update kinds
included) at numpy speed.  This benchmark replays the scaled-down Hudong
edge stream of the Figure 6 experiment both ways and records the speedup.

Acceptance bars at full size: 10× for the fully vectorised linear sketches,
and — since segmented conservative-update batching
(:mod:`repro.sketches._cu_batch`) retired the per-run python loop — 10× for
CM-CU and CML-CU as well.

Set ``REPRO_BENCH_SMOKE=1`` to run a reduced-size configuration with a
relaxed speedup bar — that is what the CI benchmark-smoke job runs to catch
throughput regressions cheaply.  Set ``REPRO_BENCH_ALGOS`` to a
comma-separated subset of algorithm names to restrict the replay — the CI
``cu-smoke`` job sets ``REPRO_BENCH_ALGOS=count_min_cu,count_min_log_cu``
(without ``REPRO_BENCH_SMOKE``) to enforce the CU bar on the full-size
trace without paying for the linear replays.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.common import RESULTS_DIR, sketch_memory_footprint
from repro.api import SketchConfig
from repro.data.hudong import simulated_hudong
from repro.sketches.registry import get_spec
from repro.streaming.generators import stream_from_items

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

DIMENSION = 2_000 if SMOKE else 20_000
EDGES = 20_000 if SMOKE else 150_000
WIDTH = 256 if SMOKE else 2_048
DEPTH = 9
BATCH_SIZE = 8_192

#: algorithms replayed both ways; every one must hit its speedup bar
ALGORITHMS = (
    "count_min",
    "count_sketch",
    "count_median",
    "l1_sr_streaming",
    "l2_sr_streaming",
    "count_min_cu",
    "count_min_log_cu",
)

_only = os.environ.get("REPRO_BENCH_ALGOS", "")
if _only:
    _requested = tuple(name.strip() for name in _only.split(",") if name.strip())
    _unknown = set(_requested) - set(ALGORITHMS)
    if _unknown:
        raise ValueError(
            f"REPRO_BENCH_ALGOS names unknown algorithms {sorted(_unknown)}; "
            f"benchmarked algorithms: {list(ALGORITHMS)}"
        )
    ALGORITHMS = _requested

#: required speedup for the fully vectorised linear sketches
LINEAR_SPEEDUP_BAR = 3.0 if SMOKE else 10.0

#: required speedup for the conservative-update kinds through the segmented
#: engine; the smoke geometry (width 256) runs under much heavier collision
#: pressure (shorter conflict-free segments), hence the lower smoke bar
CU_SPEEDUP_BAR = 2.0 if SMOKE else 10.0

#: batched replays per algorithm; the batch leg finishes in tens of
#: milliseconds, where scheduler noise is material — keep the best of a few
BATCH_REPEATS = 3


@pytest.fixture(scope="module")
def fig6_stream():
    data = simulated_hudong(dimension=DIMENSION, edges=EDGES, seed=66)
    return stream_from_items(data.sources, data.dimension)


@pytest.mark.figure("6-batch")
def test_batch_replay_speedup_and_equivalence(fig6_stream):
    indices, deltas = fig6_stream.indices(), fig6_stream.deltas()
    rows = []
    for algorithm in ALGORITHMS:
        scalar = SketchConfig(algorithm, dimension=DIMENSION, width=WIDTH,
                              depth=DEPTH, seed=17).build()

        start = time.perf_counter()
        for index, delta in zip(indices.tolist(), deltas.tolist()):
            scalar.update(index, delta)
        scalar_seconds = time.perf_counter() - start

        batch_seconds = float("inf")
        for _ in range(BATCH_REPEATS):
            batched = SketchConfig(algorithm, dimension=DIMENSION, width=WIDTH,
                                   depth=DEPTH, seed=17).build()
            start = time.perf_counter()
            for begin in range(0, indices.size, BATCH_SIZE):
                stop = begin + BATCH_SIZE
                batched.update_batch(indices[begin:stop], deltas[begin:stop])
            batch_seconds = min(batch_seconds, time.perf_counter() - start)

        identical = bool(np.array_equal(scalar.table, batched.table))
        speedup = scalar_seconds / batch_seconds
        # memory footprint: counter state vs total live object bytes — the
        # gap records the O(n)→O(width·depth) win of on-demand addressing
        counter_bytes, total_bytes = sketch_memory_footprint(batched)
        rows.append((algorithm, scalar_seconds, batch_seconds, speedup,
                     identical, counter_bytes, total_bytes))

        # equivalence: unit deltas make every sum exact, so even the batched
        # scatter-adds must reproduce the scalar counters bit for bit
        assert identical, f"{algorithm}: batched state diverged from scalar"
        bar = LINEAR_SPEEDUP_BAR if get_spec(algorithm).linear else CU_SPEEDUP_BAR
        assert speedup >= bar, (
            f"{algorithm}: batched replay only {speedup:.1f}x faster "
            f"(bar: {bar:.0f}x)"
        )

    lines = [
        f"batch ingestion on the Figure 6 stream "
        f"(n={DIMENSION}, updates={indices.size}, s={WIDTH}, d={DEPTH}, "
        f"batch_size={BATCH_SIZE}{', smoke' if SMOKE else ''})",
        "",
        "memory: counter_kb is the declared sketch state (size_in_words × 8);",
        "object_kb walks the live object graph (hash coefficients, hot-key",
        "cache, cached column sums) — O(width·depth + cache) regardless of n.",
        "",
        f"{'algorithm':<18} {'scalar_s':>10} {'batch_s':>10} "
        f"{'speedup':>9} {'bit_identical':>14} {'counter_kb':>11} "
        f"{'object_kb':>10}",
    ]
    for (algorithm, scalar_seconds, batch_seconds, speedup, identical,
         counter_bytes, total_bytes) in rows:
        lines.append(
            f"{algorithm:<18} {scalar_seconds:>10.3f} {batch_seconds:>10.3f} "
            f"{speedup:>8.1f}x {str(identical):>14} "
            f"{counter_bytes / 1024:>11.1f} {total_bytes / 1024:>10.1f}"
        )
    print()
    print("\n".join(lines))
    # a REPRO_BENCH_ALGOS-restricted run (the CI cu-smoke job) must not
    # clobber the recorded full-suite table
    if not SMOKE and not _only:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / "batch_ingestion.txt").write_text("\n".join(lines) + "\n")
