"""Figure 6: streaming accuracy and update/query time on the Hudong dataset.

Paper setup: the Hudong "related to" edge stream (n ≈ 2.2·10^6 articles,
1.9·10^7 edges) is fed to the sketches one update at a time; the figure
reports (a) average error, (b) maximum error, (c) per-update time and
(d) per-query time.  Findings: CS recovery errors are 2+ times larger than
ℓ2-S/R, the other algorithms are worse still; all six algorithms have similar
update/query cost — the bias-maintenance overhead (Bias-Heap) is small
(ℓ1-S/R within ~1.5× of CM, ℓ2-S/R within 2× of CS).

Scaled-down reproduction: a preferential-attachment edge stream with
n = 20 000 articles and 150 000 edges, replayed update by update into the
streaming variants of every algorithm.
"""

import pytest

from benchmarks.common import report
from repro.api import SketchConfig
from repro.data.hudong import simulated_hudong
from repro.eval.harness import streaming_comparison
from repro.streaming.generators import stream_from_items

DIMENSION = 20_000
EDGES = 150_000
WIDTH = 2_048
DEPTH = 9


@pytest.fixture(scope="module")
def hudong_stream():
    data = simulated_hudong(dimension=DIMENSION, edges=EDGES, seed=66)
    return stream_from_items(data.sources, data.dimension)


@pytest.mark.figure("6a-6d")
def test_figure6_hudong_streaming(benchmark, hudong_stream):
    table = streaming_comparison(
        hudong_stream,
        width=WIDTH,
        depth=DEPTH,
        query_count=2_000,
        seed=17,
        dataset_name="hudong",
        title="Figure 6: Hudong edge stream (simulated substitute)",
    )
    report(
        table,
        "fig6_hudong_streaming",
        metrics=("average_error", "maximum_error", "update_seconds",
                 "query_seconds"),
    )

    errors = {row.algorithm: row.average_error for row in table}
    update_times = {row.algorithm: row.update_seconds for row in table}
    query_times = {row.algorithm: row.query_seconds for row in table}

    # accuracy shape: ℓ2-S/R at least matches CS, and clearly beats Count-Median
    assert errors["l2_sr"] <= 1.2 * errors["count_sketch"]
    assert errors["l2_sr"] < errors["count_median"]
    # timing shape: the bias-maintenance overhead stays within a small factor
    assert update_times["l2_sr"] < 10.0 * update_times["count_sketch"]
    assert query_times["l2_sr"] < 10.0 * query_times["count_sketch"]

    # benchmark the per-update cost of the streaming ℓ2 sketch (Algorithm 6)
    sketch = SketchConfig("l2_sr_streaming", dimension=DIMENSION, width=WIDTH,
                          depth=DEPTH, seed=19).build()
    updates = [(update.index, update.delta) for update in hudong_stream][:5_000]

    def _replay():
        for index, delta in updates:
            sketch.update(index, delta)

    benchmark(_replay)
