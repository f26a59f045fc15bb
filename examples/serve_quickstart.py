"""Serving a sketch over TCP: ingest and query through the front door.

The server (`repro.server`) turns one `SketchSession` into a network
service with an HTAP-style split: a single writer task owns the session
and absorbs batched ingest frames from a bounded queue, while readers
answer point/heavy-hitter/range/inner-product queries from an immutable
snapshot replica that refreshes on a configurable cadence.  Every answer
carries the replica's *epoch*, so staleness is explicit rather than
hidden.

This walkthrough boots a server in-process (`ServerHandle` runs the
asyncio loop on a daemon thread — the same mechanics as `repro-sketches
serve`, minus the signal handling), streams a skewed workload through the
synchronous `Client`, queries it concurrently, inspects the byte-count
stats, and finally drains the server and restores the final snapshot
payload locally to show the answers are bit-identical.

Run with::

    python examples/serve_quickstart.py

Against a standalone server the client side is identical — boot one with::

    repro-sketches serve --algorithm count_min --dimension 100000 \
        --width 2048 --depth 9 --seed 7 --port 7117
"""

import numpy as np

from repro import SketchConfig, SketchSession
from repro.server import Client, ServerConfig, ServerHandle

DIMENSION = 100_000
UPDATES = 400_000
BATCH = 8_192


def main() -> None:
    config = ServerConfig(
        sketch=SketchConfig("count_min", dimension=DIMENSION, width=2_048,
                            depth=9, seed=7),
        snapshot_interval=0.1,     # refresh 100 ms after the first unpublished
                                   # update, once the ingest queue idles...
        snapshot_updates=100_000,  # ...or every 100k applied updates
    )
    handle = ServerHandle.start(config)
    print(f"serving on {handle.host}:{handle.port}")

    rng = np.random.default_rng(0)
    keys = rng.zipf(1.2, size=UPDATES).astype(np.int64) % DIMENSION

    with Client(handle.host, handle.port) as client:
        # -- ingest: batched update frames through the writer path ------- #
        for start in range(0, UPDATES, BATCH):
            client.ingest(keys[start:start + BATCH])
        epoch = client.flush()        # barrier: queued batches are applied
        print(f"ingested {UPDATES} updates; replica now at epoch {epoch}")

        # -- query: answered from the snapshot replica ------------------- #
        hot = int(np.bincount(keys[:1_000]).argmax())
        answer = client.point(hot)
        print(f"point({hot}) = {answer.value:.0f}  [epoch {answer.epoch}, "
              f"{answer.items} items behind the answer]")
        hitters = client.heavy_hitters(phi=0.001, top_k=3).value
        print("top-3 heavy hitters:",
              [(h.index, round(h.estimate)) for h in hitters])
        print(f"range sum [0, 50) = {client.range(0, 50).value:.0f}")

        # -- stats: per-connection ingest/query byte accounting ---------- #
        totals = client.stats()["totals"]
        print(f"server moved {totals['ingest_bytes']:,} ingest bytes and "
              f"{totals['query_bytes']:,} query bytes this far")

        # -- snapshot: the replica's exact payload, restorable anywhere -- #
        snap_epoch, payload = client.snapshot()
        local = SketchSession.from_bytes(payload)
        assert local.query(kind="point", index=hot) == client.point(hot).value
        print(f"epoch-{snap_epoch} snapshot restored locally: "
              f"answers are bit-identical")

    summary = handle.stop()   # graceful drain: queued work applied first
    print(f"drained: {summary['updates_applied']} updates applied, "
          f"final epoch {summary['final_epoch']}")


if __name__ == "__main__":
    main()
