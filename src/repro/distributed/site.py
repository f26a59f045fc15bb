"""Sites of the simulated distributed protocol.

Sites build their local sketches from a declarative
:class:`repro.api.SketchConfig`, which guarantees every site (and the
coordinator's reconstruction) uses the same algorithm, geometry and seed.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.api.config import SketchConfig
from repro.sketches.base import LinearSketch, Sketch
from repro.streaming.stream import UpdateStream
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import ensure_1d_float_array, require_positive_int


def partition_vector(
    x,
    sites: int,
    seed: RandomSource = None,
    by: str = "items",
) -> List[np.ndarray]:
    """Split a global frequency vector into per-site local vectors that sum to it.

    Two partitioning schemes are provided:

    * ``by="items"`` — each unit of mass of every coordinate is assigned to a
      uniformly random site (multinomial thinning); models items observed at
      different sites, which is the paper's motivating scenario.  Requires a
      non-negative integer-valued vector.
    * ``by="coordinates"`` — each coordinate is assigned wholly to one random
      site; works for arbitrary real vectors.
    """
    arr = ensure_1d_float_array(x, "x")
    sites = require_positive_int(sites, "sites")
    rng = as_rng(seed)

    if by == "coordinates":
        assignment = rng.integers(0, sites, size=arr.size)
        return [np.where(assignment == site, arr, 0.0) for site in range(sites)]

    if by == "items":
        if np.any(arr < 0) or not np.allclose(arr, np.round(arr)):
            raise ValueError(
                "item partitioning requires a non-negative integer vector; "
                "use by='coordinates' for real-valued vectors"
            )
        counts = np.round(arr).astype(np.int64)
        locals_ = [np.zeros(arr.size, dtype=np.float64) for _ in range(sites)]
        nonzero = np.flatnonzero(counts)
        for index in nonzero:
            split = rng.multinomial(counts[index], np.full(sites, 1.0 / sites))
            for site in range(sites):
                locals_[site][index] = split[site]
        return locals_

    raise ValueError(f"by must be 'items' or 'coordinates', got {by!r}")


class Site:
    """One site holding a local frequency vector (or local update stream).

    Parameters
    ----------
    name:
        Identifier used in the communication log.
    config:
        A :class:`repro.api.SketchConfig` describing the site's local sketch.
        All sites and the coordinator must share the same config (in
        particular its integer seed) so their hash functions agree — in a
        real deployment the coordinator broadcasts it.
    """

    def __init__(self, name: str, config: SketchConfig) -> None:
        if not name:
            raise ValueError("site name must be non-empty")
        if not isinstance(config, SketchConfig):
            raise TypeError(
                "Site expects a repro.api.SketchConfig, got "
                f"{type(config).__name__}"
            )
        self.name = name
        self.config = config
        self._sketch: Optional[Sketch] = None

    @property
    def sketch(self) -> Sketch:
        """The site's local sketch (built lazily)."""
        if self._sketch is None:
            self._sketch = self.config.build()
            if not isinstance(self._sketch, LinearSketch):
                raise TypeError(
                    f"site {self.name!r} was given a non-linear sketch "
                    f"({type(self._sketch).__name__}); only linear sketches "
                    "can be combined by the coordinator"
                )
        return self._sketch

    def observe_vector(self, local_vector) -> "Site":
        """Ingest the site's whole local frequency vector."""
        self.sketch.fit(local_vector)
        return self

    def observe_stream(
        self, stream: UpdateStream, batch_size: Optional[int] = None
    ) -> "Site":
        """Ingest the site's local update stream.

        With ``batch_size=None`` the stream is replayed one update at a time
        (the paper's streaming model); with an integer it is replayed in
        order through the sketch's vectorised ``update_batch`` path in
        chunks of that many updates, reaching an equivalent state much
        faster.
        """
        if batch_size is None:
            for update in stream:
                self.sketch.update(update.index, update.delta)
        else:
            for indices, deltas in stream.iter_batches(batch_size):
                self.sketch.update_batch(indices, deltas)
        return self

    def observe_update(self, index: int, delta: float = 1.0) -> "Site":
        """Ingest a single local update."""
        self.sketch.update(index, delta)
        return self

    def observe_batch(self, indices, deltas=None) -> "Site":
        """Ingest a batch of local updates through the vectorised path."""
        self.sketch.update_batch(indices, deltas)
        return self

    def local_sketch(self) -> LinearSketch:
        """The site's local sketch object (local inspection only)."""
        return self.sketch  # type: ignore[return-value]

    def ship_state(self) -> bytes:
        """Serialize the local sketch for transmission to the coordinator.

        This is the only thing a site ever sends: a self-contained wire
        payload (:meth:`~repro.sketches.base.Sketch.to_bytes`), never a live
        Python object.  Requires the sketch to be built from an explicit
        integer seed so the coordinator can reconstruct its hash functions.
        """
        return self.local_sketch().to_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Site(name={self.name!r})"
