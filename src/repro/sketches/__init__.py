"""Classical frequency sketches used as baselines in the paper's evaluation.

* :class:`CountMin` — Count-Min [Cormode & Muthukrishnan 2005]
* :class:`CountMedian` — Count-Median [Cormode & Muthukrishnan 2005], the
  ℓ∞/ℓ1 baseline (Theorem 1 of the paper)
* :class:`CountSketch` — Count-Sketch [Charikar, Chen & Farach-Colton 2002],
  the ℓ∞/ℓ2 baseline (Theorem 2 of the paper)
* :class:`CountMinCU` — Count-Min with conservative update (CM-CU)
* :class:`CountMinLogCU` — Count-Min-Log with conservative update (CML-CU)

All of them share the :class:`Sketch` interface; the linear ones additionally
implement :class:`LinearSketch` (mergeable, scalable), which is what the
distributed substrate relies on.  CM-CU and CML-CU deliberately do *not*
implement ``merge`` — the paper's point is exactly that conservative-update
sketches are not linear and cannot be composed in the distributed model.
"""

from repro.sketches.base import LinearSketch, Sketch
from repro.sketches.count_median import CountMedian
from repro.sketches.count_min import CountMin
from repro.sketches.count_sketch import CountSketch
from repro.sketches.conservative import CountMinCU
from repro.sketches.count_min_log import CountMinLogCU
from repro.sketches.debiased_count_min import DebiasedCountMin
from repro.sketches.registry import (
    SketchSpec,
    available_sketches,
    paper_reference_suite,
)

__all__ = [
    "Sketch",
    "LinearSketch",
    "CountMin",
    "CountMedian",
    "CountSketch",
    "CountMinCU",
    "CountMinLogCU",
    "DebiasedCountMin",
    "SketchSpec",
    "available_sketches",
    "paper_reference_suite",
]
