"""Registry of sketch algorithms with capability metadata.

Every algorithm in the library registers a :class:`SketchSpec` here.  A spec
is more than a constructor: it declares the algorithm's *capabilities* —
linearity (mergeable in the distributed model), streaming support, the query
kinds it can answer, and the schema of its algorithm-specific keyword
arguments — so the :mod:`repro.api` facade can validate a declarative
:class:`~repro.api.SketchConfig` up front and reject unsupported operations
with a clear error instead of failing deep inside numpy.

Baseline sketches register themselves at import time; the bias-aware sketches
in :mod:`repro.core` register themselves when that package is imported (which
every lookup guarantees via :func:`_ensure_core_registered`).

All listing functions return deterministically ordered names so CLI output
and docs are stable across interpreter runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from repro.sketches.base import Sketch
from repro.sketches.conservative import CountMinCU
from repro.sketches.count_median import CountMedian
from repro.sketches.count_min import CountMin
from repro.sketches.count_min_log import CountMinLogCU
from repro.sketches.count_sketch import CountSketch
from repro.sketches.debiased_count_min import DebiasedCountMin
from repro.utils.rng import RandomSource

#: factory signature: (dimension, width, depth, seed, **algorithm_kwargs) -> Sketch
SketchFactory = Callable[..., Sketch]

#: the query kinds :meth:`repro.api.SketchSession.query` can dispatch
QUERY_KINDS: Tuple[str, ...] = ("point", "heavy_hitters", "range", "inner_product")

#: default capability set: every recovery-based sketch answers all four kinds
ALL_QUERY_KINDS: FrozenSet[str] = frozenset(QUERY_KINDS)


@dataclass(frozen=True)
class SketchSpec:
    """Metadata describing a registered sketch algorithm.

    Besides the constructor, a spec records the capability surface the
    :mod:`repro.api` facade dispatches on:

    * ``linear`` — mergeable/scalable; required for distributed aggregation
      and sharded ingestion;
    * ``exact_batch`` — batched ingestion (``update_batch``/``fit``)
      reproduces scalar replay exactly (bit-identical for integer deltas).
      Every linear sketch is exact-batchable; the conservative-update kinds
      are exact-batchable *without* being linear (segmented CU batching
      preserves stream order), which is what lets tumbling-mode windows —
      whose panes are independent and never merge — accept them;
    * ``streaming`` — supports one-update-at-a-time ingestion (``update``);
    * ``unbounded`` — supports hashed-key mode (``dimension=None``): the
      algorithm needs no O(n) data-independent structure, so arbitrary
      64-bit keys can be sketched in O(depth × width) memory;
    * ``queries`` — the :data:`QUERY_KINDS` subset the sketch can answer;
    * ``kwargs_schema`` — name → type of the algorithm-specific keyword
      arguments its factory accepts (e.g. ``head_size`` for ℓ2-S/R).
    """

    #: short name used in result tables (e.g. ``"l2_sr"``)
    name: str
    #: human-readable label matching the paper's figure legends (e.g. ``"ℓ2-S/R"``)
    label: str
    #: the constructor, called as ``factory(dimension, width, depth, seed, **kwargs)``
    factory: SketchFactory
    #: whether the sketch is linear (mergeable in the distributed model)
    linear: bool
    #: whether batched ingestion reproduces scalar replay exactly; true for
    #: every linear sketch and for the segmented conservative-update kinds
    exact_batch: bool = False
    #: whether the sketch is one of the paper's contributions (vs a baseline)
    bias_aware: bool = False
    #: whether the sketch supports single-update streaming ingestion
    streaming: bool = True
    #: whether the sketch supports hashed-key mode (``dimension=None``)
    unbounded: bool = False
    #: the query kinds the sketch can answer (subset of :data:`QUERY_KINDS`)
    queries: FrozenSet[str] = ALL_QUERY_KINDS
    #: algorithm-specific keyword arguments: name -> expected type
    kwargs_schema: Mapping[str, type] = field(default_factory=dict)

    def supports_query(self, kind: str) -> bool:
        """Whether the sketch can answer queries of ``kind``."""
        return kind in self.queries

    def supported_queries(self) -> List[str]:
        """The supported query kinds, in canonical dispatch order."""
        return [kind for kind in QUERY_KINDS if kind in self.queries]

    def validate_kwargs(self, kwargs: Mapping[str, Any]) -> Dict[str, Any]:
        """Check algorithm-specific kwargs against the schema and return them.

        Unknown names and mis-typed values raise ``ValueError``/``TypeError``
        naming the offending argument and the accepted schema, so a bad
        :class:`~repro.api.SketchConfig` fails at construction time.
        """
        validated: Dict[str, Any] = {}
        for key, value in kwargs.items():
            if key not in self.kwargs_schema:
                accepted = ", ".join(sorted(self.kwargs_schema)) or "none"
                raise ValueError(
                    f"sketch {self.name!r} does not accept the keyword "
                    f"argument {key!r}; accepted algorithm-specific "
                    f"arguments: {accepted}"
                )
            expected = self.kwargs_schema[key]
            if value is None:
                validated[key] = None
                continue
            # numpy scalars are first-class citizens in this library: coerce
            # them (and plain ints offered for floats) to the schema type
            if expected is int and isinstance(value, np.integer):
                value = int(value)
            if expected is float and isinstance(value, (np.integer, np.floating)):
                value = float(value)
            if expected is float and isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            wrong_type = not isinstance(value, expected)
            bool_masquerading = isinstance(value, bool) and expected is not bool
            if wrong_type or bool_masquerading:
                raise TypeError(
                    f"sketch {self.name!r} expects {key!r} to be "
                    f"{expected.__name__}, got {type(value).__name__}"
                )
            validated[key] = value
        return validated

    def build(
        self,
        dimension: int,
        width: int,
        depth: int,
        seed: RandomSource = None,
        **kwargs: Any,
    ) -> Sketch:
        """Construct the sketch, validating algorithm-specific kwargs."""
        options = self.validate_kwargs(kwargs)
        return self.factory(dimension, width, depth, seed, **options)

    def describe(self) -> Dict[str, Any]:
        """A plain-dict summary of the spec (used by CLI listings and docs)."""
        return {
            "name": self.name,
            "label": self.label,
            "linear": self.linear,
            "exact_batch": self.exact_batch,
            "bias_aware": self.bias_aware,
            "streaming": self.streaming,
            "unbounded": self.unbounded,
            "queries": self.supported_queries(),
            "kwargs": {key: t.__name__ for key, t in sorted(self.kwargs_schema.items())},
        }


_REGISTRY: Dict[str, SketchSpec] = {}


def register_sketch(
    name: str,
    label: str,
    factory: SketchFactory,
    linear: bool,
    exact_batch: Optional[bool] = None,
    bias_aware: bool = False,
    streaming: bool = True,
    unbounded: bool = False,
    queries: Optional[FrozenSet[str]] = None,
    kwargs_schema: Optional[Mapping[str, type]] = None,
    overwrite: bool = False,
) -> SketchSpec:
    """Register a sketch constructor under ``name`` and return its spec.

    ``exact_batch`` defaults to ``linear``: a linear sketch's batched
    ingestion is a scatter-add and trivially reproduces scalar replay.
    Non-linear kinds whose ``update_batch`` preserves stream order exactly
    (the segmented conservative-update kinds) pass ``exact_batch=True``
    explicitly.
    """
    if not name:
        raise ValueError("sketch name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"sketch {name!r} is already registered")
    queries = ALL_QUERY_KINDS if queries is None else frozenset(queries)
    unknown = queries - ALL_QUERY_KINDS
    if unknown:
        raise ValueError(
            f"unknown query kinds {sorted(unknown)}; known kinds: "
            f"{list(QUERY_KINDS)}"
        )
    spec = SketchSpec(
        name=name,
        label=label,
        factory=factory,
        linear=linear,
        exact_batch=linear if exact_batch is None else exact_batch,
        bias_aware=bias_aware,
        streaming=streaming,
        unbounded=unbounded,
        queries=queries,
        kwargs_schema=dict(kwargs_schema or {}),
    )
    _REGISTRY[name] = spec
    return spec


def unregister_sketch(name: str) -> None:
    """Remove a registered sketch (primarily for tests registering fakes)."""
    _REGISTRY.pop(name, None)


def available_sketches(include_bias_aware: bool = True) -> List[str]:
    """Names of all registered sketches, deterministically sorted.

    Baselines come first, then the bias-aware algorithms; within each group
    names are sorted alphabetically, so the listing is stable across
    interpreter runs.
    """
    _ensure_core_registered()
    names = sorted(
        _REGISTRY,
        key=lambda name: (_REGISTRY[name].bias_aware, name),
    )
    if include_bias_aware:
        return names
    return [name for name in names if not _REGISTRY[name].bias_aware]


def get_spec(name: str) -> SketchSpec:
    """Look up the spec of a registered sketch, raising ``KeyError`` if unknown."""
    _ensure_core_registered()
    if name not in _REGISTRY:
        known = ", ".join(available_sketches())
        raise KeyError(f"unknown sketch {name!r}; available: {known}")
    return _REGISTRY[name]


def paper_reference_suite() -> List[str]:
    """The six algorithms compared throughout Section 5 of the paper.

    Order matches the figure legends: the two bias-aware sketches first, then
    Count-Sketch, Count-Median, CM-CU and CML-CU.
    """
    _ensure_core_registered()
    return [
        "l1_sr",
        "l2_sr",
        "count_sketch",
        "count_median",
        "count_min_cu",
        "count_min_log_cu",
    ]


def mean_heuristic_suite() -> List[str]:
    """The algorithms of the mean-heuristic comparison (Figures 8 and 9)."""
    _ensure_core_registered()
    return ["l1_sr", "l2_sr", "l1_mean", "l2_mean"]


def _ensure_core_registered() -> None:
    """Import :mod:`repro.core` so the bias-aware sketches are registered."""
    import repro.core  # noqa: F401  (import for its registration side effect)


# --------------------------------------------------------------------------- #
# baseline registrations
# --------------------------------------------------------------------------- #
register_sketch(
    "count_min",
    "CM (plain Count-Min)",
    lambda n, s, d, seed, **kw: CountMin(n, s, d, seed=seed, **kw),
    linear=True,
    unbounded=True,
)
register_sketch(
    "count_median",
    "CM (Count-Median)",
    lambda n, s, d, seed, **kw: CountMedian(n, s, d, seed=seed, **kw),
    linear=True,
    unbounded=True,
)
register_sketch(
    "count_sketch",
    "CS (Count-Sketch)",
    lambda n, s, d, seed, **kw: CountSketch(n, s, d, seed=seed, **kw),
    linear=True,
    unbounded=True,
)
register_sketch(
    "count_min_cu",
    "CM-CU (conservative update)",
    lambda n, s, d, seed, **kw: CountMinCU(n, s, d, seed=seed, **kw),
    linear=False,
    exact_batch=True,
    unbounded=True,
)
register_sketch(
    "count_min_log_cu",
    "CML-CU (Count-Min-Log, conservative update)",
    lambda n, s, d, seed, **kw: CountMinLogCU(n, s, d, seed=seed, **kw),
    linear=False,
    exact_batch=True,
    unbounded=True,
    kwargs_schema={"base": float},
)
register_sketch(
    "debiased_count_min",
    "Debiased Count-Min (Deng & Rafiei)",
    lambda n, s, d, seed, **kw: DebiasedCountMin(n, s, d, seed=seed, **kw),
    linear=True,
)
