"""K-wise independent hash families over a Mersenne-prime field.

A k-wise independent family is realised as a random degree-(k-1) polynomial
over GF(p) with p = 2^61 - 1, reduced modulo the target range::

    h(x) = (a_{k-1} x^{k-1} + ... + a_1 x + a_0 mod p) mod range_size

where ``x`` is the key after the splitmix64 finalizer, reduced mod p.  For
k = 2 this is the classical pairwise-independent multiply-mod-prime
construction used by Count-Min / Count-Median / Count-Sketch; the paper's
analysis needs only second moments (Section 4.4), so every sketch uses it.
Payloads carry only the seed, so the hash values are part of the wire format.

Three evaluators compute the same values exactly:

* ``KWiseHash.__call__``: one key, in python integers; the reference.
* :func:`hash_key`: every hash of a family on one key, mixing it once.
* :func:`hash_matrix`: a family on a batch of keys, in numpy ``uint64``.
  ``hash_array`` and ``hash_all`` are one-row calls of it, and every
  vectorised sign evaluator of :mod:`repro.hashing.signs` runs on it.

:func:`hash_matrix` evaluates the polynomial by Horner's rule, one step
``(a·x + c) mod p`` at a time (``a`` the accumulator, ``c`` the next
coefficient), in place in three ``(depth, n)`` uint64 buffers
(:func:`_horner_step`).  With ``a, x < p`` the product reaches
2^122, so both are split into 32-bit halves, ``a = a_hi·2^32 + a_lo`` and
``x = x_hi·2^32 + x_lo`` (``a_hi, x_hi < 2^29``), and each partial product
is reduced with ``2^61 ≡ 1 (mod p)``:

* ``lo = a_lo·x_lo < 2^64`` folds once, ``(lo >> 61) + (lo & p) < p + 8``;
* ``mid = a_hi·x_lo + a_lo·x_hi < 2^62``, and ``mid·2^32 ≡ (mid >> 29) +
  ((mid & (2^29 - 1)) << 32)``, which is below ``2^61 + 2^33`` with no fold;
* ``a_hi·x_hi·2^64 ≡ (a_hi·x_hi) << 3``, which is below 2^61;
* their sum plus ``c < p`` stays below ``2^63 + 2^34``, so one fold (to at
  most ``p + 4``) and one conditional subtract land in ``[0, p)``.

The range is then reduced in the same buffer, with ``&`` when
``range_size`` is a power of two and with ``%`` otherwise.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import require_positive_int

#: The Mersenne prime 2^61 - 1 used as the field size of every hash family.
MERSENNE_PRIME_61 = (1 << 61) - 1

_MASK_32 = (1 << 32) - 1
_MASK_64 = (1 << 64) - 1

# splitmix64 finalizer constants (Steele, Lea & Flood 2014)
_MIX_INCREMENT = 0x9E3779B97F4A7C15
_MIX_MULTIPLIER_1 = 0xBF58476D1CE4E5B9
_MIX_MULTIPLIER_2 = 0x94D049BB133111EB


def _mix_scalar(value: int) -> int:
    """Apply the splitmix64 finalizer (a fixed bijection on 64-bit integers).

    Frequency-vector indices arrive as consecutive integers 0, 1, 2, ...;
    evaluating two independent linear polynomials mod p on consecutive inputs
    leaves them jointly sitting on a 1-D lattice, which for unlucky
    coefficient draws correlates the bucket choice of one hash with the sign
    of another (a classic LCG-style artefact).  Composing the polynomial with
    a *fixed* bijective avalanche permutation keeps every k-wise independence
    guarantee (the coefficients are still uniformly random over GF(p)) while
    destroying that arithmetic structure.
    """
    value = (value + _MIX_INCREMENT) & _MASK_64
    value ^= value >> 30
    value = (value * _MIX_MULTIPLIER_1) & _MASK_64
    value ^= value >> 27
    value = (value * _MIX_MULTIPLIER_2) & _MASK_64
    value ^= value >> 31
    return value


def _mix_array(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finalizer (uint64 arithmetic wraps modulo 2^64)."""
    v = values.astype(np.uint64, copy=True)
    v += np.uint64(_MIX_INCREMENT)
    v ^= v >> np.uint64(30)
    v *= np.uint64(_MIX_MULTIPLIER_1)
    v ^= v >> np.uint64(27)
    v *= np.uint64(_MIX_MULTIPLIER_2)
    v ^= v >> np.uint64(31)
    return v


def _fold61(x: np.ndarray) -> np.ndarray:
    """Exact ``x mod MERSENNE_PRIME_61`` for uint64 ``x``, division-free.

    Uses the Mersenne identity ``2^61 ≡ 1 (mod p)``: writing
    ``x = q·2^61 + r`` gives ``x ≡ q + r``, and ``q + r < p + 9`` for any
    64-bit ``x``, so one conditional subtract completes the reduction.
    """
    p = np.uint64(MERSENNE_PRIME_61)
    folded = (x >> np.uint64(61)) + (x & p)
    # branch-free conditional subtract: folded < 2^62, so when folded < p the
    # wrapped difference folded - p exceeds 2^63 and minimum keeps folded,
    # and when folded >= p the difference is the reduced value
    return np.minimum(folded, folded - p)


def _horner_step(a, x_hi: np.ndarray, x_lo: np.ndarray, c: np.ndarray,
                 out: np.ndarray, mid: np.ndarray, tmp: np.ndarray) -> None:
    """``out = (a·x + c) mod p`` in place, with ``x = x_hi·2^32 + x_lo``.

    ``a`` (``< p``) is a ``(depth, 1)`` column on the first step and
    ``out`` itself on later ones (its halves are copied before ``out`` is
    overwritten); ``x`` (``< p``) is the ``(n,)`` key row and ``c`` the
    ``(depth, 1)`` coefficients.  ``out``, ``mid`` and ``tmp`` are
    ``(depth, n)`` uint64 buffers; a first step makes no other full-size
    array.  The bounds that keep every partial sum inside 64 bits are in
    the module docstring.
    """
    p = np.uint64(MERSENNE_PRIME_61)
    a_hi = a >> np.uint64(32)
    a_lo = a & np.uint64(_MASK_32)
    # a_hi·x_hi·2^64 ≡ (a_hi·x_hi) << 3, which is below 2^61
    np.multiply(a_hi << np.uint64(3), x_hi, out=out)
    out += c
    # mid·2^32 ≡ (mid >> 29) + ((mid & (2^29 - 1)) << 32), with mid < 2^62
    np.multiply(a_hi, x_lo, out=mid)
    np.multiply(a_lo, x_hi, out=tmp)
    mid += tmp
    np.right_shift(mid, np.uint64(29), out=tmp)
    out += tmp
    mid &= np.uint64((1 << 29) - 1)
    mid <<= np.uint64(32)
    out += mid
    # lo < 2^64 folds once to below p + 8
    np.multiply(a_lo, x_lo, out=mid)
    np.right_shift(mid, np.uint64(61), out=tmp)
    out += tmp
    mid &= p
    out += mid
    # out < 2^63 + 2^34: one fold and one conditional subtract (as in
    # _fold61) land in [0, p)
    np.right_shift(out, np.uint64(61), out=tmp)
    out &= p
    out += tmp
    np.subtract(out, p, out=tmp)
    np.minimum(out, tmp, out=out)


class KWiseHash:
    """A single hash function drawn from a k-wise independent family.

    Parameters
    ----------
    range_size:
        The size ``s`` of the hash range; outputs lie in ``{0, ..., s-1}``.
    independence:
        The independence parameter ``k`` (degree of the random polynomial plus
        one).  ``k = 2`` gives the pairwise-independent family used throughout
        the paper.
    seed:
        Seed / generator controlling the random coefficients.
    """

    def __init__(
        self,
        range_size: int,
        independence: int = 2,
        seed: RandomSource = None,
    ) -> None:
        self.range_size = require_positive_int(range_size, "range_size")
        self.independence = require_positive_int(independence, "independence")
        rng = as_rng(seed)
        # Leading coefficient non-zero keeps the polynomial degree exactly k-1;
        # pairwise independence holds either way but this matches the textbook
        # construction.
        coeffs = rng.integers(0, MERSENNE_PRIME_61, size=self.independence)
        if self.independence > 1 and coeffs[0] == 0:
            coeffs[0] = 1
        #: Polynomial coefficients, highest degree first.
        self.coefficients: List[int] = [int(c) for c in coeffs]

    def __call__(self, item: int) -> int:
        """Hash a single non-negative integer item into ``[0, range_size)``."""
        if item < 0:
            raise ValueError(f"hash input must be non-negative, got {item}")
        acc = 0
        x = _mix_scalar(int(item)) % MERSENNE_PRIME_61
        for coefficient in self.coefficients:
            acc = (acc * x + coefficient) % MERSENNE_PRIME_61
        return acc % self.range_size

    def hash_array(self, items: Sequence[int]) -> np.ndarray:
        """Vectorised evaluation over a 1-D array of non-negative integers."""
        return hash_matrix([self], items)[0]

    def hash_all(self, domain_size: int) -> np.ndarray:
        """Evaluate the hash on every item of ``[0, domain_size)`` at once."""
        domain_size = require_positive_int(domain_size, "domain_size")
        return self.hash_array(np.arange(domain_size, dtype=np.uint64))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KWiseHash(range_size={self.range_size}, "
            f"independence={self.independence})"
        )


class PairwiseHash(KWiseHash):
    """The 2-wise independent special case used by all sketches in the paper."""

    def __init__(self, range_size: int, seed: RandomSource = None) -> None:
        super().__init__(range_size, independence=2, seed=seed)


def hash_matrix(hashes: Sequence[KWiseHash], items) -> np.ndarray:
    """Fused row-stacked evaluation of a whole hash family on a batch of keys.

    Returns the C-ordered ``(len(hashes), len(items))`` bucket matrix whose
    entry ``(r, j)`` is ``hashes[r](items[j])``.  The splitmix64
    finalizer runs once for the whole batch (it is shared by every row), and
    each Horner step of the row polynomials runs in place over the
    ``(depth, n)`` buffers of :func:`_horner_step`.  The range is reduced
    with ``&`` when ``range_size`` is a power of two and with ``%``
    otherwise, in the same buffer, which comes back viewed as int64.  This
    is what lets the sketch tables compute bucket assignments on demand
    instead of materialising a ``(depth, dimension)`` table at construction.

    All hashes must share ``range_size`` and ``independence`` (they do for
    every table built by :func:`hash_family`).
    """
    if not hashes:
        raise ValueError("hash_matrix needs at least one hash function")
    range_size = hashes[0].range_size
    independence = hashes[0].independence
    for h in hashes[1:]:
        if h.range_size != range_size or h.independence != independence:
            raise ValueError(
                "hash_matrix requires all hashes to share range_size and "
                "independence"
            )
    arr = np.asarray(items, dtype=np.uint64)
    if arr.ndim != 1:
        raise ValueError(f"items must be 1-D, got shape {arr.shape}")
    coefficients = np.array(
        [h.coefficients for h in hashes], dtype=np.uint64
    )
    out = np.empty((len(hashes), arr.size), dtype=np.uint64)
    if independence == 1:
        # a degree-0 polynomial is a constant hash
        out[:] = coefficients
    else:
        x = _fold61(_mix_array(arr))
        x_hi = x >> np.uint64(32)
        x_lo = x & np.uint64(_MASK_32)
        # one allocation for both scratch buffers: when glibc frees it, its
        # dynamic mmap threshold rises to the buffer's size and the heap trim
        # threshold to twice that, so after a hot-block fill the CU batch
        # engine's per-chunk temporaries stay in the heap instead of being
        # trimmed and re-faulted on every batch
        mid, tmp = np.empty((2,) + out.shape, dtype=np.uint64)
        # Horner evaluation seeded with each row's leading coefficient (the
        # first iteration of the classical loop is a multiply by zero)
        acc = coefficients[:, :1]
        for degree in range(1, independence):
            _horner_step(acc, x_hi, x_lo, coefficients[:, degree:degree + 1],
                         out, mid, tmp)
            acc = out
    if range_size & (range_size - 1) == 0:
        out &= np.uint64(range_size - 1)
    else:
        np.remainder(out, np.uint64(range_size), out=out)
    return out.view(np.int64)


def hash_key(hashes: Sequence[KWiseHash], item: int) -> List[int]:
    """Every hash of a family on one non-negative key, in exact integers.

    Equals ``[h(item) for h in hashes]`` but runs the splitmix64 finalizer
    once for the whole family, where each ``h(item)`` would re-run it.
    """
    x = _mix_scalar(int(item)) % MERSENNE_PRIME_61
    buckets = []
    for h in hashes:
        # the polynomial's exact value, reduced mod p once
        acc = 0
        for coefficient in h.coefficients:
            acc = acc * x + coefficient
        buckets.append(acc % MERSENNE_PRIME_61 % h.range_size)
    return buckets


def hash_family(
    count: int,
    range_size: int,
    independence: int = 2,
    seed: RandomSource = None,
) -> List[KWiseHash]:
    """Draw ``count`` independent hash functions ``h_1, ..., h_count``.

    The functions are mutually independent: each consumes fresh randomness from
    a generator derived from ``seed``.
    """
    count = require_positive_int(count, "count")
    rng = as_rng(seed)
    return [
        KWiseHash(range_size, independence=independence, seed=rng)
        for _ in range(count)
    ]
