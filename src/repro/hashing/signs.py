"""Random sign functions ``r : [n] -> {-1, +1}`` for Count-Sketch.

A sign function is derived from a pairwise-independent hash into {0, 1},
mapped to {-1, +1}.  Pairwise independence of the signs is exactly what the
Count-Sketch variance analysis (Theorem 2 of the paper) requires.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.hashing.families import KWiseHash, hash_key, hash_matrix
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import require_positive_int


class SignHash:
    """A random ±1-valued hash function drawn from a k-wise independent family."""

    def __init__(self, independence: int = 2, seed: RandomSource = None) -> None:
        self.independence = require_positive_int(independence, "independence")
        self._bit_hash = KWiseHash(2, independence=independence, seed=seed)

    def __call__(self, item: int) -> int:
        """Return -1 or +1 for the given item."""
        return 1 if self._bit_hash(item) == 1 else -1

    def sign_array(self, items: Sequence[int]) -> np.ndarray:
        """Vectorised evaluation over a 1-D array, returning int8 ±1."""
        return sign_matrix([self], items)[0]

    def sign_all(self, domain_size: int) -> np.ndarray:
        """Evaluate the sign function on every item of ``[0, domain_size)``."""
        domain_size = require_positive_int(domain_size, "domain_size")
        return self.sign_array(np.arange(domain_size, dtype=np.uint64))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SignHash(independence={self.independence})"


def sign_matrix(signs: Sequence[SignHash], items) -> np.ndarray:
    """Fused row-stacked evaluation of a sign family on a batch of keys.

    Returns the ``(len(signs), len(items))`` int8 ±1 matrix whose entry
    ``(r, j)`` is ``signs[r](items[j])``, computed with one fused
    :func:`~repro.hashing.families.hash_matrix` pass over the underlying bit
    hashes.
    """
    if not signs:
        raise ValueError("sign_matrix needs at least one sign function")
    bits = hash_matrix([sign._bit_hash for sign in signs], items)
    # the fresh bucket buffer becomes 2·bit - 1 in place
    bits <<= 1
    bits -= 1
    return bits.astype(np.int8)


def sign_key(signs: Sequence[SignHash], item: int) -> List[int]:
    """Every sign of a family on one key, mixing the key once.

    Equals ``[r(item) for r in signs]``; see
    :func:`~repro.hashing.families.hash_key`.
    """
    return [2 * bit - 1 for bit in hash_key([r._bit_hash for r in signs], item)]


def sign_family(
    count: int,
    independence: int = 2,
    seed: RandomSource = None,
) -> List[SignHash]:
    """Draw ``count`` mutually independent sign functions."""
    count = require_positive_int(count, "count")
    rng = as_rng(seed)
    return [SignHash(independence=independence, seed=rng) for _ in range(count)]
