"""Unit tests for the k-wise independent hash families."""

import itertools

import numpy as np
import pytest

from repro.hashing.families import (
    MERSENNE_PRIME_61,
    KWiseHash,
    PairwiseHash,
    _MIX_INCREMENT,
    _MIX_MULTIPLIER_1,
    _MIX_MULTIPLIER_2,
    _mix_scalar,
    hash_family,
    hash_key,
    hash_matrix,
)
from repro.hashing.signs import SignHash, sign_key, sign_matrix


class TestKWiseHashBasics:
    def test_outputs_in_range(self):
        h = KWiseHash(range_size=17, seed=1)
        values = [h(i) for i in range(500)]
        assert all(0 <= v < 17 for v in values)

    def test_deterministic_given_seed(self):
        a = KWiseHash(64, seed=5)
        b = KWiseHash(64, seed=5)
        assert [a(i) for i in range(100)] == [b(i) for i in range(100)]

    def test_different_seeds_give_different_functions(self):
        a = KWiseHash(1024, seed=1)
        b = KWiseHash(1024, seed=2)
        assert [a(i) for i in range(50)] != [b(i) for i in range(50)]

    def test_rejects_negative_input(self):
        h = KWiseHash(8, seed=0)
        with pytest.raises(ValueError):
            h(-1)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            KWiseHash(0, seed=0)

    def test_independence_parameter_stored(self):
        h = KWiseHash(8, independence=4, seed=0)
        assert h.independence == 4
        assert len(h.coefficients) == 4


class TestVectorisedAgreement:
    def test_hash_array_matches_scalar(self):
        h = KWiseHash(97, independence=3, seed=11)
        items = np.arange(1_000)
        vectorised = h.hash_array(items)
        scalar = np.array([h(int(i)) for i in items])
        np.testing.assert_array_equal(vectorised, scalar)

    def test_hash_all_equals_hash_array_of_range(self):
        h = PairwiseHash(33, seed=3)
        np.testing.assert_array_equal(h.hash_all(200), h.hash_array(np.arange(200)))

    def test_large_inputs_near_field_size(self):
        h = PairwiseHash(1_000, seed=9)
        large = np.array([MERSENNE_PRIME_61 - 2, MERSENNE_PRIME_61 - 1_000_000])
        vectorised = h.hash_array(large)
        scalar = [h(int(v)) for v in large]
        np.testing.assert_array_equal(vectorised, scalar)

    def test_full_64_bit_inputs_handled_consistently(self):
        """Inputs above the field size are folded by the input mixer + mod p."""
        h = PairwiseHash(10, seed=0)
        huge = np.array([2**64 - 1, 2**63, MERSENNE_PRIME_61], dtype=np.uint64)
        vectorised = h.hash_array(huge)
        scalar = [h(int(v)) for v in huge]
        np.testing.assert_array_equal(vectorised, scalar)
        assert all(0 <= value < 10 for value in vectorised)


def _unmix(value: int) -> int:
    """The key whose splitmix64 mix is ``value`` (the finalizer is a bijection)."""
    mask = (1 << 64) - 1

    def unshift(v: int, shift: int) -> int:
        # inverse of v ^= v >> shift
        result = v
        for step in range(shift, 64, shift):
            result ^= v >> step
        return result

    value = unshift(value, 31)
    value = (value * pow(_MIX_MULTIPLIER_2, -1, 1 << 64)) & mask
    value = unshift(value, 27)
    value = (value * pow(_MIX_MULTIPLIER_1, -1, 1 << 64)) & mask
    value = unshift(value, 30)
    return (value - _MIX_INCREMENT) & mask


#: raw keys at the uint64 and field edges, then keys whose mixed value
#: (the polynomial's argument x) sits at the 32-bit split and field edges
_EDGE_KEYS = [0, 1, 2**32 - 1, 2**32, 2**61 - 2, 2**61 - 1, 2**61,
              2**63 - 1, 2**64 - 1]
_EDGE_KEYS += [_unmix(x) for x in (0, 1, 2**32 - 1, 2**32,
                                   MERSENNE_PRIME_61 - 1, MERSENNE_PRIME_61,
                                   2**64 - 1)]
_EDGE_COEFFICIENTS = [0, 1, 2**32 - 1, 2**32, MERSENNE_PRIME_61 - 1]


def test_unmix_inverts_the_mixer():
    assert _mix_scalar(_unmix(MERSENNE_PRIME_61 - 1)) == MERSENNE_PRIME_61 - 1
    assert _mix_scalar(_unmix(2**64 - 1)) == 2**64 - 1


@pytest.mark.parametrize("independence", [1, 2, 3, 4])
@pytest.mark.parametrize("width", [1, 2, 1000, 2048, 2**16])
def test_kernel_matches_scalar_oracle_at_its_bounds(width, independence):
    """hash_matrix / sign_matrix equal the exact-integer __call__s at the
    edges of every partial product's bound."""
    hashes, signs = [], []
    # one row per pair of edge values, repeated over the coefficient slots
    pairs = itertools.product(_EDGE_COEFFICIENTS, repeat=2)
    for row, pair in enumerate(pairs):
        coefficients = list(pair * 2)[:independence]
        h = KWiseHash(width, independence=independence, seed=row)
        h.coefficients = coefficients
        hashes.append(h)
        r = SignHash(independence=independence, seed=row)
        r._bit_hash.coefficients = list(coefficients)
        signs.append(r)
    keys = np.array(_EDGE_KEYS, dtype=np.uint64)
    expected = np.array([[h(key) for key in _EDGE_KEYS] for h in hashes])
    np.testing.assert_array_equal(hash_matrix(hashes, keys), expected)
    expected_signs = np.array([[r(key) for key in _EDGE_KEYS] for r in signs])
    np.testing.assert_array_equal(sign_matrix(signs, keys), expected_signs)
    # the cold scalar path of the counter tables
    assert [hash_key(hashes, key) for key in _EDGE_KEYS] == expected.T.tolist()
    assert [sign_key(signs, key) for key in _EDGE_KEYS] == (
        expected_signs.T.tolist()
    )


class TestDistributionQuality:
    def test_buckets_are_roughly_uniform(self):
        h = PairwiseHash(16, seed=7)
        assignments = h.hash_all(16_000)
        counts = np.bincount(assignments, minlength=16)
        # each bucket expects 1000 items; allow generous slack
        assert counts.min() > 700
        assert counts.max() < 1300

    def test_pairwise_collision_rate_close_to_uniform(self):
        range_size = 128
        trials = 40
        collisions = 0
        pairs = 0
        for seed in range(trials):
            h = PairwiseHash(range_size, seed=seed)
            a, b = h(12345), h(67890)
            collisions += a == b
            pairs += 1
        # expected collision probability 1/128 ≈ 0.008; allow wide slack
        assert collisions / pairs < 0.15


class TestHashFamily:
    def test_family_size(self):
        family = hash_family(5, 32, seed=1)
        assert len(family) == 5

    def test_family_members_are_distinct_functions(self):
        family = hash_family(3, 1_024, seed=2)
        outputs = [tuple(h(i) for i in range(40)) for h in family]
        assert len(set(outputs)) == 3

    def test_family_reproducible(self):
        first = hash_family(4, 64, seed=10)
        second = hash_family(4, 64, seed=10)
        for a, b in zip(first, second):
            assert [a(i) for i in range(30)] == [b(i) for i in range(30)]

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            hash_family(0, 8, seed=0)
