"""Data-independent structure is shared, not duplicated, across replicas.

``copy()`` / ``from_state`` / ``from_bytes`` rebuild a sketch from its seed.
Before this refactor every rebuild re-materialised the O(n) structure arrays
(dense buckets and, for the bias-aware sketches, the π/ψ column sums) —
sharded ingestion paid that duplication once per worker payload merged.
Now the dense tables are gone entirely, and the remaining O(width) column
sums are memoised by structural identity: replicas built from the same
integer seed share one read-only array.
"""

import numpy as np
import pytest

from repro.core import L1BiasAwareSketch, L2BiasAwareSketch
from repro.hashing.families import hash_family, hash_matrix
from repro.hashing.signs import sign_family, sign_matrix
from repro.sketches._tables import HashedCounterTable
from repro.sketches.count_median import CountMedian
from repro.sketches.count_sketch import CountSketch
from repro.utils.rng import derive_seed


class TestColumnSumSharing:
    def test_copies_share_the_column_sums_array(self):
        original = L1BiasAwareSketch(2_000, 64, 5, seed=42)
        original.update(3, 10.0)
        clone = original.copy()
        # identity, not equality: the O(n) scan ran once and the array is
        # shared between the replicas
        assert original._pi is clone._pi

    def test_deserialized_replicas_share_structure(self):
        original = L2BiasAwareSketch(2_000, 64, 5, seed=42)
        original.update(3, 10.0)
        replicas = [
            L2BiasAwareSketch.from_bytes(original.to_bytes())
            for _ in range(3)
        ]
        arrays = {id(replica._psi) for replica in replicas}
        assert len(arrays) == 1
        assert original._psi is replicas[0]._psi

    def test_shared_structure_is_read_only(self):
        sketch = L1BiasAwareSketch(1_000, 32, 3, seed=7)
        with pytest.raises(ValueError):
            sketch._pi[0, 0] = 99.0

    def test_public_accessors_return_private_copies(self):
        """bucket_column_sums stays safely mutable for callers."""
        sketch = CountMedian(1_000, 32, 3, seed=7)
        pi = sketch.bucket_column_sums()
        pi[0, 0] += 1.0  # must not raise, must not corrupt the shared cache
        fresh = CountMedian(1_000, 32, 3, seed=7).bucket_column_sums()
        assert fresh[0, 0] == pi[0, 0] - 1.0

    def test_unseeded_tables_do_not_share(self):
        """Generator-seeded structure is not memoised (not reproducible)."""
        rng = np.random.default_rng(5)
        table = HashedCounterTable(500, 16, 3, seed=rng)
        assert table._structure_key() is None
        first = table.column_sums()
        second = table.column_sums()
        assert first is not second
        np.testing.assert_array_equal(first, second)

    def test_different_seeds_get_different_entries(self):
        a = HashedCounterTable(500, 16, 3, seed=1).column_sums()
        b = HashedCounterTable(500, 16, 3, seed=2).column_sums()
        assert a is not b

    def test_construction_no_longer_pays_the_structure_scan(self):
        """Bias-aware construction is O(depth × width): π is computed lazily."""
        sketch = L1BiasAwareSketch(2_000, 64, 5, seed=13)
        assert sketch._table._cached_column_sums is None
        sketch.query(0)
        assert sketch._table._cached_column_sums is not None


class TestHashFamilySharing:
    """An integer seed's hash and sign families are drawn once per process."""

    def test_copies_and_replicas_share_the_families(self):
        original = CountSketch(2_000, 64, 5, seed=42)
        original.update(3, 10.0)
        for replica in (original.copy(),
                        CountSketch.from_bytes(original.to_bytes())):
            assert replica._table.hashes is original._table.hashes
            assert replica._table.signs is original._table.signs

    def test_generator_seeded_tables_draw_fresh_families(self):
        tables = [
            HashedCounterTable(500, 16, 3, signed=True,
                               seed=np.random.default_rng(5))
            for _ in range(2)
        ]
        assert tables[0].hashes is not tables[1].hashes
        assert tables[0].signs is not tables[1].signs
        # drawn hashes first, then signs, from equal generators
        keys = np.arange(500)
        np.testing.assert_array_equal(tables[0].bucket_columns(keys),
                                      tables[1].bucket_columns(keys))
        np.testing.assert_array_equal(tables[0].sign_columns(keys),
                                      tables[1].sign_columns(keys))

    def test_a_restored_table_addresses_keys_as_freshly_drawn_families(self):
        seed = 77
        original = CountSketch(3 * 2**16, 64, 5, seed=seed)
        restored = CountSketch.from_bytes(original.to_bytes())._table
        hashes = hash_family(5, 64, seed=derive_seed(seed, 101))
        signs = sign_family(5, seed=derive_seed(seed, 202))
        # hot keys come from the block cache, cold ones from the families
        keys = np.arange(0, 3 * 2**16, 97)
        np.testing.assert_array_equal(restored.bucket_columns(keys),
                                      hash_matrix(hashes, keys))
        np.testing.assert_array_equal(restored.sign_columns(keys),
                                      sign_matrix(signs, keys))
        assert restored.bucket_column(3 * 2**16 - 1).tolist() == \
            [h(3 * 2**16 - 1) for h in hashes]
