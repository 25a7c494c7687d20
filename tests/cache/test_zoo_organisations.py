"""The cache-organisation zoo: hashed indexing, bicameral halves, L1/L2.

Three organisation families beyond the paper's prime mapping, each with
its defining structural guarantee held as a property over arbitrary
hypothesis-generated traces:

* ``HashedIndexCache`` — the scalar ``set_of`` and the vectorised
  ``hash_sets`` are the same function, placements are seed-determined,
  and the batched replay is bit-for-bit the scalar loop.
* ``BicameralCache`` — marked address ranges route to the vector half,
  everything else to the scalar half, and the halves are *isolated*:
  no amount of scalar traffic can evict a vector-resident line.
* ``TwoLevelCache`` — inclusion (every L1-resident line is L2-resident)
  survives any access mix, per-level hit counters partition the hits,
  and the hierarchy's hit/miss stream equals a standalone cache of the
  L2's geometry (a 1-way L2 filters nothing the L1 would have caught).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.cache import (
    BicameralCache,
    DirectMappedCache,
    HashedIndexCache,
    SetAssociativeCache,
    TwoLevelCache,
)
from repro.cache.hashed import hash_lines, hash_sets

#: address streams with enough aliasing to force evictions in every half
streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=511), st.booleans()),
    min_size=1, max_size=250,
)

seeds = st.integers(min_value=0, max_value=2**40)


def _stats_tuple(stats):
    return (stats.accesses, stats.hits, stats.misses, stats.evictions,
            stats.writes)


def _assert_batch_matches_scalar(build, pairs):
    scalar = build()
    batched = build()
    addresses = np.array([a for a, _ in pairs], dtype=np.int64)
    writes = np.array([w for _, w in pairs], dtype=bool)
    scalar_hits = [scalar.access(int(a), write=bool(w)).hit
                   for a, w in pairs]
    batch = batched.access_many(addresses, writes=writes, return_hits=True)
    assert _stats_tuple(batched.stats) == _stats_tuple(scalar.stats)
    assert batched.stats.miss_kinds == scalar.stats.miss_kinds
    assert list(batch.hits) == scalar_hits
    assert batched.resident_lines() == scalar.resident_lines()


class TestHashedIndex:
    def test_scalar_and_vector_hash_agree(self):
        lines = np.arange(-5, 200, dtype=np.int64)
        cache = HashedIndexCache(num_sets=48, seed=12345)
        vectorised = hash_sets(lines, 12345, 48)
        assert [cache.set_of(int(line)) for line in lines] == \
            list(vectorised)

    def test_non_power_of_two_sets_allowed(self):
        cache = HashedIndexCache(num_sets=23, num_ways=3, seed=1)
        for i in range(100):
            assert 0 <= cache.set_of(i * 37) < 23

    def test_seed_changes_the_placement(self):
        lines = np.arange(64, dtype=np.int64)
        a = hash_sets(lines, 0, 64)
        b = hash_sets(lines, 1, 64)
        assert not np.array_equal(a, b)

    def test_pathological_stride_is_spread(self):
        """Stride == num_sets pins a conventional cache to one set; the
        hash spreads it over most of the index space."""
        cache = HashedIndexCache(num_sets=64, seed=7)
        occupied = {cache.set_of(i * 64) for i in range(64)}
        assert len(occupied) > 32

    def test_hash_lines_is_a_bijection_preimage_free(self):
        """splitmix64 finalization is invertible: no two lines collide
        before the modulus."""
        z = hash_lines(np.arange(4096, dtype=np.int64), seed=99)
        assert np.unique(z).size == 4096

    @settings(max_examples=50, deadline=None)
    @given(streams, seeds, st.booleans(), st.booleans())
    def test_batched_replay_matches_scalar(self, pairs, seed, classify,
                                           allocate):
        _assert_batch_matches_scalar(
            lambda: HashedIndexCache(
                num_sets=8, num_ways=2, seed=seed,
                classify_misses=classify, write_allocate=allocate),
            pairs)

    def test_subclass_override_falls_back_to_generic_mapping(self):
        class Pinned(HashedIndexCache):
            def set_of(self, line_address):
                return 0

        cache = Pinned(num_sets=8, seed=3)
        lines = np.arange(16, dtype=np.int64)
        assert np.array_equal(cache._map_sets_batch(lines),
                              np.zeros(16, dtype=np.int64))


class TestBicameral:
    def test_routing_follows_marked_ranges(self):
        cache = BicameralCache(scalar_sets=4, vector_c=3,
                               classify_misses=False)
        cache.mark_vector(100, 200)
        cache.mark_vector(300, 350)
        assert cache.access(150).set_index >= cache.boundary
        assert cache.access(320).set_index >= cache.boundary
        assert cache.access(0).set_index < cache.boundary
        assert cache.access(250).set_index < cache.boundary

    def test_overlapping_ranges_merge(self):
        cache = BicameralCache(scalar_sets=4, vector_c=3)
        cache.mark_vector(10, 30)
        cache.mark_vector(20, 50)
        cache.mark_vector(50, 60)  # adjacent: merges too
        assert cache._vector_bounds.tolist() == [10, 60]
        mask = cache.vector_mask(np.array([9, 10, 59, 60]))
        assert mask.tolist() == [False, True, True, False]

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            BicameralCache(scalar_sets=4, vector_c=3,
                           vector_mapping="xor")
        cache = BicameralCache(scalar_sets=4, vector_c=3)
        with pytest.raises(ValueError):
            cache.mark_vector(10, 10)
        with pytest.raises(ValueError):
            cache.mark_vector(-1, 10)

    @settings(max_examples=40, deadline=None)
    @given(streams)
    def test_halves_are_isolated(self, pairs):
        """The defining guarantee: scalar traffic never evicts a
        vector-resident line (and vice versa)."""
        cache = BicameralCache(scalar_sets=4, vector_c=3,
                               classify_misses=False)
        base = 1 << 16
        cache.mark_vector(base, base + 7)
        vector_lines = list(range(base, base + 7))
        for line in vector_lines:
            cache.access(line)
        resident = cache.vector.resident_lines()
        for address, write in pairs:  # all scalar-routed
            cache.access(address, write=write)
        assert cache.vector.resident_lines() == resident
        # and the vector re-sweep is all hits
        before = cache.stats.misses
        for line in vector_lines:
            assert cache.access(line).hit
        assert cache.stats.misses == before

    @settings(max_examples=40, deadline=None)
    @given(streams, st.sampled_from(["prime", "direct"]), st.booleans())
    def test_batched_replay_matches_scalar(self, pairs, mapping, classify):
        def build():
            cache = BicameralCache(scalar_sets=4, vector_c=3,
                                   vector_mapping=mapping,
                                   classify_misses=classify)
            cache.mark_vector(128, 256)
            cache.mark_vector(384, 420)
            return cache

        _assert_batch_matches_scalar(build, pairs)

    def test_prime_half_keeps_conflict_freedom(self):
        """A stride-8 sweep that thrashes a direct vector half sails
        through a prime one — the composition preserves the paper's
        property inside the vector half."""
        results = {}
        for mapping in ("direct", "prime"):
            cache = BicameralCache(scalar_sets=4, vector_c=3,
                                   vector_mapping=mapping,
                                   classify_misses=False)
            cache.mark_vector(0, 8 * 8)
            for _ in range(2):
                for i in range(7):
                    cache.access(i * 8)
            results[mapping] = cache.stats.hits
        assert results["direct"] == 0  # stride 8 == 2^c pins one set
        assert results["prime"] == 7   # second sweep all-hit


    @pytest.mark.parametrize("backend, default, kernel_calls", [
        ("compiled", None, 2),        # one one-way kernel call per half
        ("scalar", "compiled", 0),    # the caller's choice beats the default
    ])
    def test_halves_replay_on_the_callers_backend(
        self, monkeypatch, backend, default, kernel_calls
    ):
        calls = []
        original = kernels.replay_oneway

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(kernels, "replay_oneway", spy)
        cache = BicameralCache(scalar_sets=16, vector_c=5,
                               classify_misses=False)
        cache.mark_vector(1 << 20, 1 << 21)
        addresses = np.concatenate([np.arange(64),
                                    (1 << 20) + 5 * np.arange(64)])
        kernels.set_default_backend(default)
        try:
            batch = cache.access_many(addresses, backend=backend)
        finally:
            kernels.set_default_backend(None)
        assert len(calls) == kernel_calls
        assert batch.delta.misses == 128

class TestTwoLevel:
    def test_capacity_ordering_enforced(self):
        with pytest.raises(ValueError):
            TwoLevelCache(l1_sets=16, l2_sets=8)
        with pytest.raises(ValueError):
            TwoLevelCache(l1_sets=2, l2_sets=8, l2_hit_time=-1)

    @settings(max_examples=50, deadline=None)
    @given(streams, st.sampled_from([1, 2]), st.booleans())
    def test_inclusion_invariant(self, pairs, l1_ways, allocate):
        cache = TwoLevelCache(l1_sets=2, l2_sets=16, l1_ways=l1_ways,
                              classify_misses=False,
                              write_allocate=allocate)
        for address, write in pairs:
            cache.access(address, write=write)
            assert cache.l1.resident_lines() <= cache.l2.resident_lines()

    @settings(max_examples=50, deadline=None)
    @given(streams)
    def test_per_level_hits_partition_total(self, pairs):
        cache = TwoLevelCache(l1_sets=2, l2_sets=16, classify_misses=False)
        for address, write in pairs:
            result = cache.access(address, write=write)
            assert cache.last_level in (0, 1, 2)
            assert result.hit == (cache.last_level != 0)
        assert cache.l1_hits + cache.l2_hits == cache.stats.hits

    @settings(max_examples=50, deadline=None)
    @given(streams, st.sampled_from([1, 2]), st.booleans())
    def test_hierarchy_equals_standalone_l2(self, pairs, l1_ways,
                                            allocate):
        """With a 1-way L2, the hierarchy's hit/miss stream is exactly a
        standalone direct-mapped cache of the L2 geometry: inclusion
        means L1 can never hold a line the L2 lost."""
        hierarchy = TwoLevelCache(l1_sets=2, l2_sets=16, l1_ways=l1_ways,
                                  classify_misses=False,
                                  write_allocate=allocate)
        standalone = SetAssociativeCache(num_sets=16, num_ways=1,
                                         classify_misses=False,
                                         write_allocate=allocate)
        for address, write in pairs:
            a = hierarchy.access(address, write=write)
            b = standalone.access(address, write=write)
            assert a.hit == b.hit
        assert hierarchy.stats.misses == standalone.stats.misses

    @settings(max_examples=40, deadline=None)
    @given(streams)
    def test_batched_replay_matches_scalar(self, pairs):
        _assert_batch_matches_scalar(
            lambda: TwoLevelCache(l1_sets=2, l2_sets=16,
                                  classify_misses=False),
            pairs)

    def test_l2_hit_promotes_into_l1(self):
        cache = TwoLevelCache(l1_sets=1, l2_sets=8, classify_misses=False)
        cache.access(0)
        cache.access(1)  # evicts line 0 from the 1-line L1, not from L2
        assert cache.access(0).hit and cache.last_level == 2
        assert cache.access(0).hit and cache.last_level == 1

    def test_reset_clears_level_counters(self):
        cache = TwoLevelCache(l1_sets=2, l2_sets=8, classify_misses=False)
        for i in range(8):
            cache.access(i % 3)
        cache.reset()
        assert (cache.l1_hits, cache.l2_hits, cache.last_level) == (0, 0, 0)
        assert cache.resident_lines() == set()

    def test_dirty_l1_victim_falls_back_into_l2(self):
        """A dirty line evicted from L1 marks the (inclusion-guaranteed)
        L2 copy dirty; when L2 finally evicts it, the writeback fires."""
        cache = TwoLevelCache(l1_sets=1, l2_sets=4, classify_misses=False)
        cache.access(0, write=True)   # dirty in L1
        cache.access(1)               # L1 victim 0 -> dirtiness into L2
        assert not cache.access(2).writeback
        result = cache.access(4)      # L2 set 0 evicts line 0
        assert result.victim_line == 0
        assert result.writeback
