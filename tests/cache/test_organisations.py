"""Behavioural tests across all cache organisations."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    DirectMappedCache,
    FullyAssociativeCache,
    MissKind,
    PrimeMappedCache,
    SetAssociativeCache,
)


class TestDirectMapped:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            DirectMappedCache(num_lines=31)

    def test_index_is_bit_slice(self):
        cache = DirectMappedCache(num_lines=8)
        assert cache.set_of(0b10110) == 0b110

    def test_conflicting_lines_evict(self):
        cache = DirectMappedCache(num_lines=8)
        assert not cache.access(0).hit
        result = cache.access(8)
        assert not result.hit
        assert result.victim_line == 0
        assert not cache.access(0).hit  # evicted

    def test_power_of_two_stride_thrashes(self):
        """Stride 2^k folds a sweep onto C/2^k lines: the pathology the
        prime cache removes."""
        cache = DirectMappedCache(num_lines=64, classify_misses=True)
        for _ in range(2):  # two sweeps so revisits could hit
            for i in range(64):
                cache.access(i * 16)
        # stride 16 in a 64-line cache touches only 4 distinct lines
        assert len(cache.resident_lines()) == 4
        assert cache.stats.conflict_misses > 0

    def test_line_size_groups_words(self):
        cache = DirectMappedCache(num_lines=8, line_size_words=4)
        assert not cache.access(0).hit
        assert cache.access(3).hit   # same line
        assert not cache.access(4).hit  # next line


class TestSetAssociative:
    def test_lru_within_set(self):
        cache = SetAssociativeCache(num_sets=2, num_ways=2)
        cache.access(0)   # set 0
        cache.access(2)   # set 0
        cache.access(0)   # refresh 0
        result = cache.access(4)  # set 0, evicts LRU = 2
        assert result.victim_line == 2
        assert cache.access(0).hit

    def test_fifo_ignores_hits(self):
        cache = SetAssociativeCache(num_sets=1, num_ways=2, policy="fifo")
        cache.access(0)
        cache.access(1)
        cache.access(0)          # hit; FIFO unaffected
        result = cache.access(2)  # evicts 0 (oldest fill)
        assert result.victim_line == 0

    def test_random_policy_is_reproducible(self):
        from repro.cache.replacement import RandomPolicy

        def run(seed):
            policy = RandomPolicy(num_sets=1, num_ways=4, seed=seed)
            cache = SetAssociativeCache(num_sets=1, num_ways=4, policy=policy)
            victims = []
            for address in range(12):
                result = cache.access(address)
                victims.append(result.victim_line)
            return victims

        # a fixed literal, not just run-vs-run: the draws name way
        # indices, so any change in where fills land shows here
        assert run(7) == run(7) == [None, None, None, None,
                                    2, 1, 3, 0, 7, 8, 4, 9]

    def test_policy_geometry_mismatch(self):
        from repro.cache.replacement import LRUPolicy

        with pytest.raises(ValueError):
            SetAssociativeCache(num_sets=4, num_ways=2,
                                policy=LRUPolicy(num_sets=2, num_ways=2))

    def test_dirty_eviction_reports_writeback(self):
        cache = SetAssociativeCache(num_sets=1, num_ways=1)
        cache.access(0, write=True)
        result = cache.access(1)
        assert result.victim_line == 0
        assert result.writeback

    def test_no_write_allocate(self):
        cache = SetAssociativeCache(num_sets=4, num_ways=1, write_allocate=False)
        cache.access(0, write=True)
        assert not cache.contains(0)
        assert cache.stats.misses == 1

    def test_invalidate_all(self):
        cache = SetAssociativeCache(num_sets=4, num_ways=2)
        for address in range(8):
            cache.access(address)
        cache.invalidate_all()
        assert cache.resident_lines() == set()

    def test_describe_mentions_geometry(self):
        text = SetAssociativeCache(num_sets=4, num_ways=2).describe()
        assert "sets=4" in text and "ways=2" in text


class TestFullyAssociative:
    def test_no_conflict_misses_ever(self):
        cache = FullyAssociativeCache(num_lines=16)
        for sweep in range(3):
            for i in range(40):
                cache.access(i * 8)
        assert cache.stats.conflict_misses == 0
        assert cache.stats.misses == cache.stats.compulsory_misses + \
            cache.stats.capacity_misses

    def test_capacity_eviction_order(self):
        cache = FullyAssociativeCache(num_lines=2)
        cache.access(0)
        cache.access(1)
        cache.access(2)
        assert not cache.contains(0)
        assert cache.contains(1) and cache.contains(2)


class TestPrimeMapped:
    def test_rejects_composite_mersenne(self):
        with pytest.raises(ValueError):
            PrimeMappedCache(c=4)

    def test_allow_composite_escape_hatch(self):
        cache = PrimeMappedCache(c=4, allow_composite=True)
        assert cache.total_lines == 15

    def test_capacity_is_mersenne_prime(self):
        assert PrimeMappedCache(c=7).total_lines == 127

    def test_set_of_is_modulo(self):
        cache = PrimeMappedCache(c=5)
        assert cache.set_of(100) == 100 % 31

    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 7, 8, 16, 30, 32, 33])
    def test_any_nonmultiple_stride_is_conflict_free(self, stride):
        cache = PrimeMappedCache(c=5)
        length = cache.total_lines
        for i in range(length):
            cache.access(i * stride)
        # second sweep: all hits
        assert all(cache.access(i * stride).hit for i in range(length))
        assert cache.stats.conflict_misses == 0

    def test_stride_equal_to_modulus_self_interferes(self):
        cache = PrimeMappedCache(c=5)
        for i in range(10):
            result = cache.access(i * 31)
            assert result.set_index == 0
        assert cache.stats.misses == 10 or cache.stats.hits == 9
        # all elements collide on line 0, so nothing else is resident
        assert len(cache.resident_lines()) == 1

    def test_lines_touched_by_stride(self):
        cache = PrimeMappedCache(c=5)
        assert cache.lines_touched_by_stride(8) == 31
        assert cache.lines_touched_by_stride(31) == 1
        assert cache.lines_touched_by_stride(62) == 1
        assert cache.lines_touched_by_stride(0) == 1

    @pytest.mark.parametrize("line_size", [2, 4])
    @pytest.mark.parametrize(
        "stride", [1, 2, 3, 4, 8, 16, 31, 62, 124, 33, 100]
    )
    def test_lines_touched_by_stride_wide_lines(self, line_size, stride):
        """Regression: the word stride must be reduced to line geometry —
        a sweep of whole-line stride ``62`` words on 2-word lines pins a
        single cache line, not the full capacity."""
        cache = PrimeMappedCache(c=5, line_size_words=line_size)
        predicted = cache.lines_touched_by_stride(stride)
        period = cache.modulus.value * cache.line_size_words
        visited = {
            cache.set_of(cache.line_of(i * stride))
            for i in range(4 * period)
        }
        assert predicted == len(visited)

    def test_lines_touched_whole_line_stride_reduces(self):
        # 62 words == 31 lines on 2-word lines: every element lands on
        # cache line 0 (the pre-fix prediction happened to coincide here;
        # the 124-word case below did not).
        cache = PrimeMappedCache(c=5, line_size_words=2)
        assert cache.lines_touched_by_stride(62) == 1
        wide = PrimeMappedCache(c=5, line_size_words=4)
        assert wide.lines_touched_by_stride(124) == 1
        assert wide.lines_touched_by_stride(4) == 31

    def test_tag_overhead_is_one_bit(self):
        assert PrimeMappedCache(c=13).tag_overhead_bits == 1

    def test_associative_prime_cache(self):
        cache = PrimeMappedCache(c=3, ways=2)
        assert cache.total_lines == 14
        cache.access(0)
        cache.access(7)  # same prime set, second way
        assert cache.access(0).hit and cache.access(7).hit

    @settings(max_examples=30)
    @given(st.sampled_from([3, 5, 7]), st.integers(min_value=1, max_value=500),
           st.integers(min_value=0, max_value=1000))
    def test_full_capacity_sweep_conflict_free(self, c, stride, start):
        """Property: any stride not a multiple of 2^c - 1, from any start,
        can cache a full-capacity vector without a single conflict miss."""
        modulus = 2**c - 1
        if stride % modulus == 0:
            return
        cache = PrimeMappedCache(c=c)
        addresses = [start + i * stride for i in range(modulus)]
        for address in addresses:
            cache.access(address)
        assert all(cache.access(address).hit for address in addresses)

    def test_direct_mapped_counterexample_for_contrast(self):
        """The same sweep that is conflict-free in the prime cache thrashes
        a direct-mapped cache of comparable size."""
        prime = PrimeMappedCache(c=5)           # 31 lines
        direct = DirectMappedCache(num_lines=32)
        stride, length = 8, 31
        for cache in (prime, direct):
            for i in range(length):
                cache.access(i * stride)
            for i in range(length):
                cache.access(i * stride)
        assert prime.stats.hit_ratio > 0.45          # second sweep all hits
        assert direct.stats.hit_ratio < 0.45         # folded onto 4 lines


class TestThreeCAccounting:
    def test_kinds_partition_misses(self):
        cache = DirectMappedCache(num_lines=16)
        for i in range(200):
            cache.access((i * 5) % 97)
        stats = cache.stats
        assert stats.misses == sum(stats.miss_kinds[k] for k in MissKind)

    def test_reset_clears_everything(self):
        cache = PrimeMappedCache(c=5)
        for i in range(40):
            cache.access(i)
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.resident_lines() == set()
        assert cache.access(0).miss_kind is MissKind.COMPULSORY

    def test_run_trace_returns_stats(self):
        cache = DirectMappedCache(num_lines=8)
        stats = cache.run_trace(range(16))
        assert stats.accesses == 16
        assert stats.misses == 16

    def test_classifier_can_be_disabled(self):
        cache = DirectMappedCache(num_lines=8, classify_misses=False)
        result = cache.access(0)
        assert result.miss_kind is None
        assert cache.stats.misses == 1


def test_gcd_footprint_matches_theory():
    """Cross-check: a stride-s sweep in a direct-mapped cache touches
    C/gcd(C, s) lines; in the prime cache, modulus/gcd(modulus, s)."""
    direct = DirectMappedCache(num_lines=64)
    prime = PrimeMappedCache(c=5)
    for stride in (2, 3, 6, 8, 12, 31):
        direct.reset()
        prime.reset()
        for i in range(1000):
            direct.access(i * stride)
            prime.access(i * stride)
        assert len(direct.resident_lines()) == 64 // math.gcd(64, stride)
        assert len(prime.resident_lines()) == 31 // math.gcd(31, stride)
