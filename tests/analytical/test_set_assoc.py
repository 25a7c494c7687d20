"""Tests for the set-associative analytical model (Section 2.1)."""

import pytest

from repro.analytical.base import MachineConfig
from repro.analytical.cc import DirectMappedModel, PrimeMappedModel
from repro.analytical.set_assoc import SetAssociativeModel
from repro.analytical.vcm import VCM


def config(**kw):
    defaults = dict(num_banks=32, memory_access_time=16, cache_lines=8192)
    defaults.update(kw)
    return MachineConfig(**defaults)


class TestConstruction:
    def test_sets_derived(self):
        model = SetAssociativeModel(config(), ways=4)
        assert model.sets == 2048

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeModel(config(), ways=0)
        with pytest.raises(ValueError):
            SetAssociativeModel(config(), ways=3)  # 8192/3 not integral
        with pytest.raises(ValueError):
            SetAssociativeModel(config(cache_lines=8191), ways=1)  # odd sets


class TestCyclicLRURule:
    def test_fit_within_ways_is_free(self):
        model = SetAssociativeModel(config(cache_lines=64), ways=4)  # 16 sets
        # stride 16: gcd = 16, per-set lines = B * 16/16 = B... choose B=4
        assert model.self_stalls_for_stride(4, 16) == 0.0

    def test_oversubscription_misses_everything(self):
        model = SetAssociativeModel(config(cache_lines=64), ways=4)
        # stride 16 with B = 8: 8 lines cycle through one set of 4 ways
        assert model.self_stalls_for_stride(8, 16) == 8 * 16

    def test_unit_stride_clean_within_capacity(self):
        model = SetAssociativeModel(config(), ways=8)
        assert model.self_stalls_for_stride(8192, 1) == 0.0

    def test_zero_stride(self):
        model = SetAssociativeModel(config(cache_lines=64), ways=4)
        assert model.self_stalls_for_stride(8, 0) == 8 * 16

    def test_matches_trace_simulation(self):
        """The all-or-nothing rule is what an actual LRU set-associative
        cache does on cyclic strided sweeps."""
        from repro.cache import SetAssociativeCache
        from repro.trace.patterns import strided
        from repro.trace.replay import replay

        cache_lines, ways, t_m = 64, 4, 16
        model = SetAssociativeModel(
            config(cache_lines=cache_lines, memory_access_time=t_m), ways=ways
        )
        for stride, block in [(16, 8), (16, 4), (8, 16), (4, 40), (1, 60),
                              (2, 33)]:
            cache = SetAssociativeCache(num_sets=cache_lines // ways,
                                        num_ways=ways)
            result = replay(strided(0, stride, block, sweeps=2), cache,
                            t_m=t_m)
            predicted = model.self_stalls_for_stride(block, stride)
            assert result.stall_cycles == pytest.approx(predicted), \
                (stride, block)


class TestAssociativitySweep:
    def test_associativity_does_not_help_cyclic_sweeps(self):
        """Section 2.1's dismissal, made exact: a set of a k-way cache
        over-subscribes when ``B * gcd(S, s) / S > k``, i.e. when
        ``B * gcd / C > 1`` — *independent of k*.  For cyclic strided
        reuse, LRU associativity buys nothing at fixed capacity."""
        for k in (2, 4, 8):
            model = SetAssociativeModel(config(), ways=k)
            one_way = SetAssociativeModel(config(), ways=1)
            for block in (1024, 4096):
                assert model.self_interference(block, 0.25, "random") == \
                    pytest.approx(
                        one_way.self_interference(block, 0.25, "random"),
                        rel=1e-3,
                    )

    def test_associativity_near_equal_cycles(self):
        vcm = VCM(blocking_factor=4096, reuse_factor=4096, p_ds=0.1)
        cycles = [
            SetAssociativeModel(config(), ways=k).cycles_per_result(vcm)
            for k in (1, 2, 4, 8)
        ]
        assert max(cycles) - min(cycles) < 0.01 * min(cycles)

    def test_prime_beats_any_associativity(self):
        """The paper's bottom line: even 8-way LRU keeps more interference
        than the direct-lookup prime cache."""
        vcm = VCM(blocking_factor=4096, reuse_factor=4096, p_ds=0.1)
        eight_way = SetAssociativeModel(config(), ways=8).cycles_per_result(vcm)
        prime = PrimeMappedModel(config(cache_lines=8191)).cycles_per_result(vcm)
        assert prime < eight_way

    def test_one_way_close_to_direct_model(self):
        """k = 1 uses the cyclic (pessimistic) rule; it upper-bounds the
        paper's Eq. (5) count but tracks its shape."""
        vcm = VCM(blocking_factor=4096, reuse_factor=4096, p_ds=0.1)
        cyclic = SetAssociativeModel(config(), ways=1).cycles_per_result(vcm)
        eq5 = DirectMappedModel(config()).cycles_per_result(vcm)
        assert cyclic >= eq5 - 1e-9
        assert cyclic < 3 * eq5


class TestGcdClassSums:
    @pytest.mark.parametrize("cache_lines,ways", [
        (64, 1), (64, 2), (64, 64), (1024, 8), (8192, 4)])
    def test_equal_to_stride_enumeration(self, cache_lines, ways):
        """The random-stride sums run over gcd classes; every summand is
        an integer, so they equal the stride-by-stride sums bit for bit."""
        from repro.verify.oracles import StrideEnumeratedAssocModel

        cfg = config(cache_lines=cache_lines, memory_access_time=32)
        model = SetAssociativeModel(cfg, ways=ways)
        reference = StrideEnumeratedAssocModel(cfg, ways=ways)
        for block in (1, 63, cache_lines // 2, 819.1, cache_lines,
                      3 * cache_lines):
            for p_stride1 in (0.0, 0.25, 1.0):
                got = model.self_interference(block, p_stride1, "random")
                assert type(got) is float
                assert got == reference.self_interference(
                    block, p_stride1, "random"), (block, p_stride1)
                assert model.expected_footprint(block, p_stride1) == \
                    reference.expected_footprint(block, p_stride1)
