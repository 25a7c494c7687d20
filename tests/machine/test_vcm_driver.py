"""Tests for the VCM workload driver."""

import random
from types import SimpleNamespace

import pytest

from repro.analytical.base import MachineConfig
from repro.analytical.vcm import VCM
from repro.cache import DirectMappedCache, PrimeMappedCache
from repro.machine import CCMachine, MMMachine, VCMDriver
from repro.machine.ops import (
    BASE1,
    BASE2,
    COUNTS1,
    COUNTS2,
    EXPECT1,
    EXPECT2,
    KIND,
    LENGTH,
    LOAD,
    PAIRED,
    STRIDE1,
    STRIDE2,
)


def mm_machine(banks=32, t_m=8):
    return MMMachine(MachineConfig(num_banks=banks, memory_access_time=t_m))


def cc_machine(cache, banks=32, t_m=8):
    cfg = MachineConfig(num_banks=banks, memory_access_time=t_m,
                        cache_lines=cache.total_lines)
    return CCMachine(cfg, cache)


class TestDriverMechanics:
    def test_reproducible_with_seed(self):
        vcm = VCM(blocking_factor=256, reuse_factor=4, p_ds=0.25)
        a = VCMDriver(mm_machine(), seed=3).run(vcm)
        # fresh machine, same seed
        b = VCMDriver(mm_machine(), seed=3).run(vcm)
        assert a.cycles_per_result == b.cycles_per_result

    def test_different_seeds_differ(self):
        vcm = VCM(blocking_factor=256, reuse_factor=4, p_ds=0.25)
        a = VCMDriver(mm_machine(), seed=1).run(vcm)
        b = VCMDriver(mm_machine(), seed=2).run(vcm)
        assert a.cycles_per_result != b.cycles_per_result

    def test_results_count_first_stream_only(self):
        vcm = VCM(blocking_factor=128, reuse_factor=2, p_ds=0.5)
        driven = VCMDriver(mm_machine(), seed=0).run(vcm)
        assert driven.report.results == 128 * 2
        assert driven.report.elements > driven.report.results

    def test_problem_size_scales_blocks(self):
        vcm = VCM(blocking_factor=128, reuse_factor=2, p_ds=0.0, s2=None)
        small = VCMDriver(mm_machine(), seed=0).run(vcm, problem_size=128)
        large = VCMDriver(mm_machine(), seed=0).run(vcm, problem_size=512)
        assert large.report.elements == 4 * small.report.elements

    def test_fixed_strides_are_respected(self):
        vcm = VCM(blocking_factor=64, reuse_factor=1, p_ds=0.0, s1=7, s2=None)
        machine = mm_machine()
        VCMDriver(machine, seed=0).run(vcm)
        banks_hit = set(machine.memory.stats.bank_accesses)
        assert banks_hit == {(i * 7) % 32 for i in range(64)} | set()  # mod base

    def test_bad_stride_spec_raises(self):
        driver = VCMDriver(mm_machine())
        with pytest.raises(ValueError):
            driver._draw_stride(None, 0.5)


class TestStdlibDraws:
    """The driver draws through ``getrandbits`` with CPython's own
    rejection loop, so its draws must be the standard library's."""

    # powers of two (a stride draw below M - 1 rarely rejects, a base
    # draw below ADDRESS_SPACE = 2**28 rejects about half the time), one
    # above a power of two (half of the stride draws reject too), and
    # primes
    @pytest.mark.parametrize("modulus",
                             [2, 3, 8, 31, 64, 65, 127, 8191, 8192])
    @pytest.mark.parametrize("p_stride1", [0.0, 0.25])
    def test_draws_equal_random_random(self, modulus, p_stride1):
        for seed in range(40):
            # the draws read only the machine's stride modulus
            driver = VCMDriver(SimpleNamespace(stride_modulus=modulus),
                               seed=seed)
            stdlib = random.Random(seed)
            for _ in range(25):
                stride = driver._draw_stride("random", p_stride1)
                expected = (1 if stdlib.random() < p_stride1
                            else stdlib.randint(2, modulus))
                assert stride == expected, (seed, modulus)
                assert driver._draw_base() == stdlib.randrange(
                    VCMDriver.ADDRESS_SPACE)

    def test_no_random_stride_below_two_raises(self):
        # one bank is a valid machine, but randint(2, 1) has no value;
        # the draw must raise, not spin on getrandbits(0) == 0
        machine = MMMachine(MachineConfig(num_banks=1))
        with pytest.raises(ValueError):
            VCMDriver(machine, seed=0)._draw_stride("random", 0.0)
        with pytest.raises(ValueError):
            VCMDriver(machine, seed=0).run(
                VCM(blocking_factor=8, reuse_factor=2, p_ds=0.0,
                    p_stride1_s1=0.0, s2=None))
        fixed = VCM(blocking_factor=8, reuse_factor=2, p_ds=0.0, s1=3,
                    s2=None)
        assert VCMDriver(machine, seed=0).run(fixed).cycles_per_result > 1


#: The first block of ``VCM(B=40, R=3, p_ds)`` at two seeds, captured
#: from VCMDriver's earlier op-object form: each row's ``(length,
#: paired, base1, stride1, base2, stride2)``.  Per block VCMDriver draws
#: the first vector's base, then its stride; per sweep the second
#: vector's stride, then its base.  A slip in that order changes these
#: values before any cycle count moves.
FIRST_BLOCKS = {
    (1, 0.0): [(40, 0, 72136254, 14, 0, 0)] * 3,
    (2, 0.0): [(40, 0, 30360787, 1, 0, 0)] * 3,
    (1, 0.3): [
        (12, 0, 72136254, 14, 0, 0), (12, 0, 72136422, 14, 0, 0),
        (12, 0, 72136590, 14, 0, 0), (4, 4, 72136758, 14, 63307121, 6),
        (8, 0, 63307145, 6, 0, 0),
        (12, 0, 72136254, 14, 0, 0), (12, 0, 72136422, 14, 0, 0),
        (12, 0, 72136590, 14, 0, 0), (4, 4, 72136758, 14, 253534732, 9),
        (8, 0, 253534768, 9, 0, 0),
        (12, 0, 72136254, 14, 0, 0), (12, 0, 72136422, 14, 0, 0),
        (12, 0, 72136590, 14, 0, 0), (4, 4, 72136758, 14, 112718629, 14),
        (8, 0, 112718685, 14, 0, 0),
    ],
    (2, 0.3): [
        (12, 0, 30360787, 1, 0, 0), (12, 0, 30360799, 1, 0, 0),
        (12, 0, 30360811, 1, 0, 0), (4, 4, 30360823, 1, 165429503, 4),
        (8, 0, 165429519, 4, 0, 0),
        (12, 0, 30360787, 1, 0, 0), (12, 0, 30360799, 1, 0, 0),
        (12, 0, 30360811, 1, 0, 0), (4, 4, 30360823, 1, 19184782, 5),
        (8, 0, 19184802, 5, 0, 0),
        (12, 0, 30360787, 1, 0, 0), (12, 0, 30360799, 1, 0, 0),
        (12, 0, 30360811, 1, 0, 0), (4, 4, 30360823, 1, 231214002, 4),
        (8, 0, 231214018, 4, 0, 0),
    ],
}


class TestBlockTables:
    @pytest.mark.parametrize("seed, p_ds", sorted(FIRST_BLOCKS))
    def test_first_block_pins_draw_order(self, seed, p_ds):
        vcm = VCM(blocking_factor=40, reuse_factor=3, p_ds=p_ds,
                  s2=None if p_ds == 0 else "random")
        driver = VCMDriver(mm_machine(banks=16, t_m=4), seed=seed)
        table = next(iter(driver.block_streams(vcm, 80)))
        columns = [LENGTH, PAIRED, BASE1, STRIDE1, BASE2, STRIDE2]
        assert ([tuple(row) for row in table.rows[:, columns].tolist()]
                == FIRST_BLOCKS[seed, p_ds])
        assert (table.rows[:, KIND] == LOAD).all()

    def test_sweep_flags(self):
        """The first sweep loads, later sweeps expect cached data; the
        second vector (its pair slots and its tail) counts no results."""
        vcm = VCM(blocking_factor=40, reuse_factor=3, p_ds=0.3)
        table = next(iter(VCMDriver(mm_machine(), seed=0)
                          .block_streams(vcm)))
        assert table.rows[:, EXPECT1].tolist() == (
            [0] * 5 + [1, 1, 1, 1, 0] * 2)
        assert table.rows[:, COUNTS1].tolist() == [1, 1, 1, 1, 0] * 3
        assert not table.rows[:, [EXPECT2, COUNTS2]].any()


class TestCrossValidation:
    """The executable machines should track the analytical equations."""

    def seeds_mean(self, make_machine, vcm, seeds=5):
        total = 0.0
        for seed in range(seeds):
            total += VCMDriver(make_machine(), seed=seed).run(vcm).cycles_per_result
        return total / seeds

    def test_mm_single_stream_matches_model(self):
        from repro.analytical.mm import MMModel

        vcm = VCM(blocking_factor=1024, reuse_factor=1, p_ds=0.0, s2=None,
                  p_stride1_s1=0.25)
        cfg = MachineConfig(num_banks=32, memory_access_time=8)
        predicted = MMModel(cfg).cycles_per_result(vcm)
        measured = self.seeds_mean(lambda: MMMachine(cfg), vcm, seeds=12)
        assert measured == pytest.approx(predicted, rel=0.30)

    def test_cc_prime_cached_sweeps_match_model(self):
        from repro.analytical.cc import PrimeMappedModel

        vcm = VCM(blocking_factor=1024, reuse_factor=16, p_ds=0.0, s2=None,
                  p_stride1_s1=0.25)
        cfg = MachineConfig(num_banks=32, memory_access_time=8,
                            cache_lines=8191)
        predicted = PrimeMappedModel(cfg).cycles_per_result(vcm)
        measured = self.seeds_mean(
            lambda: CCMachine(cfg, PrimeMappedCache(c=13)), vcm, seeds=6
        )
        assert measured == pytest.approx(predicted, rel=0.30)

    def test_ordering_prime_beats_direct_beats_mm(self):
        """Shape check at a large memory gap: the Figure-7 ordering, with a
        deterministic power-of-two stride so the direct-mapped thrashing is
        guaranteed rather than a draw of the stride lottery."""
        vcm = VCM(blocking_factor=2048, reuse_factor=32, p_ds=0.0,
                  s1=512, s2=None)
        t_m, banks = 32, 32
        mm_mean = self.seeds_mean(lambda: mm_machine(banks, t_m), vcm, seeds=2)
        direct_mean = self.seeds_mean(
            lambda: cc_machine(DirectMappedCache(num_lines=8192), banks, t_m),
            vcm, seeds=2)
        prime_mean = self.seeds_mean(
            lambda: cc_machine(PrimeMappedCache(c=13), banks, t_m),
            vcm, seeds=2)
        assert prime_mean < direct_mean
        assert prime_mean < mm_mean
        assert direct_mean > 2 * prime_mean  # thrash costs t_m per element
