"""Tests for the cycle-level machine simulators."""

import pytest

from repro.analytical.base import MachineConfig
from repro.cache import DirectMappedCache, PrimeMappedCache
from repro.machine import (
    CCMachine,
    MMMachine,
    VectorCompute,
    VectorLoad,
    VectorStore,
)


def mm(banks=16, t_m=4, **kw):
    return MMMachine(MachineConfig(num_banks=banks, memory_access_time=t_m, **kw))


def cc(cache, banks=16, t_m=4, **kw):
    cfg = MachineConfig(
        num_banks=banks, memory_access_time=t_m,
        cache_lines=cache.total_lines, **kw,
    )
    return CCMachine(cfg, cache)


class TestMMMachine:
    def test_unit_stride_no_stalls(self):
        machine = mm()
        report = machine.execute([VectorLoad(base=0, stride=1, length=64)])
        assert report.bank_stall_cycles == 0
        assert report.elements == 64
        assert report.results == 64

    def test_bank_pathology_stalls(self):
        machine = mm(banks=16, t_m=8)
        report = machine.execute([VectorLoad(base=0, stride=16, length=64)])
        # stride == M: every element revisits bank 0
        assert report.bank_stall_cycles >= 63 * (8 - 1) - 8

    def test_overheads_accounted(self):
        machine = mm()
        cfg = machine.config
        report = machine.execute([VectorLoad(base=0, stride=1, length=128)])
        strips = 2
        expected = cfg.loop_overhead + strips * (cfg.strip_overhead + cfg.t_start)
        assert report.overhead_cycles == expected

    def test_loop_overhead_optional(self):
        machine = mm()
        report = machine.execute(
            [VectorLoad(base=0, stride=1, length=64)], add_loop_overhead=False
        )
        assert report.overhead_cycles == \
            machine.config.strip_overhead + machine.config.t_start

    def test_store_never_stalls(self):
        machine = mm(banks=4, t_m=16)
        report = machine.execute([VectorStore(base=0, stride=4, length=32)])
        assert report.bank_stall_cycles == 0
        assert report.cycles == machine.config.loop_overhead + 32

    def test_compute_costs_its_length(self):
        machine = mm()
        report = machine.execute([VectorCompute(length=10)],
                                 add_loop_overhead=False)
        assert report.cycles == 10

    def test_unknown_op_rejected(self):
        machine = mm()
        with pytest.raises(TypeError):
            machine.execute(["bogus"])

    def test_reset(self):
        machine = mm()
        machine.execute([VectorLoad(base=0, stride=1, length=64)])
        machine.reset()
        assert machine.cycle == 0
        assert machine.memory.stats.accesses == 0

    def test_report_cycle_consistency(self):
        machine = mm()
        before = machine.cycle
        report = machine.execute([VectorLoad(base=0, stride=3, length=200)])
        assert machine.cycle - before == report.cycles


class TestCCMachine:
    def test_initial_load_fills_cache_pipelined(self):
        cache = PrimeMappedCache(c=5)
        machine = cc(cache, t_m=4)
        report = machine.execute([VectorLoad(base=0, stride=3, length=31)])
        assert report.cache_misses == 31          # compulsory
        assert report.miss_stall_cycles == 0      # but pipelined

    def test_cached_sweep_hits_cost_nothing(self):
        cache = PrimeMappedCache(c=5)
        machine = cc(cache, t_m=4)
        machine.execute([VectorLoad(base=0, stride=3, length=31)])
        rerun = machine.execute(
            [VectorLoad(base=0, stride=3, length=31, expect_cached=True)]
        )
        assert rerun.cache_misses == 0
        assert rerun.miss_stall_cycles == 0

    def test_cached_miss_stalls_full_memory_time(self):
        cache = DirectMappedCache(num_lines=32)
        machine = cc(cache, t_m=8)
        # stride 8 over 32 lines folds 64 elements onto 4 lines
        machine.execute([VectorLoad(base=0, stride=8, length=64)])
        rerun = machine.execute(
            [VectorLoad(base=0, stride=8, length=64, expect_cached=True)]
        )
        assert rerun.cache_misses == 64
        assert rerun.miss_stall_cycles == 64 * 8

    def test_cached_strip_startup_reduced(self):
        cache = PrimeMappedCache(c=5)
        machine = cc(cache, t_m=4)
        cfg = machine.config
        machine.execute([VectorLoad(base=0, stride=1, length=31)])
        cached = machine.execute(
            [VectorLoad(base=0, stride=1, length=31, expect_cached=True)],
            add_loop_overhead=False,
        )
        assert cached.overhead_cycles == \
            cfg.strip_overhead + cfg.t_start - cfg.t_m

    def test_prime_vs_direct_on_power_stride(self):
        """The headline microbenchmark: same machine, same sweep, the
        prime cache turns a thrashing reuse sweep into pure hits."""
        def total_cycles(cache):
            machine = cc(cache, banks=16, t_m=8)
            length = 31
            machine.execute([VectorLoad(base=0, stride=8, length=length)])
            report = machine.execute(
                [VectorLoad(base=0, stride=8, length=length,
                            expect_cached=True)]
            )
            return report.cycles

        assert total_cycles(PrimeMappedCache(c=5)) < \
            total_cycles(DirectMappedCache(num_lines=32)) / 2

    def test_stride_modulus_is_cache_size(self):
        cache = PrimeMappedCache(c=5)
        assert cc(cache).stride_modulus == 31

    def test_reset_clears_cache(self):
        cache = PrimeMappedCache(c=5)
        machine = cc(cache)
        machine.execute([VectorLoad(base=0, stride=1, length=31)])
        machine.reset()
        assert cache.stats.accesses == 0
        assert cache.resident_lines() == set()


class TestDoubleStream:
    def test_pair_issues_on_two_buses(self):
        from repro.machine.ops import LoadPair

        machine = mm(banks=16, t_m=2)
        # bank offset 8 keeps the two unit-stride streams out of each
        # other's busy windows
        pair = LoadPair(
            VectorLoad(base=0, stride=1, length=32),
            VectorLoad(base=1032, stride=1, length=32, counts_results=False),
        )
        report = machine.execute([pair], add_loop_overhead=False)
        assert report.elements == 64
        assert report.results == 32
        assert report.bank_stall_cycles == 0
        # both streams issue in the same per-element slots: one strip
        assert report.cycles == \
            machine.config.strip_overhead + machine.config.t_start + 32

    def test_pair_same_bank_collides(self):
        from repro.machine.ops import LoadPair

        machine = mm(banks=16, t_m=2)
        # base offset 1024 === 0 (mod 16): the pair shares a bank each cycle
        pair = LoadPair(
            VectorLoad(base=0, stride=1, length=32),
            VectorLoad(base=1024, stride=1, length=32, counts_results=False),
        )
        report = machine.execute([pair], add_loop_overhead=False)
        assert report.bank_stall_cycles > 0

    def test_second_tail_runs_alone(self):
        from repro.machine.ops import LoadPair

        machine = mm()
        pair = LoadPair(
            VectorLoad(base=0, stride=1, length=8),
            VectorLoad(base=512, stride=1, length=20, counts_results=False),
        )
        report = machine.execute([pair], add_loop_overhead=False)
        assert report.elements == 28
        assert report.results == 8

    def test_second_tail_not_dropped_regression(self):
        """The strip loop iterates over the *first* stream's length; a
        longer second stream's tail used to be silently dropped.  Every
        tail element must reach the cache and the accounting, on both
        timing paths."""
        from repro.machine.ops import LoadPair

        def run(fast):
            config = MachineConfig(num_banks=16, memory_access_time=4,
                                   mvl=8, cache_lines=64)
            machine = CCMachine(
                config, DirectMappedCache(64, classify_misses=False),
                backend="compiled" if fast else "scalar",
            )
            pair = LoadPair(
                VectorLoad(base=0, stride=1, length=5),
                VectorLoad(base=100, stride=1, length=21,
                           counts_results=False),
            )
            return machine, machine.execute([pair], add_loop_overhead=False)

        for fast in (False, True):
            machine, report = run(fast)
            assert report.elements == 26
            assert report.results == 5
            # all 26 distinct lines missed once and were installed —
            # including the 16 tail elements beyond the first stream
            assert report.cache_misses == 26
            assert machine.cache.stats.accesses == 26
            resident = machine.cache.resident_lines()
            assert all(100 + i in resident for i in range(21))


class TestStartRegisterTrade:
    def test_recalculation_costs_extra_per_cached_strip(self):
        """Section 2.3's trade: without start registers, every cached
        vector re-entry pays the re-folding cycles."""
        cache_a = PrimeMappedCache(c=5)
        cache_b = PrimeMappedCache(c=5)
        with_regs = cc(cache_a, t_m=4)
        without = CCMachine(with_regs.config, cache_b,
                            start_registers=False, start_recalc_cycles=2)
        ops = [VectorLoad(base=0, stride=1, length=31)]
        cached = [VectorLoad(base=0, stride=1, length=31,
                             expect_cached=True)] * 4
        with_regs.execute(ops)
        without.execute(ops)
        a = with_regs.execute(cached, add_loop_overhead=False)
        b = without.execute(cached, add_loop_overhead=False)
        assert b.cycles - a.cycles == 4 * 2  # 4 cached strips x 2 cycles

    def test_initial_loads_unaffected(self):
        cache = PrimeMappedCache(c=5)
        machine = CCMachine(
            MachineConfig(num_banks=16, memory_access_time=4,
                          cache_lines=31),
            cache, start_registers=False,
        )
        report = machine.execute([VectorLoad(base=0, stride=1, length=31)])
        cfg = machine.config
        assert report.overhead_cycles == \
            cfg.loop_overhead + cfg.strip_overhead + cfg.t_start

    def test_rejects_negative_recalc(self):
        with pytest.raises(ValueError):
            CCMachine(
                MachineConfig(num_banks=16, memory_access_time=4,
                              cache_lines=31),
                PrimeMappedCache(c=5), start_recalc_cycles=-1,
            )


class TestFiniteWriteBuffer:
    def test_default_stores_never_stall(self):
        machine = mm(banks=4, t_m=16)
        report = machine.execute([VectorStore(base=0, stride=4, length=32)])
        assert report.store_stall_cycles == 0

    def test_finite_buffer_pushes_back_on_bank_hammer(self):
        """Same-bank store stream with a finite buffer: the paper's
        assumption breaks and the pipeline feels it."""
        machine = MMMachine(
            MachineConfig(num_banks=4, memory_access_time=16),
            write_buffer_depth=2,
        )
        report = machine.execute([VectorStore(base=0, stride=4, length=32)])
        assert report.store_stall_cycles > 0
        assert report.cycles > 32

    def test_finite_buffer_harmless_for_unit_stride(self):
        machine = MMMachine(
            MachineConfig(num_banks=16, memory_access_time=8),
            write_buffer_depth=2,
        )
        report = machine.execute([VectorStore(base=0, stride=1, length=64)])
        assert report.store_stall_cycles == 0

    def test_reset_clears_buffer(self):
        machine = MMMachine(
            MachineConfig(num_banks=4, memory_access_time=16),
            write_buffer_depth=2,
        )
        machine.execute([VectorStore(base=0, stride=4, length=16)])
        machine.reset()
        assert machine.write_buffer.occupancy == 0
        assert machine.write_buffer.stats.stores == 0


class TestNegativeAddresses:
    """A load or store whose strided addresses run below zero is rejected
    on both backends, by the machine-level address check or the
    memory/cache one behind the reference loop."""

    @pytest.mark.parametrize("backend", ["scalar", "compiled"])
    @pytest.mark.parametrize("machine_kind", ["mm", "cc-direct", "cc-prime"])
    @pytest.mark.parametrize("op", [
        VectorLoad(base=3, stride=-4, length=2),
        VectorStore(base=3, stride=-4, length=2),
    ], ids=["load", "store"])
    def test_rejected(self, backend, machine_kind, op):
        config = MachineConfig(num_banks=16, memory_access_time=4,
                               cache_lines=31)
        if machine_kind == "mm":
            machine = MMMachine(config, backend=backend)
        else:
            cache = (DirectMappedCache(num_lines=32)
                     if machine_kind == "cc-direct"
                     else PrimeMappedCache(c=5))
            machine = CCMachine(config, cache, backend=backend)
        with pytest.raises(ValueError,
                           match="addresses must be non-negative"):
            machine.execute([VectorLoad(base=0, stride=1, length=4), op])
