"""Tests for running recorded traces on the cycle-level machines."""

import pytest

from repro.analytical.base import MachineConfig
from repro.cache import DirectMappedCache, PrimeMappedCache, TwoLevelCache
from repro.machine import CCMachine, MMMachine
from repro.machine.programs import strided_reuse_program
from repro.machine.trace_runner import compare_machines_on_trace, run_trace
from repro.trace.patterns import strided
from repro.trace.records import Trace


def mm(banks=16, t_m=8):
    return MMMachine(MachineConfig(num_banks=banks, memory_access_time=t_m))


def cc(cache, banks=16, t_m=8):
    return CCMachine(
        MachineConfig(num_banks=banks, memory_access_time=t_m,
                      cache_lines=cache.total_lines),
        cache,
    )


class TestRunTraceMM:
    def test_unit_stride_one_cycle_per_access(self):
        report = run_trace(mm(), strided(0, 1, 64))
        assert report.cycles == 64
        assert report.bank_stall_cycles == 0

    def test_bank_conflicts_stall(self):
        report = run_trace(mm(banks=16, t_m=8), strided(0, 16, 64))
        assert report.bank_stall_cycles > 0
        assert report.cycles == 64 + report.bank_stall_cycles

    def test_writes_never_stall(self):
        trace = Trace.from_addresses([0] * 32, write=True)
        report = run_trace(mm(banks=4, t_m=16), trace)
        assert report.cycles == 32

    def test_reset_between_runs(self):
        machine = mm()
        first = run_trace(machine, strided(0, 1, 32))
        second = run_trace(machine, strided(0, 1, 32))
        assert first.cycles == second.cycles


class TestRunTraceCC:
    def test_compulsory_misses_pipeline(self):
        cache = PrimeMappedCache(c=5)
        report = run_trace(cc(cache), strided(0, 1, 31))
        assert report.cache_misses == 31
        assert report.miss_stall_cycles == 0  # all compulsory

    def test_conflict_misses_stall_t_m(self):
        cache = DirectMappedCache(num_lines=32)
        trace = strided(0, 8, 32, sweeps=2)  # folds onto 4 lines
        report = run_trace(cc(cache, t_m=8), trace)
        # second sweep: 32 non-compulsory misses at t_m each
        assert report.miss_stall_cycles == 32 * 8

    def test_hits_cost_one_cycle(self):
        cache = PrimeMappedCache(c=5)
        machine = cc(cache)
        trace = strided(0, 3, 31, sweeps=2)
        report = run_trace(machine, trace)
        assert report.cache_hits == 31
        assert report.cycles == 62 + report.bank_stall_cycles

    def test_writes_buffered(self):
        cache = PrimeMappedCache(c=5)
        trace = Trace.from_addresses(range(10), write=True)
        report = run_trace(cc(cache), trace)
        assert report.cycles == 10

    def test_classifier_required_semantics(self):
        """Misses on a classifier-less cache are treated as conflicts
        (miss_kind None is not COMPULSORY), the conservative choice."""
        cache = DirectMappedCache(num_lines=32, classify_misses=False)
        report = run_trace(cc(cache, t_m=8), strided(0, 1, 8))
        assert report.miss_stall_cycles == 8 * 8


class TestRunTraceHierarchy:
    @pytest.mark.parametrize("backend", ["scalar", "compiled"])
    def test_two_level_cache_refused(self, backend):
        """A 16-element vector swept twice through a 4-set L1 hits L2 on
        every second-sweep access: ``execute`` charges the 16 L2 hits
        4 cycles each, and the trace rules would charge nothing."""
        def machine():
            return cc(TwoLevelCache(l1_sets=4, l2_sets=64, l2_hit_time=4))

        report = machine().execute(strided_reuse_program(0, 1, 16, 2))
        assert (report.l2_hits, report.miss_stall_cycles) == (16, 64)
        with pytest.raises(ValueError, match="CCMachine.execute"):
            run_trace(machine(), strided(0, 1, 16, sweeps=2),
                      backend=backend)


class TestCompare:
    def test_prime_beats_direct_end_to_end(self):
        """Integration: the same power-stride trace costs materially fewer
        cycles on the prime-cache machine."""
        trace = strided(0, 16, 31, sweeps=4)
        reports = compare_machines_on_trace(trace, {
            "direct": cc(DirectMappedCache(num_lines=32), t_m=16),
            "prime": cc(PrimeMappedCache(c=5), t_m=16),
            "mm": mm(t_m=16),
        })
        assert reports["prime"].cycles < reports["direct"].cycles / 2
        assert reports["prime"].cycles <= reports["mm"].cycles

    def test_real_workload_trace_end_to_end(self):
        """A real radix-2 FFT kernel's trace runs faster on the prime
        machine — workloads, caches and machines composed together.  With
        the 256-point working set at twice either cache's capacity, the
        prime cache still converts the direct cache's stride conflicts
        into fewer total stalls."""
        import numpy as np

        from repro.workloads import fft_radix2

        x = np.arange(256, dtype=complex)
        _, trace = fft_radix2(x)
        reports = compare_machines_on_trace(trace, {
            "direct": cc(DirectMappedCache(num_lines=128), t_m=16),
            "prime": cc(PrimeMappedCache(c=7), t_m=16),
        })
        assert reports["prime"].cycles < reports["direct"].cycles
        assert reports["prime"].miss_stall_cycles < \
            reports["direct"].miss_stall_cycles

    def test_subblock_workload_trace_end_to_end(self):
        """The conflict-free sub-block of Section 4, as machine cycles:
        reuse sweeps are entirely stall-free on the prime machine."""
        from repro.analytical.subblock import max_conflict_free_block
        from repro.trace.patterns import subblock

        p = 300
        choice = max_conflict_free_block(p, 127)
        trace = subblock(p, choice.b1, choice.b2, sweeps=3)
        reports = compare_machines_on_trace(trace, {
            "direct": cc(DirectMappedCache(num_lines=128), t_m=16),
            "prime": cc(PrimeMappedCache(c=7), t_m=16),
        })
        assert reports["prime"].miss_stall_cycles == 0
        assert reports["prime"].cycles <= reports["direct"].cycles
