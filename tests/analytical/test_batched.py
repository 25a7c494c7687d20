"""Scalar-vs-batched parity for the vectorised analytical engine.

Every public kernel in :mod:`repro.analytical.batched` is compared
element-wise against the scalar reference implementation it vectorises,
over grids that cover the code-path splits (k == 1 banks, whole-cache
prime strides, partially filled associative sets, ``p_ds == 0`` single
streams, bounded problem sizes, ...).
"""

import math
import random

import numpy as np
import pytest

from repro.analytical import batched
from repro.analytical.base import MachineConfig
from repro.analytical.bandwidth import (
    effective_bandwidth_for_stride,
    expected_effective_bandwidth,
)
from repro.analytical.cc import DirectMappedModel, PrimeMappedModel
from repro.analytical.congruence import (
    cross_stalls,
    expected_cross_stalls,
    solve_linear_congruence,
)
from repro.analytical.missratio import (
    scalar_cached_sweep_misses,
    scalar_workload_miss_ratio,
)
from repro.analytical.mm import MMModel, self_stalls_for_stride
from repro.analytical.optimize import (
    crossover_memory_time,
    optimal_blocking_factor,
)
from repro.analytical.vcm import VCM
from repro.verify.oracles import StrideEnumeratedAssocModel

RTOL = 1e-9


def model_for(mapping, config, ways=1, footprint_mode="simple"):
    if mapping == "direct":
        return DirectMappedModel(config, footprint_mode=footprint_mode)
    if mapping == "prime":
        return PrimeMappedModel(config, footprint_mode=footprint_mode)
    # the model's own random-stride sums are the batched class sums, so
    # the reference enumerates the strides one by one
    return StrideEnumeratedAssocModel(config, ways,
                                      footprint_mode=footprint_mode)


MODEL_GRID = [
    ("direct", 64, 1),
    ("direct", 8192, 1),
    ("prime", 61, 1),
    ("prime", 8191, 1),
    ("assoc", 64, 2),
    ("assoc", 8192, 4),
    ("assoc", 16, 16),
]


class TestCongruenceBatch:
    def test_solution_count_matches_solver(self):
        rng = random.Random(7)
        cases = [(rng.randrange(64), rng.randrange(64), rng.randrange(1, 64))
                 for _ in range(400)]
        cases += [(0, 0, 1), (0, 1, 1), (6, 3, 9), (6, 4, 9), (4, 0, 8)]
        a, b, m = (np.array(col) for col in zip(*cases))
        got = batched.solution_count_batch(a, b, m)
        want = [len(solve_linear_congruence(*case)) for case in cases]
        assert got.tolist() == want

    def test_modinv_inverts(self):
        rng = random.Random(9)
        pairs = []
        while len(pairs) < 300:
            m = rng.randrange(1, 300)
            a = rng.randrange(300)
            if math.gcd(a, m) == 1:
                pairs.append((a, m))
        a, m = (np.array(col) for col in zip(*pairs))
        inv = batched.modinv_batch(a, m)
        for (ai, mi), vi in zip(pairs, inv.tolist()):
            if mi == 1:
                assert vi == 0
            else:
                assert (ai * vi) % mi == 1

    def test_cross_stalls_matches_triple_loop(self):
        rng = random.Random(3)
        cases = [(rng.randrange(33), rng.randrange(33), rng.randrange(33),
                  rng.choice([2, 4, 8, 16, 32]), rng.choice([4, 16, 64]),
                  rng.choice([2, 7, 16]))
                 for _ in range(150)]
        # same-stride diagonal and empty-overlap edges
        cases += [(5, 5, 0, 8, 16, 4), (5, 5, 3, 8, 16, 4),
                  (1, 2, 0, 4, 4, 16), (0, 0, 0, 2, 4, 2)]
        arrays = [np.array(col) for col in zip(*cases)]
        got = batched.cross_stalls_batch(*arrays)
        want = np.array([cross_stalls(*case) for case in cases], dtype=float)
        np.testing.assert_allclose(got, want, rtol=RTOL)

    def test_expected_cross_stalls_closed_form(self):
        banks = np.array([2, 4, 8, 16, 32, 64])[:, None, None]
        mvl = np.array([4, 16, 64, 128])[None, :, None]
        t_m = np.arange(1, 40)[None, None, :]
        got = batched.expected_cross_stalls_batch(banks, mvl, t_m)
        for i, m_ in enumerate(banks.ravel()):
            for j, v in enumerate(mvl.ravel()):
                for k, t in enumerate(t_m.ravel()):
                    want = expected_cross_stalls(int(m_), int(v), int(t))
                    assert math.isclose(got[i, j, k], want, rel_tol=1e-12)


class TestMMBatch:
    def test_self_stalls_and_random_form(self):
        configs = [MachineConfig(num_banks=nb, memory_access_time=tm, mvl=mvl)
                   for nb in (8, 32, 64) for tm in (4, 16, 31)
                   for mvl in (16, 64)]
        strides = [0, 1, 2, 3, 8, 17, 32, 64, 127, -5]
        records = [(cfg, s) for cfg in configs for s in strides]
        stride = np.array([r[1] for r in records])
        nb = np.array([r[0].num_banks for r in records])
        tm = np.array([r[0].memory_access_time for r in records])
        mvl = np.array([r[0].mvl for r in records])
        got = batched.mm_self_stalls_for_stride_batch(stride, nb, tm, mvl)
        want = [self_stalls_for_stride(s, cfg) for cfg, s in records]
        np.testing.assert_allclose(got, np.array(want), rtol=1e-12)
        got = batched.mm_random_self_stalls_batch(nb, tm, mvl)
        want = [MMModel(cfg)._random_stride_self_stalls()
                for cfg, _ in records]
        np.testing.assert_allclose(got, np.array(want), rtol=1e-12)

    def test_cycles_per_result_matches_model(self):
        configs = [MachineConfig(num_banks=nb, memory_access_time=tm)
                   for nb in (8, 64) for tm in (4, 32)]
        vcms = [VCM(blocking_factor=bf, reuse_factor=rf, p_ds=p_ds,
                    s1=s1, s2=("random" if p_ds else None))
                for bf in (64, 4096) for rf in (1.0, 8.0)
                for p_ds in (0.0, 0.1) for s1 in ("random", 1, 7)]
        for cfg in configs:
            model = MMModel(cfg)
            for vcm in vcms:
                got = batched.mm_cycles_per_result_batch(
                    num_banks=cfg.num_banks, t_m=cfg.t_m, mvl=cfg.mvl,
                    blocking_factor=np.array([vcm.blocking_factor]),
                    reuse_factor=vcm.reuse_factor, p_ds=vcm.p_ds,
                    p_stride1_s1=vcm.p_stride1_s1,
                    p_stride1_s2=vcm.p_stride1_s2,
                    s1=(vcm.s1 if isinstance(vcm.s1, str)
                        else np.array([vcm.s1])),
                    s2=vcm.s2)
                assert math.isclose(float(got[0]),
                                    model.cycles_per_result(vcm),
                                    rel_tol=1e-12)


class TestCCBatch:
    @pytest.mark.parametrize("mapping,lines,ways", MODEL_GRID)
    def test_self_stalls_for_stride(self, mapping, lines, ways):
        config = MachineConfig(num_banks=32, memory_access_time=16,
                               cache_lines=lines)
        model = model_for(mapping, config, ways)
        blocks = [1, 5, 17, lines // 2 + 1, lines, 3 * lines + 7]
        strides = [0, 1, 2, 3, 7, 8, lines, lines + 1, -6]
        records = [(b, s) for b in blocks for s in strides]
        b = np.array([r[0] for r in records])
        s = np.array([r[1] for r in records])
        got = batched.cc_self_stalls_for_stride_batch(
            mapping, b, s, cache_lines=lines, ways=ways, t_m=config.t_m)
        want = [model.self_stalls_for_stride(bi, si) for bi, si in records]
        np.testing.assert_allclose(got, np.array(want), rtol=1e-12)

    @pytest.mark.parametrize("mapping,lines,ways", MODEL_GRID)
    def test_self_interference_and_footprint(self, mapping, lines, ways):
        config = MachineConfig(num_banks=32, memory_access_time=16,
                               cache_lines=lines)
        model = model_for(mapping, config, ways)
        blocks = np.array([0, 1, 5, 17, lines // 2 + 1, lines,
                           2 * lines + 3])
        for p1 in (0.0, 0.25, 1.0):
            got = batched.cc_self_interference_batch(
                mapping, blocks, p1, "random", cache_lines=lines, ways=ways,
                t_m=config.t_m)
            want = [model.self_interference(int(b), p1, "random")
                    for b in blocks]
            np.testing.assert_allclose(got, np.array(want), rtol=RTOL)
            got = batched.cc_expected_footprint_batch(
                mapping, blocks[1:], p1, cache_lines=lines, ways=ways)
            want = [model.expected_footprint(int(b), p1) for b in blocks[1:]]
            np.testing.assert_allclose(got, np.array(want), rtol=RTOL)

    @pytest.mark.parametrize("mapping,lines,ways", MODEL_GRID)
    @pytest.mark.parametrize("footprint_mode", ["simple", "expected"])
    def test_outputs_match_scalar_models(self, mapping, lines, ways,
                                         footprint_mode):
        config = MachineConfig(num_banks=32, memory_access_time=16,
                               cache_lines=lines)
        model = model_for(mapping, config, ways, footprint_mode)
        mm = MMModel(config)
        vcms = [VCM(blocking_factor=bf, reuse_factor=rf, p_ds=p_ds,
                    s1=s1, s2=("random" if p_ds else None),
                    p_stride1_s1=0.25, p_stride1_s2=0.5)
                for bf in (64, 4096) for rf in (1.0, 8.0)
                for p_ds in (0.0, 0.1) for s1 in ("random", 7)]
        for vcm in vcms:
            out = batched.cc_outputs_batch(
                mapping, cache_lines=lines, num_banks=32,
                t_m=np.array([config.t_m]), ways=ways,
                blocking_factor=vcm.blocking_factor,
                reuse_factor=vcm.reuse_factor, p_ds=vcm.p_ds,
                p_stride1_s1=vcm.p_stride1_s1,
                p_stride1_s2=vcm.p_stride1_s2,
                s1=(vcm.s1 if isinstance(vcm.s1, str)
                    else np.array([vcm.s1])),
                s2=vcm.s2, footprint_mode=footprint_mode)
            expected = {
                "element_time": model.element_time(vcm),
                "initial_block_time": model.initial_block_time(vcm),
                "cached_block_time": model.cached_block_time(vcm),
                "cycles_per_result": model.cycles_per_result(vcm),
                "mm_cycles_per_result": mm.cycles_per_result(vcm),
                "sweep_misses": scalar_cached_sweep_misses(model, vcm),
                "miss_ratio": scalar_workload_miss_ratio(model, vcm),
            }
            for key, want in expected.items():
                assert math.isclose(float(out[key][0]), want, rel_tol=RTOL,
                                    abs_tol=1e-12), (key, vcm)

    def test_heterogeneous_t_m_axis_is_independent(self):
        """Each t_m along the grid must be scored with its own value —
        the broadcast-collapse fault the verify net hunts for."""
        t_m = np.array([4, 16, 64])
        out = batched.cc_outputs_batch(
            "prime", cache_lines=8191, num_banks=32, t_m=t_m,
            blocking_factor=4096, reuse_factor=4096.0, p_ds=0.1)
        for i, t in enumerate(t_m):
            config = MachineConfig(num_banks=32, memory_access_time=int(t),
                                   cache_lines=8191)
            vcm = VCM(blocking_factor=4096, reuse_factor=4096.0, p_ds=0.1)
            want = PrimeMappedModel(config).cycles_per_result(vcm)
            assert math.isclose(float(out["cycles_per_result"][i]), want,
                                rel_tol=RTOL)


class TestBandwidthBatch:
    def test_matches_scalar(self):
        for nb in (2, 8, 32, 64):
            for tm in (2, 4, 16, 40):
                config = MachineConfig(num_banks=nb, memory_access_time=tm)
                strides = np.array([0, 1, 2, 5, 8, -3])
                got = batched.effective_bandwidth_for_stride_batch(
                    strides, nb, tm)
                want = [effective_bandwidth_for_stride(int(s), config)
                        for s in strides]
                np.testing.assert_allclose(got, np.array(want), rtol=1e-12)
                for p1 in (0.0, 0.3, 1.0):
                    got = batched.expected_effective_bandwidth_batch(
                        np.array([nb]), np.array([tm]), p_stride1=p1)
                    want = expected_effective_bandwidth(config, p_stride1=p1)
                    assert math.isclose(float(got[0]), want, rel_tol=RTOL)


class TestOptimizeBatch:
    @pytest.mark.parametrize("mapping,lines,ways", [
        ("direct", 8192, 1), ("prime", 8191, 1), ("assoc", 8192, 4)])
    def test_blocking_matches_scalar_search(self, mapping, lines, ways):
        for tm in (4, 16, 64):
            config = MachineConfig(num_banks=32, memory_access_time=tm,
                                   cache_lines=lines)
            want = optimal_blocking_factor(model_for(mapping, config, ways))
            got = batched.optimal_blocking_factor_batch(
                mapping, cache_lines=np.array([lines]),
                num_banks=np.array([32]), t_m=np.array([tm]), ways=ways)
            assert math.isclose(float(got["cycles_per_result"][0]),
                                want.cycles_per_result, rel_tol=RTOL)
            assert int(got["blocking_factor"][0]) == want.blocking_factor

    @pytest.mark.parametrize("mapping,lines,ways", [
        ("direct", 8192, 1), ("prime", 8191, 1), ("assoc", 8192, 4)])
    def test_crossover_matches_scalar_scan(self, mapping, lines, ways):
        for bf, p_ds in ((4096, 0.1), (1024, 0.0)):
            vcm = VCM(blocking_factor=bf, reuse_factor=float(bf), p_ds=p_ds,
                      s2=("random" if p_ds else None))
            want = crossover_memory_time(
                lambda t: vcm,
                cache_model_factory=lambda t: model_for(
                    mapping, MachineConfig(num_banks=32,
                                           memory_access_time=t,
                                           cache_lines=lines), ways),
                mm_model_factory=lambda t: MMModel(
                    MachineConfig(num_banks=32, memory_access_time=t,
                                  cache_lines=lines)))
            got = int(batched.crossover_memory_time_batch(
                mapping, cache_lines=np.array([lines]),
                num_banks=np.array([32]), ways=ways,
                blocking_factor=np.array([bf]),
                reuse_factor=np.array([float(bf)]),
                p_ds=np.array([p_ds]))[0])
            assert got == (-1 if want is None else want)
