"""Tests for the design-space surrogate facade."""

import math
import time

import numpy as np
import pytest

from repro.analytical import surrogate
from repro.serve.queries import vcm_query


class TestEvaluatePoints:
    def test_matches_scalar_vcm_query(self):
        points = [
            {},
            {"mapping": "direct", "cache_lines": 8192,
             "blocking_factor": 4096, "reuse_factor": 4096.0, "p_ds": 0.1},
            {"mapping": "prime", "cache_lines": 61, "banks": 8, "t_m": 7,
             "blocking_factor": 50, "reuse_factor": 50.0, "p_ds": 0.0,
             "s2": None},
            {"mapping": "prime", "s1": 1, "s2": 3, "p_ds": 0.25,
             "problem_size": 65536},
        ]
        for point, result in zip(points, surrogate.evaluate_points(points)):
            want = vcm_query(**point)
            for key, value in want.items():
                if isinstance(value, (str, int)):
                    assert result[key] == value
                else:
                    assert math.isclose(result[key], value, rel_tol=1e-9)

    def test_set_associative_points_supported(self):
        [result] = surrogate.evaluate_points(
            [{"mapping": "assoc", "cache_lines": 8192, "ways": 4,
              "blocking_factor": 2048, "reuse_factor": 2048.0}])
        assert result["mapping"] == "assoc"
        assert result["ways"] == 4
        assert result["cycles_per_result"] > 0

    def test_duplicates_and_order_preserved(self):
        a = {"mapping": "prime", "blocking_factor": 64, "reuse_factor": 4.0}
        b = {"mapping": "direct", "cache_lines": 4096,
             "blocking_factor": 512, "reuse_factor": 8.0}
        results = surrogate.evaluate_points([b, a, b, a])
        assert results[0] == results[2]
        assert results[1] == results[3]
        assert results[0]["mapping"] == "direct"
        assert results[1]["mapping"] == "prime"

    def test_results_are_json_scalars(self):
        [result] = surrogate.evaluate_points([{}])
        for value in result.values():
            assert isinstance(value, (str, int, float))


class TestCanonicalPoint:
    def test_fills_serve_defaults(self):
        point = surrogate.canonical_point({})
        assert point["mapping"] == "prime"
        assert point["cache_lines"] == 8191
        assert point["banks"] == 64
        assert point["ways"] == 1

    def test_rejects_bad_input(self):
        for bad in ({"mapping": "weird"}, {"bogus": 1}, {"t_m": 0},
                    {"reuse_factor": "lots"}, {"s1": 1.5},
                    {"problem_size": 0}, {"blocking_factor": True}):
            with pytest.raises(ValueError):
                surrogate.canonical_point(bad)

    def test_key_order_is_canonical(self):
        a = surrogate.canonical_point({"t_m": 8, "banks": 16})
        b = surrogate.canonical_point({"banks": 16, "t_m": 8})
        assert list(a) == list(b)
        assert a == b


class TestConstraintsAndPareto:
    def _grid(self):
        return surrogate.evaluate_grid(
            "prime", cache_lines=np.array([61, 8191]), num_banks=32,
            t_m=16, blocking_factor=np.array([50, 4096]),
            reuse_factor=np.array([50.0, 4096.0]), p_ds=0.1)

    def test_grid_includes_cost_axes(self):
        grid = self._grid()
        assert grid["area_words"].tolist() == [61, 8191]
        assert np.all(grid["bandwidth"] > 0)
        assert np.all(grid["bandwidth"] <= 1)

    def test_constraint_masks(self):
        grid = self._grid()
        assert surrogate.apply_constraints(
            grid, max_area_words=1000).tolist() == [True, False]
        assert surrogate.apply_constraints(
            grid, max_banks=16, num_banks=32).tolist() == [False, False]
        assert surrogate.apply_constraints(
            grid, max_t_m=16, t_m=16).tolist() == [True, True]

    def test_constraints_requiring_axes_raise_without_them(self):
        grid = self._grid()
        with pytest.raises(ValueError):
            surrogate.apply_constraints(grid, max_banks=16)
        with pytest.raises(ValueError):
            surrogate.apply_constraints(grid, max_t_m=8)

    def test_pareto_front(self):
        assert surrogate.pareto_front([1, 2, 3], [3, 2, 1]).tolist() \
            == [0, 1, 2]
        assert surrogate.pareto_front([1, 2, 3], [3, 4, 5]).tolist() == [0]
        # equal points are mutually non-dominating
        assert surrogate.pareto_front([1, 1, 2], [2, 2, 1]).tolist() \
            == [0, 1, 2]
        assert surrogate.pareto_front(
            [2, 1], [1, 2], minimise=[True, False]).tolist() == [1]

    def test_pareto_front_random_is_consistent_with_bruteforce(self):
        rng = np.random.default_rng(5)
        xs = rng.integers(0, 20, size=120)
        ys = rng.integers(0, 20, size=120)
        got = set(surrogate.pareto_front(xs, ys).tolist())
        want = set()
        pts = np.stack([xs, ys], axis=1)
        for i, p in enumerate(pts):
            dominated = np.any(
                np.all(pts <= p, axis=1) & np.any(pts < p, axis=1))
            if not dominated:
                want.add(i)
        assert got == want


class TestThroughput:
    """``repro optimize`` is viable because one ``evaluate_grid`` call
    scores a whole broadcast grid: over 2^20 (t_m, banks, B) points it
    must clear 10^6 points/s and 100x the points/s of a loop scoring
    sampled points through the scalar models, as ``vcm_query`` does."""

    CACHE_LINES = 8191
    T_M = tuple(range(2, 66, 4))
    BANKS = (8, 16, 32, 64, 128, 256, 512, 1024)
    BLOCKS = 8192
    P_DS = 0.1
    MIN_POINTS_PER_SECOND = 1e6
    MIN_SPEEDUP = 100.0

    def _scalar_points_per_second(self, samples: int = 300) -> float:
        from repro.analytical.bandwidth import expected_effective_bandwidth
        from repro.analytical.base import MachineConfig
        from repro.analytical.cc import PrimeMappedModel
        from repro.analytical.missratio import scalar_workload_miss_ratio
        from repro.analytical.mm import MMModel
        from repro.analytical.vcm import VCM

        rng = np.random.default_rng(0)
        points = zip(rng.choice(self.T_M, size=samples),
                     rng.choice(self.BANKS, size=samples),
                     rng.integers(1, self.BLOCKS + 1, size=samples))
        start = time.perf_counter()
        for t_m, banks, block in points:
            config = MachineConfig(num_banks=int(banks),
                                   memory_access_time=int(t_m),
                                   cache_lines=self.CACHE_LINES)
            vcm = VCM(blocking_factor=int(block),
                      reuse_factor=float(max(1, int(block) // 8)),
                      p_ds=self.P_DS)
            model = PrimeMappedModel(config)
            model.cycles_per_result(vcm)
            MMModel(config).cycles_per_result(vcm)
            scalar_workload_miss_ratio(model, vcm)
            expected_effective_bandwidth(config)
        return samples / (time.perf_counter() - start)

    def _batched_points_per_second(self) -> float:
        t_m = np.asarray(self.T_M)[:, None, None]
        banks = np.asarray(self.BANKS)[None, :, None]
        block = np.arange(1, self.BLOCKS + 1)[None, None, :]
        shape = (t_m.size, banks.size, self.BLOCKS)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            out = surrogate.evaluate_grid(
                "prime", cache_lines=self.CACHE_LINES, num_banks=banks,
                t_m=t_m, blocking_factor=block,
                reuse_factor=np.maximum(1.0, block / 8.0), p_ds=self.P_DS)
            np.broadcast_to(out["cycles_per_result"], shape)[0, 0, 0]
            best = min(best, time.perf_counter() - start)
        return math.prod(shape) / best

    def test_batched_grid_clears_the_gates(self):
        batched = self._batched_points_per_second()
        scalar = self._scalar_points_per_second()
        assert batched >= self.MIN_POINTS_PER_SECOND, f"{batched:.3g} pts/s"
        assert batched / scalar >= self.MIN_SPEEDUP, (
            f"batched {batched:.3g} vs scalar {scalar:.3g} pts/s")
