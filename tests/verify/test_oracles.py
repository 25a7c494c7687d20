"""Tests for the oracle registry: coverage, determinism, clean sweeps."""

import random

import pytest

from repro.verify import ORACLES, DifferentialRunner, default_oracles


class TestRegistry:
    def test_the_ten_oracles_are_registered(self):
        assert set(ORACLES) == {
            "cache-batch",
            "machine-timing",
            "analytical-vs-simulated",
            "congruence",
            "prime-geometry",
            "trace-columnar",
            "kernel-backend",
            "analytical-batched",
            "cache-zoo",
            "lru-stack",
        }

    def test_names_and_descriptions(self):
        for name, oracle in ORACLES.items():
            assert oracle.name == name
            assert oracle.description

    def test_default_oracles_deterministic_order(self):
        assert [o.name for o in default_oracles()] == sorted(ORACLES)


class TestCaseGrids:
    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_reproducible_given_seed(self, name):
        oracle = ORACLES[name]
        a = oracle.build_cases("quick", random.Random(f"3:{name}"))
        b = oracle.build_cases("quick", random.Random(f"3:{name}"))
        assert a == b

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_deep_is_strictly_larger(self, name):
        oracle = ORACLES[name]
        quick = oracle.build_cases("quick", random.Random(0))
        deep = oracle.build_cases("deep", random.Random(0))
        assert len(deep) > len(quick)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ORACLES["congruence"].build_cases("medium", random.Random(0))

    def test_pinned_regression_cases_present(self):
        # the mutation self-check relies on these deterministic cases;
        # they must survive any reshuffle of the random grids
        congruence = ORACLES["congruence"].build_cases(
            "quick", random.Random(0))
        assert {"kind": "solve", "a": 6, "b": 0, "m": 12,
                "seed": 0} in congruence
        geometry = ORACLES["prime-geometry"].build_cases(
            "quick", random.Random(0))
        assert {"c": 7, "line_size": 4, "stride": 254, "seed": 0} in geometry
        analytical = ORACLES["analytical-vs-simulated"].build_cases(
            "quick", random.Random(0))
        kinds = [c["kind"] for c in analytical[:2]]
        assert kinds == ["mm-strip", "cc-prime-stride"]
        batched = ORACLES["analytical-batched"].build_cases(
            "quick", random.Random(0))
        assert {"kind": "cc", "mapping": "prime", "lines": 8191, "ways": 1,
                "banks": 32, "t_m_values": [4, 16, 64], "block": 4096,
                "reuse": 4096.0, "p_ds": 0.1, "footprint_mode": "simple",
                "seed": 0} in batched


class TestQuickSweepsClean:
    """Every oracle agrees with its reference on an unmutated tree."""

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_oracle_clean(self, name):
        outcome = DifferentialRunner([ORACLES[name]], seed=123).run(
            "quick")[0]
        assert outcome.cases > 0
        assert outcome.ok, [m.describe() for m in outcome.mismatches]
