"""Tests for the simulation-backed figure regeneration (small grids)."""

import pytest

from repro.experiments.simulated_figures import (
    figure7_simulated,
    figure8_simulated,
)
from repro.experiments.stats import Summary, summarize


class TestSummarize:
    def test_single_sample(self):
        summary = summarize([3.0])
        assert summary.mean == 3.0
        assert summary.std == 0.0
        assert summary.ci95_half_width == 0.0

    def test_mean_and_std(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.std == pytest.approx(1.0)
        assert summary.count == 3

    def test_ci_shrinks_with_samples(self):
        few = summarize([1.0, 2.0])
        many = summarize([1.0, 2.0] * 8)
        assert many.ci95_half_width < few.ci95_half_width

    def test_overlap(self):
        a = summarize([1.0, 1.1, 0.9])
        b = summarize([1.05, 1.15, 0.95])
        c = summarize([5.0, 5.1, 4.9])
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_summary_is_frozen(self):
        with pytest.raises(AttributeError):
            summarize([1.0]).mean = 2.0  # type: ignore[misc]


class TestSimulatedFigures:
    def test_fig7_structure(self):
        result = figure7_simulated([8, 32], block=256, reuse=4, seeds=1,
                                   blocks=2)
        assert result.x_values == [8, 32]
        assert {s.label for s in result.series} == {
            "MM-model", "CC-direct", "CC-prime"}
        for series in result.series:
            assert len(series.values) == 2
            assert all(v >= 1.0 for v in series.values)

    def test_fig7_mm_grows_with_memory_gap(self):
        result = figure7_simulated([8, 48], block=256, reuse=4, seeds=1,
                                   blocks=2)
        mm = result.series_by_label("MM-model").values
        assert mm[1] > mm[0]

    def test_fig8_structure(self):
        result = figure8_simulated([256, 1024], t_m=16, reuse=4, seeds=1,
                                   blocks=2)
        assert result.x_values == [256, 1024]
        assert all(len(s.values) == 2 for s in result.series)

    def test_deterministic_given_seeds(self):
        a = figure7_simulated([16], block=256, reuse=4, seeds=2, blocks=2)
        b = figure7_simulated([16], block=256, reuse=4, seeds=2, blocks=2)
        for series_a, series_b in zip(a.series, b.series):
            assert series_a.values == series_b.values

    def test_full_reuse_series_are_pinned(self):
        # Full reuse (R = B = 256) on all three machines: every reuse
        # sweep of a block re-issues the same loads, stride draws both
        # clear the banks and stall on themselves, and each block runs
        # as one op stream.  The values were recorded before the engine
        # timed whole runs of loads; any timing change shows up here.
        result = figure7_simulated([8, 64], block=256, seeds=1, blocks=2)
        assert {s.label: s.values for s in result.series} == {
            "MM-model": [3.3613662719726562, 7.3344268798828125],
            "CC-direct": [3.0162353515625, 3.5475006103515625],
            "CC-prime": [3.017608642578125, 3.5576095581054688],
        }

    def test_full_reuse_default_noted(self):
        # defaults run the paper's steady state, R = B — no truncation
        result = figure7_simulated([8], block=64, seeds=1, blocks=1)
        assert "R=64" in result.notes
        assert "truncat" not in result.notes.lower()


class TestSeedStability:
    """Per-sample seeds derive from the base seed and sample index only."""

    def test_sample_seeds_derive_from_base_seed(self):
        from repro.experiments.simulated_figures import _sample_seeds

        assert _sample_seeds(0, 4) == [0, 1, 2, 3]
        assert _sample_seeds(2, 3) == [2 * 1_000_003 + i for i in range(3)]
        # disjoint families for distinct base seeds (within typical sizes)
        assert not set(_sample_seeds(1, 64)) & set(_sample_seeds(2, 64))

    def test_base_seed_selects_a_different_sample_family(self):
        a = figure7_simulated([16], block=256, reuse=4, seeds=2, blocks=2,
                              base_seed=0)
        b = figure7_simulated([16], block=256, reuse=4, seeds=2, blocks=2,
                              base_seed=1)
        assert any(
            series_a.values != series_b.values
            for series_a, series_b in zip(a.series, b.series)
        )

    def test_fig8_accepts_base_seed(self):
        a = figure8_simulated([256], t_m=16, reuse=4, seeds=2, blocks=2,
                              base_seed=3)
        b = figure8_simulated([256], t_m=16, reuse=4, seeds=2, blocks=2,
                              base_seed=3)
        for series_a, series_b in zip(a.series, b.series):
            assert series_a.values == series_b.values
