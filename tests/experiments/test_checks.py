"""The headline reproduction test: every paper claim holds on the
regenerated figures."""

import pytest

from repro.experiments.checks import CHECKERS, check_figure, check_job
from repro.experiments.figures import ALL_FIGURES, FigureResult
from repro.orchestrate import all_jobs

#: ~15 s of cycle-level simulation together: CI's full sweep checks them.
_CANONICAL_SIMULATED = {"fig7-simulated", "fig8-simulated"}


@pytest.fixture(scope="module")
def all_checks():
    return [check for build in ALL_FIGURES.values()
            for check in check_figure(build())]


class TestClaims:
    def test_every_paper_claim_passes(self, all_checks):
        failures = [c for c in all_checks if not c.passed]
        assert not failures, "\n".join(
            f"{c.figure_id}: {c.claim} [{c.detail}]" for c in failures
        )

    def test_each_figure_has_claims(self, all_checks):
        covered = {c.figure_id for c in all_checks}
        assert covered == set(ALL_FIGURES)

    def test_details_are_informative(self, all_checks):
        assert all(c.detail for c in all_checks)

    def test_unknown_figure_rejected(self):
        bogus = FigureResult("fig99", "t", "x", [1], "y")
        with pytest.raises(ValueError):
            check_figure(bogus)


class TestJobClaims:
    def test_every_checker_belongs_to_a_job(self):
        assert set(CHECKERS) <= set(all_jobs())

    def test_smoke_twins_are_not_checked(self):
        assert not any(name.startswith("smoke-") for name in CHECKERS)
        assert check_job("smoke-fig8-simulated", None) == []

    @pytest.mark.parametrize(
        "name", sorted(set(CHECKERS) - _CANONICAL_SIMULATED))
    def test_job_result_shows_its_claims(self, name):
        checks = check_job(name, all_jobs()[name].execute())
        assert checks
        assert {c.figure_id for c in checks} == {name}
        failures = [c for c in checks if not c.passed]
        assert not failures, "\n".join(
            f"{c.claim} [{c.detail}]" for c in failures)


class TestSpecificClaims:
    def test_fig7_ratios_match_paper_quantitatively(self):
        """The sharpest quantitative claim: at t_m = M = 64 the prime cache
        is ~3x faster than direct-mapped and ~5x faster than no cache."""
        checks = {c.claim: c for c in check_figure(ALL_FIGURES["fig7"]())}
        ratio3 = next(c for claim, c in checks.items() if "3x" in claim)
        ratio5 = next(c for claim, c in checks.items() if "5x" in claim)
        assert ratio3.passed and ratio5.passed

    def test_fig10_range_claim(self):
        checks = check_figure(ALL_FIGURES["fig10"]())
        range_check = next(c for c in checks if "40%" in c.claim)
        assert range_check.passed


class TestReport:
    def test_build_report_contains_everything(self):
        from repro.experiments.report import build_report

        text = build_report()
        assert text.count("## fig") == 9
        assert "Sub-block study" in text
        assert "claims reproduced: 29/29" in text

    def test_write_report(self, tmp_path):
        from repro.experiments.report import write_report

        path = tmp_path / "r.md"
        text = write_report(path)
        assert path.read_text() == text
