"""Sanity of the production job registry (the graph `repro sweep` runs)."""

from collections import Counter

from repro.orchestrate import (
    RESULTS_DIR,
    Runner,
    all_jobs,
    default_sweep,
    figure_job_names,
    smoke_sweep,
)
from repro.orchestrate.job import resolve
from repro.orchestrate.store import ResultStore


class TestRegistry:
    def test_deps_and_artifacts_consistent(self):
        jobs = all_jobs()
        artifacts = [j.artifact for j in jobs.values() if j.artifact]
        assert len(artifacts) == len(set(artifacts)), "artifact collision"
        for job in jobs.values():
            for dep in job.deps:
                assert dep in jobs, f"{job.name} -> unknown dep {dep}"

    def test_every_fn_and_render_resolves(self):
        for job in all_jobs().values():
            assert callable(resolve(job.fn)), job.name
            if job.render:
                assert callable(resolve(job.render)), job.name

    def test_whole_graph_plans_with_stable_keys(self, tmp_path):
        runner = Runner(all_jobs().values(), store=ResultStore(tmp_path))
        _, first = runner.plan()
        _, second = runner.plan()
        assert first == second
        assert all(len(key) == 64 for key in first.values())

    def test_selections(self):
        jobs = all_jobs()
        default = default_sweep()
        assert set(default) <= set(jobs)
        assert "validation" in default
        assert not any(name.startswith("smoke-") for name in default)
        assert set(figure_job_names()) <= set(default)
        assert set(smoke_sweep()) <= set(jobs)
        assert smoke_sweep() == (
            "smoke-fig7-simulated",
            "smoke-fig8-simulated",
            "smoke-zoo-hashed",
        )

    def test_registry_is_the_only_producer_of_results(self):
        """Every file under results/ but the golden baselines is the
        artifact of exactly one job, so `repro sweep` regenerates all."""
        producers = Counter(job.artifact for job in all_jobs().values()
                            if job.artifact)
        files = [path.relative_to(RESULTS_DIR).as_posix()
                 for path in RESULTS_DIR.rglob("*") if path.is_file()]
        committed = [name for name in files
                     if not name.startswith("golden/")]
        assert committed
        assert {name: producers[name] for name in committed} == {
            name: 1 for name in committed}

    def test_report_consumes_every_figure(self):
        report = all_jobs()["report"]
        assert set(figure_job_names()) <= set(report.deps)
        assert "subblock" in report.deps

    def test_simulated_jobs_use_canonical_params(self):
        from repro.experiments.simulated_figures import (
            CANONICAL_FIG7_SIMULATED,
            CANONICAL_FIG8_SIMULATED,
        )

        jobs = all_jobs()
        assert jobs["fig7-simulated"].params == CANONICAL_FIG7_SIMULATED
        assert jobs["fig8-simulated"].params == CANONICAL_FIG8_SIMULATED
