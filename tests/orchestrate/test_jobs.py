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


class TestPointJobs:
    """The canonical simulated figures are assembled from one job per
    (figure point, machine, seed), derived from the figure's params."""

    def test_default_sweep_keeps_its_names(self):
        jobs = all_jobs()
        default = default_sweep()
        assert len(default) == 36
        point_fn = "repro.experiments.simulated_figures:measure_point"
        assert not any(jobs[name].fn == point_fn for name in default)
        for twin in ("smoke-fig7-simulated", "smoke-fig8-simulated"):
            assert jobs[twin].deps == ()
        assert len(jobs["fig7-simulated"].deps) == 5 * 3 * 2
        assert len(jobs["fig8-simulated"].deps) == 4 * 3 * 2

    def test_points_are_registered_largest_first(self):
        jobs = all_jobs()
        points = [jobs[name].params for name in jobs["fig8-simulated"].deps]
        assert [p["block"] for p in points] == sorted(
            (p["block"] for p in points), reverse=True)
        assert points[0] == {"machine": "MM-model", "t_m": 32,
                             "block": 8191, "reuse": 8191, "blocks": 2,
                             "seed": 0}

    def test_override_derives_its_own_points(self, tmp_path):
        """Three seeds reuse the canonical two seeds' points, under the
        canonical keys, and add their own."""
        from dataclasses import replace

        from repro.orchestrate import with_points

        jobs = all_jobs()
        canonical = jobs["fig7-simulated"]
        variant, *points = with_points(replace(
            canonical, name="fig7-simulated@3",
            params={**canonical.params, "seeds": 3}))
        assert variant.deps == tuple(point.name for point in points)
        assert len(points) == 5 * 3 * 3
        shared = set(canonical.deps) & set(variant.deps)
        assert shared == set(canonical.deps)
        jobs.update((job.name, job) for job in (variant, *points))
        runner = Runner(jobs.values(), store=ResultStore(tmp_path))
        _, keys = runner.plan(["fig7-simulated", variant.name])
        _, canonical_keys = Runner(
            all_jobs().values(), store=ResultStore(tmp_path)).plan(
            ["fig7-simulated"])
        assert {name: keys[name] for name in shared} == {
            name: canonical_keys[name] for name in shared}
        assert keys[variant.name] != keys["fig7-simulated"]

    def test_assembled_figure_equals_the_in_process_figure(self, tmp_path):
        import pickle
        from dataclasses import replace

        from repro.experiments.simulated_figures import figure7_simulated
        from repro.orchestrate import with_points

        params = {"t_m_values": [8], "seeds": 1, "blocks": 1}
        jobs = all_jobs()
        variant = with_points(replace(
            jobs["fig7-simulated"], name="fig7-small",
            params={**jobs["fig7-simulated"].params, **params}))
        summary = Runner(variant, store=ResultStore(tmp_path)).run(
            ["fig7-small"])
        assert summary.ok and summary.count("ran") == 4
        assert pickle.dumps(summary.results["fig7-small"]) == pickle.dumps(
            figure7_simulated(**params))
