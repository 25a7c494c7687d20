"""The experiment graph: every reproduction target as an orchestrated job.

This registry is the single source of truth for what ``repro sweep``
runs, and the only producer of ``results/``: the nine paper figures,
the four extension figures, the Section-4 sub-block study, the nine
ablations, the four cache-zoo studies (docs/cache-zoo.md), the four
studies of :mod:`repro.experiments.studies`, the machine-measured figure
variants, the analytics-vs-simulation grid, and the assembled
reproduction report.  Each job declares the source modules its numbers
depend on, so the content-addressed cache invalidates exactly the
results a code change can move — and nothing else.  The claims each
job's result must show are in :data:`repro.experiments.checks.CHECKERS`.

The machine-measured figures ``fig7-simulated``/``fig8-simulated`` are
assembled from one point job per (figure point, machine, seed), which
:func:`with_points` derives from the figure job's params — for the
registry and for every override of it alike.

Selections:

* :func:`default_sweep` — everything above (the point jobs run as
  dependencies of their figure).
* :func:`smoke_sweep` — two small machine-measured figure jobs and a
  small zoo study, used by CI to exercise the cold-run → warm-cache
  path in seconds.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.orchestrate.job import Job, resolve

__all__ = [
    "RESULTS_DIR",
    "all_jobs",
    "default_sweep",
    "figure_job_names",
    "smoke_sweep",
    "with_points",
]

#: The repo's committed results directory (…/repro/results).
RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"

#: Analytical figures: figure id -> implementing function name.
_FIGURE_FNS = {
    "fig4": "figure4",
    "fig5": "figure5",
    "fig6": "figure6",
    "fig7": "figure7",
    "fig8": "figure8",
    "fig9": "figure9",
    "fig10": "figure10",
    "fig11a": "figure11a",
    "fig11b": "figure11b",
}

#: Extension figures: figure id -> implementing function name.
_EXTENSION_FNS = {
    "ext-assoc": "extension_associativity",
    "ext-missratio": "extension_missratio",
    "ext-bandwidth": "extension_bandwidth",
    "ext-utilization": "extension_utilization",
}

_ABLATION_STEMS = (
    "ablation_associativity",
    "ablation_interleave",
    "ablation_linesize",
    "ablation_mappings",
    "ablation_prefetch",
    "ablation_prime_linesize",
    "ablation_replacement",
    "ablation_sensitivity",
    "ablation_victim",
)

#: Module scopes folded into cache keys, per job family.
_ANALYTICAL = ("repro.analytical",)
_SIMULATED = ("repro.analytical", "repro.cache", "repro.memory",
              "repro.machine", "repro.experiments.figures",
              "repro.experiments.stats")
_ABLATION = ("repro.analytical", "repro.cache", "repro.memory",
             "repro.machine", "repro.trace")
_ZOO = ("repro.analytical", "repro.cache", "repro.machine",
        "repro.trace", "repro.workloads", "repro.experiments.cache_zoo")

#: The renderer of every fixed-width table result.
_TABLE = "repro.experiments.ablations:render_ablation"

#: Studies beside the figures (repro.experiments.studies):
#: job name -> (study function, module scope, renderer).
_STUDY_FNS = {
    "address-gen": ("address_gen_study", ("repro.core",),
                    "repro.experiments.studies:render_address_gen"),
    "bandwidth": ("bandwidth_study", _ABLATION, _TABLE),
    "workloads": ("workload_study", _ABLATION + ("repro.workloads",),
                  _TABLE),
    "programs": ("program_study", _ABLATION, _TABLE),
}

_SIMULATED_FIGURES = "repro.experiments.simulated_figures"

#: Figures assembled from point jobs: the figure job's function -> the
#: function listing its samples' params, largest first.
_POINT_FIGURES = {
    f"{_SIMULATED_FIGURES}:assemble_figure7":
        f"{_SIMULATED_FIGURES}:figure7_points",
    f"{_SIMULATED_FIGURES}:assemble_figure8":
        f"{_SIMULATED_FIGURES}:figure8_points",
}

#: The function of every point job.
_POINT_FN = f"{_SIMULATED_FIGURES}:measure_point"

#: Cache-zoo studies (docs/cache-zoo.md): job name -> study function.
_ZOO_FNS = {
    "zoo-bicameral-vs-prime": "zoo_bicameral_vs_prime",
    "zoo-hashed-collision": "zoo_hashed_collision",
    "zoo-hierarchy": "zoo_hierarchy",
    "zoo-irregular": "zoo_irregular",
}


def figure_job_names() -> tuple[str, ...]:
    """The analytical paper-figure jobs."""
    return tuple(_FIGURE_FNS)


def with_points(job: Job) -> list[Job]:
    """``job`` followed by the point jobs it is assembled from.

    A figure measured one sample at a time (``fig7-simulated``,
    ``fig8-simulated`` and any override of them) depends on one job per
    (figure point, machine, seed), derived here from the figure job's
    params, so an override derives its own points.  Each point job is
    named from its own params (``point_name``), so variants that share a
    sample share its job and its cache entry; the points keep the
    lister's order (largest first).  Any other job comes back alone.
    """
    lister = _POINT_FIGURES.get(job.fn)
    if lister is None:
        return [job]
    from repro.experiments.simulated_figures import point_name

    points = {point_name(point): point
              for point in resolve(lister)(**job.params)}
    return [replace(job, deps=tuple(points)),
            *(Job(name=name, fn=_POINT_FN, params=point, modules=_SIMULATED)
              for name, point in points.items())]


def all_jobs() -> dict[str, Job]:
    """Build the full registry, name -> :class:`Job`."""
    from repro.experiments.simulated_figures import (
        CANONICAL_FIG7_SIMULATED,
        CANONICAL_FIG8_SIMULATED,
    )

    jobs: list[Job] = []

    for figure_id, fn_name in _FIGURE_FNS.items():
        jobs.append(Job(
            name=figure_id,
            fn=f"repro.experiments.figures:{fn_name}",
            modules=_ANALYTICAL,
            render="repro.experiments.render:render_figure",
            artifact=f"{figure_id}.txt",
        ))

    for figure_id, fn_name in _EXTENSION_FNS.items():
        jobs.append(Job(
            name=figure_id,
            fn=f"repro.experiments.extension_figures:{fn_name}",
            modules=_ANALYTICAL + ("repro.experiments.figures",),
        ))
    jobs.append(Job(
        name="extension-figures",
        fn="repro.orchestrate.writers:join_figures",
        deps=tuple(_EXTENSION_FNS),
        modules=("repro.experiments.render",),
        artifact="extension_figures.txt",
    ))

    jobs.append(Job(
        name="subblock",
        fn="repro.experiments.subblock_study:subblock_study",
        modules=("repro.analytical.subblock",),
        render="repro.orchestrate.writers:render_subblock",
        artifact="subblock.txt",
    ))

    for job_name, fn_name in _ZOO_FNS.items():
        jobs.append(Job(
            name=job_name,
            fn=f"repro.experiments.cache_zoo:{fn_name}",
            modules=_ZOO,
            render=_TABLE,
            artifact=f"{job_name.replace('-', '_')}.txt",
        ))

    for stem in _ABLATION_STEMS:
        jobs.append(Job(
            name=stem.replace("_", "-"),
            fn=f"repro.experiments.ablations:{stem}",
            modules=_ABLATION,
            render=_TABLE,
            artifact=f"{stem}.txt",
        ))

    for job_name, (fn_name, modules, render) in _STUDY_FNS.items():
        jobs.append(Job(
            name=job_name,
            fn=f"repro.experiments.studies:{fn_name}",
            modules=modules,
            render=render,
            artifact=f"{job_name.replace('-', '_')}.txt",
        ))

    for figure_id, assemble, params in (
            ("fig7", "assemble_figure7", CANONICAL_FIG7_SIMULATED),
            ("fig8", "assemble_figure8", CANONICAL_FIG8_SIMULATED)):
        jobs += with_points(Job(
            name=f"{figure_id}-simulated",
            fn=f"{_SIMULATED_FIGURES}:{assemble}",
            params=dict(params),
            modules=_SIMULATED,
            render="repro.experiments.render:render_figure",
            artifact=f"{figure_id}_simulated.txt",
        ))

    jobs.append(Job(
        name="report",
        fn="repro.experiments.report:report_from_inputs",
        deps=tuple(_FIGURE_FNS) + tuple(_EXTENSION_FNS) + ("subblock",),
        modules=("repro.experiments.checks", "repro.experiments.render"),
        artifact="reproduction_report.md",
    ))

    # design-space optimizer (ROADMAP item 5): surrogate sweep + Pareto
    # front, then top-K re-scored on the cycle-level machines.  Default
    # params are the CI-sized grid; ``repro optimize`` overrides them
    # from its flags (the cache key folds params, so variants coexist).
    jobs.append(Job(
        name="optimize-search",
        fn="repro.experiments.optimizer:optimize_search",
        params={"max_area_words": 10000, "max_banks": 64, "top_k": 8},
        modules=_ANALYTICAL,
    ))
    jobs.append(Job(
        name="optimize-verify",
        fn="repro.experiments.optimizer:verify_front",
        params={"top_k": 3, "seeds": 2, "blocks": 4},
        deps=("optimize-search",),
        modules=_SIMULATED,
    ))

    jobs.append(Job(
        name="validation",
        fn="repro.experiments.validation:validation_grid",
        params={"t_m_values": (8, 16), "blocks": (512, 2048), "seeds": 4},
        modules=_SIMULATED,
        render="repro.experiments.validation:render_validation",
        artifact="validation.txt",
    ))

    # CI smoke pair: tiny machine-measured figure points, heavy enough
    # (a few seconds) that the warm-cache speedup is unambiguous; each
    # stays one job, its samples measured in-process
    jobs.append(Job(
        name="smoke-fig7-simulated",
        fn=f"{_SIMULATED_FIGURES}:figure7_simulated",
        params={"t_m_values": (8, 32, 64), "seeds": 1, "blocks": 2},
        modules=_SIMULATED,
    ))
    jobs.append(Job(
        name="smoke-fig8-simulated",
        fn=f"{_SIMULATED_FIGURES}:figure8_simulated",
        params={"block_values": (256, 1024), "seeds": 1, "blocks": 2},
        modules=_SIMULATED,
    ))
    jobs.append(Job(
        name="smoke-zoo-hashed",
        fn="repro.experiments.cache_zoo:zoo_hashed_collision",
        params={"set_counts": (16, 64), "fills": (0.5, 1.0),
                "sim_seeds": 2, "law_seeds": 256},
        modules=_ZOO,
        render=_TABLE,
        artifact="smoke_zoo_hashed.txt",
    ))

    return {job.name: job for job in jobs}


#: Jobs kept out of the default sweep: scheduled on demand only.
_NON_DEFAULT = ("optimize-search", "optimize-verify",
                "smoke-fig7-simulated", "smoke-fig8-simulated",
                "smoke-zoo-hashed")


def default_sweep() -> tuple[str, ...]:
    """The full-figure-set selection ``repro sweep`` runs by default
    (point jobs run as their figures' dependencies)."""
    return tuple(name for name, job in all_jobs().items()
                 if name not in _NON_DEFAULT and job.fn != _POINT_FN)


def smoke_sweep() -> tuple[str, ...]:
    """The CI smoke selection: two figure points plus one zoo study."""
    return ("smoke-fig7-simulated", "smoke-fig8-simulated",
            "smoke-zoo-hashed")
