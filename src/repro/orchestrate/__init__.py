"""Experiment orchestration: a job-graph runner with a result cache.

The experiment layer used to be a pile of scripts, each recomputing from
scratch and serialising its own ``results/*.txt``.  This package turns
it into a service (see ``docs/orchestration.md``):

* :mod:`~repro.orchestrate.job` — a :class:`Job` is a pure function +
  parameter dict + declared inputs + fingerprinted source modules;
* :mod:`~repro.orchestrate.fingerprint` — stable content-addressed
  cache keys (params + code fingerprint + dependency keys);
* :mod:`~repro.orchestrate.store` — the on-disk cache
  (``~/.cache/repro`` or ``--cache-dir``), atomic and corruption-safe;
* :mod:`~repro.orchestrate.runner` — dependency-ordered scheduling,
  inline or on a process pool that survives worker deaths, per-job
  timing/memory metrics, JSONL run logs, crash-resumability;
* :mod:`~repro.orchestrate.jobs` — the registry of every experiment:
  figures, extension figures, ablations, simulated figures, the
  sub-block study, the reproduction report.

``repro sweep`` is the CLI face of this package.
"""

from __future__ import annotations

from repro.orchestrate.fingerprint import (
    FingerprintCache,
    cache_key,
    module_fingerprint,
)
from repro.orchestrate.job import Job, resolve
from repro.orchestrate.jobs import (
    RESULTS_DIR,
    all_jobs,
    default_sweep,
    figure_job_names,
    smoke_sweep,
    with_points,
)
from repro.orchestrate.runlog import RunLog, read_events
from repro.orchestrate.runner import JobOutcome, Runner, RunSummary
from repro.orchestrate.store import CacheEntry, ResultStore, default_cache_dir

__all__ = [
    "CacheEntry",
    "FingerprintCache",
    "Job",
    "JobOutcome",
    "RESULTS_DIR",
    "RunLog",
    "RunSummary",
    "Runner",
    "ResultStore",
    "all_jobs",
    "cache_key",
    "compute_figures",
    "default_cache_dir",
    "default_sweep",
    "figure_job_names",
    "module_fingerprint",
    "read_events",
    "resolve",
    "smoke_sweep",
    "with_points",
]


def compute_figures(store: ResultStore | None = None) -> dict:
    """Every analytical figure, answered from the orchestrated cache.

    This is the path ``repro verify``'s golden comparison reads, so a
    verification pass prices figure regeneration at one cache lookup
    once a sweep has run.  Correctness guard: while a catalogued fault
    is injected (``repro verify --mutate`` / the mutation self-check),
    the cache is bypassed *and not written*, so a mutated run can
    neither read stale un-mutated results nor poison the store with
    mutated ones.
    """
    from repro.verify.mutations import mutation_active

    names = figure_job_names()
    if mutation_active():
        jobs = all_jobs()
        return {name: jobs[name].execute() for name in names}
    runner = Runner(all_jobs().values(), store=store)
    summary = runner.run(names)
    return {name: summary.results[name] for name in names}
