"""The ``sweep`` workload: the experiment graph as ``repro sweep`` runs it.

The pinned job list (:data:`perfbench.common.SWEEP_JOBS`) runs inline
(``workers=1``) through :class:`repro.orchestrate.Runner` into an empty
private store, with artifacts written to a private directory: one cold
pass, then warm passes over the same store for ``--seconds`` (at least
:data:`MIN_WARM_PASSES`).  The seed changes nothing:
the workload's inputs are the pinned jobs, requested in the pinned order
(a permuted order moved peak RSS by 7 % between runs).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import common

MIN_WARM_PASSES = 100

#: Jobs of the seconds-scale variant the benchmark's tests run.
TINY_JOBS = ("fig4", "fig9", "ext-assoc", "ext-missratio",
             "ext-bandwidth", "ext-utilization", "extension-figures",
             "subblock", "zoo-hashed-collision", "ablation-victim")


def check_pass(summary, names, status: str) -> list[str]:
    """Jobs that did not end with ``status``."""
    wrong = [f"{o.name}: {o.status}" + (f" ({o.error})" if o.error else "")
             for o in summary.outcomes if o.status != status]
    if len(summary.outcomes) != len(names):
        wrong.append(f"{len(summary.outcomes)} outcomes for "
                     f"{len(names)} jobs")
    return wrong


def check_artifacts(runner, summary, results_dir: Path,
                    reference_dir: Path) -> tuple[int, list[str]]:
    """Compare each materialised artifact with the warm pass's rendering
    and with its committed reference; returns ``(checked, failures)``."""
    failures = []
    checked = 0
    for outcome in summary.outcomes:
        job = runner.jobs[outcome.name]
        if job.artifact is None:
            continue
        checked += 1
        text = job.render_result(summary.results[job.name])
        if not text.endswith("\n"):
            text += "\n"
        expected = text.encode()
        written = (results_dir / job.artifact).read_bytes()
        if written != expected:
            failures.append(f"{job.artifact}: differs from the warm pass")
        reference = reference_dir / job.artifact
        if not reference.exists() or reference.read_bytes() != written:
            failures.append(f"{job.artifact}: differs from {reference}")
    return checked, failures


def run(seconds: float, run_dir: Path, *, tiny: bool = False) -> dict:
    from repro.orchestrate import RESULTS_DIR, ResultStore, Runner, all_jobs

    names = list(TINY_JOBS if tiny else common.SWEEP_JOBS)
    results_dir = run_dir / "artifacts"
    runner = Runner(all_jobs().values(),
                    store=ResultStore(run_dir / "store"), workers=1,
                    results_dir=results_dir, log_path=None)
    failures: list[str] = []
    attempted = 0
    t0 = time.perf_counter_ns()
    cold = runner.run(names)
    cold_s = (time.perf_counter_ns() - t0) / 1e9
    attempted += len(names)
    failures += check_pass(cold, names, "ran")
    warm_ms = []
    warm_t0 = time.perf_counter_ns()
    while (len(warm_ms) < MIN_WARM_PASSES
           or time.perf_counter_ns() - warm_t0 < seconds * 1e9):
        start = time.perf_counter_ns()
        warm = runner.run(names)
        warm_ms.append((time.perf_counter_ns() - start) / 1e6)
        attempted += len(names)
        failures += check_pass(warm, names, "hit")
    t1 = time.perf_counter_ns()
    checked, artifact_failures = check_artifacts(
        runner, warm, results_dir, RESULTS_DIR)
    attempted += checked
    failures += artifact_failures
    return {
        "ready_ns": t0, "t0": t0, "t1": t1,
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
        # tracing overhead is measured on the cold pass
        "work_units": 1, "wall_s": cold_s,
        "metrics": {
            "work_per_s": len(names) / cold_s,
            "op_p50_ms": float(np.percentile(warm_ms, 50)),
            "op_p90_ms": float(np.percentile(warm_ms, 90)),
            "peak_rss_mb": common.peak_rss_mb(),
        },
        "detail": {"cold_s": cold_s,
                   "warm_ms": float(np.percentile(warm_ms, 50)),
                   "warm_passes": len(warm_ms),
                   "artifacts_checked": checked,
                   "cold_jobs_s": {o.name: o.elapsed_s
                                   for o in cold.outcomes}},
    }


def main(argv=None) -> int:
    args = common.workload_args(argv)
    common.start_tracing(args)
    import repro.orchestrate

    if args.setup_only:
        repro.orchestrate.Runner(
            repro.orchestrate.all_jobs().values(),
            store=repro.orchestrate.ResultStore(args.run_dir / "store"),
            workers=1, results_dir=args.run_dir / "artifacts")
        args.out.write_text(json.dumps({"ready_ns": time.perf_counter_ns()}))
        return 0
    result = run(args.seconds, args.run_dir, tiny=args.tiny)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
