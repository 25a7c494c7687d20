"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {replay,sweep,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in its own process
(``python -m perfbench.<workload>``) with a private ``REPRO_CACHE_DIR``
and temp directory under ``.perfbench/`` and with ``REPRO_BACKEND`` and
``REPRO_KERNEL_PROVIDER`` cleared, so the program's defaults run.

``--trace 0`` prints the end-to-end metrics; set-up is measured several
times (separate set-up-only processes, or fresh daemons for ``serve``)
and reported as the median.  ``--trace 1`` runs the workload twice, once
plain and once with span wrappers, and prints the per-layer metrics of
the traced run; ``tracing_overhead`` compares the two.  A fixed
host-speed probe runs before and after.  The line before the last holds
provenance, the probe times and workload details; the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("replay", "sweep", "serve")
#: Set-up-only processes per untraced run of ``replay`` and ``sweep``
#: (the timed process adds one more sample).  Half run before the timed
#: process and half after it, so the samples span the run's drift in
#: host speed rather than one window of a few seconds.
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s",
              "op_p50_ms": "ms", "op_p90_ms": "ms"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    from perfbench.spans import FAMILIES, LAYERS, ORGS

    units = {"traced_wall_s": "s", "unattributed_s": "s",
             "tracing_overhead": "ratio"}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    for layer in ("trace", "workloads"):
        units[f"{layer}.refs"] = "count"
        units[f"{layer}.busy_s"] = "s"
    units.update({"cache.refs": "count", "cache.hits": "count",
                  "cache.misses": "count", "cache.busy_s": "s",
                  "cache.self_s": "s", "cache.classified.busy_s": "s",
                  "cache.unclassified.busy_s": "s"})
    for org in ORGS:
        units[f"cache.{org}.busy_s"] = "s"
        units[f"cache.{org}.refs_per_s"] = "refs/s"
    units.update({"kernels.calls": "count", "kernels.busy_s": "s",
                  "machine.runs": "count", "machine.sim_cycles": "cycles",
                  "machine.busy_s": "s",
                  "machine.sim_cycles_per_s": "cycles/s",
                  "analytical.points": "count", "analytical.busy_s": "s"})
    units.update({f"experiments.{family}.busy_s": "s"
                  for family in FAMILIES})
    units.update({
        "orchestrate.fingerprint.files": "count",
        "orchestrate.fingerprint.busy_s": "s",
        "orchestrate.store.loads": "count",
        "orchestrate.store.load_s": "s",
        "orchestrate.store.bytes_read": "bytes",
        "orchestrate.store.saves": "count",
        "orchestrate.store.save_s": "s",
        "orchestrate.store.bytes_written": "bytes",
        "orchestrate.runner.self_s": "s",
        "serve.requests": "count", "serve.hits": "count",
        "serve.computed": "count", "serve.coalesced": "count",
        "serve.errors": "count", "serve.hit_ratio": "ratio",
        "serve.normalise_s": "s", "serve.plan_s": "s",
        "serve.resolve_s": "s", "serve.jsonable_s": "s",
        "serve.queries_s": "s", "serve.dispatch_s": "s",
        "serve.http.self_s": "s", "serve.response_bytes": "bytes",
        "serve.hit_p99_ms": "ms", "serve.hit_samples": "count",
    })
    return units


def child_env(run_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    env["REPRO_KERNEL_CACHE"] = str(ROOT / ".perfbench" / "kernels")
    env["TMPDIR"] = str(run_dir / "tmp")
    return env


def run_child(workload: str, args, run_dir: Path, *, trace: int = 0,
              setup_only: bool = False) -> dict:
    """Run one workload process to completion; returns its result."""
    child_dir = run_dir / f"child-{len(list(run_dir.glob('child-*')))}"
    (child_dir / "tmp").mkdir(parents=True)
    out = child_dir / "result.json"
    command = [sys.executable, "-m", f"perfbench.{workload}",
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--run-dir", str(child_dir), "--out", str(out),
               "--trace", str(trace)]
    if setup_only:
        command.append("--setup-only")
    if args.tiny:
        command.append("--tiny")
    spawned = time.perf_counter_ns()
    process = subprocess.Popen(command + ["--spawned-ns", str(spawned)],
                               cwd=ROOT, env=child_env(child_dir),
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SystemExit(f"{workload} did not finish in {CHILD_TIMEOUT_S} s")
    finally:
        # the workload stops what it starts; this only catches leftovers
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        sys.stderr.write(stderr.decode(errors="replace"))
        raise SystemExit(f"{workload} exited with {process.returncode}")
    result = json.loads(out.read_text())
    result["run_dir"] = child_dir
    if result.get("ready_ns") is not None:
        result["setup_samples_s"] = [(result["ready_ns"] - spawned) / 1e9]
    return result


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> str | None:
    """The checked-out commit; ``None`` when the checkout is not a git
    repository or git is missing.  ``--git-dir`` keeps git from taking
    the revision of a repository that encloses the checkout."""
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args) -> dict:
    import numpy

    from repro import kernels

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "kernel_backend": kernels.default_backend(),
        "kernel_provider": kernels.provider_info()["name"],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_revision": git_revision(),
        "source_digest": source_digest(),
    }


def measure(args, run_dir: Path) -> tuple[dict, dict, int, int]:
    """Run the workload; returns ``(metrics, detail, attempted, failed)``."""
    if args.trace:
        from perfbench.spans import layer_metrics

        plain = run_child(args.workload, args, run_dir)
        traced = run_child(args.workload, args, run_dir, trace=1)
        metrics = dict.fromkeys(per_layer_units(), 0)
        metrics.update(layer_metrics(traced["run_dir"] / "spans",
                                     traced["t0"], traced["t1"]))
        metrics.update(traced.get("layer", {}))
        metrics["tracing_overhead"] = (
            (traced["wall_s"] / traced["work_units"])
            / (plain["wall_s"] / plain["work_units"]) - 1.0)
        runs = (plain, traced)
        detail = {"untraced": plain["detail"], "traced": traced["detail"]}
    else:
        # the serve workload samples set-up on its own daemons
        probes = 0 if args.workload == "serve" else SETUP_PROBES

        def setup_probes(count: int) -> list[float]:
            return [run_child(args.workload, args, run_dir,
                              setup_only=True)["setup_samples_s"][0]
                    for _ in range(count)]

        before = setup_probes(probes // 2)
        main_run = run_child(args.workload, args, run_dir)
        samples = (before + main_run["setup_samples_s"]
                   + setup_probes(probes - probes // 2))
        metrics = dict(main_run["metrics"])
        metrics["setup_s"] = statistics.median(samples)
        detail = dict(main_run["detail"])
        detail["setup_samples_s"] = samples
        runs = (main_run,)
    failures = [f for run in runs for f in run["failures"]]
    if failures:
        detail["failures"] = failures[:20]
    return (metrics, detail, sum(run["attempted"] for run in runs),
            sum(run["failed"] for run in runs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-scale sizes (the benchmark's tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # the provider report may build the C kernels: keep the build and the
    # compiler's temp files inside the checkout
    os.environ["REPRO_KERNEL_CACHE"] = str(ROOT / ".perfbench" / "kernels")
    tmp = ROOT / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # every process of the run inherits this environment: program
    # defaults for the kernel backend and provider
    for name in ("REPRO_BACKEND", "REPRO_KERNEL_PROVIDER"):
        os.environ.pop(name, None)
    from perfbench.common import host_probe

    run_dir = (ROOT / ".perfbench"
               / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    run_dir.mkdir(parents=True)
    try:
        probe_before = host_probe()
        metrics, detail, attempted, failed = measure(args, run_dir)
        probe_after = host_probe()
        record = provenance(args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = END_TO_END if not args.trace else per_layer_units()
    record["host_probe_s"] = {"before": probe_before, "after": probe_after}
    record["detail"] = detail
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
