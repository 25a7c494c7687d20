"""Helpers shared by the workload processes and `run.py`."""

from __future__ import annotations

import os
import resource
import time
from pathlib import Path

#: Job list of the ``sweep`` workload: the 31-job default sweep with the
#: two long machine-measured figures swapped for their smoke twins (same
#: code, fewer points).  Pinned so the workload stays fixed when the
#: registry grows.
SWEEP_JOBS = (
    "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11a",
    "fig11b", "ext-assoc", "ext-missratio", "ext-bandwidth",
    "ext-utilization", "extension-figures", "subblock",
    "zoo-bicameral-vs-prime", "zoo-hashed-collision", "zoo-hierarchy",
    "zoo-irregular", "ablation-associativity", "ablation-interleave",
    "ablation-linesize", "ablation-mappings", "ablation-prefetch",
    "ablation-prime-linesize", "ablation-replacement",
    "ablation-sensitivity", "ablation-victim", "smoke-fig7-simulated",
    "smoke-fig8-simulated", "report",
)


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, from ``/proc``, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> list[int]:
    """Direct children of a live process."""
    children: list[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        children.extend(int(part) for part in text.split())
    return children


def host_probe() -> float:
    """Seconds for a fixed pure-Python plus numpy loop (host-speed probe)."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    values = np.arange(1 << 20, dtype=np.int64)
    for _ in range(20):
        values = (values * 31 + 7) % 1_000_003
        np.sort(values[: 1 << 16])
    if total < 0 or int(values[0]) < 0:
        raise RuntimeError("probe arithmetic went wrong")
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The serve client and daemon take turns (a closed loop never overlaps
    them), so one CPU loses no work; left free to migrate, the
    cross-CPU wake-ups moved warm-hit latency by 1.6x between runs.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def workload_args(argv=None):
    """Arguments every workload process takes; pins the process too."""
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-ns", type=int, required=True,
                        help="run.py clock reading just before the spawn")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up; report only setup_s")
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-scale sizes for the benchmark's tests")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    return args


def start_tracing(args):
    """Install the span wrappers when the run is traced; else ``None``."""
    if not args.trace:
        return None
    from perfbench import spans

    directory = args.run_dir / "spans"
    directory.mkdir(parents=True, exist_ok=True)
    return spans.install("main", directory)

