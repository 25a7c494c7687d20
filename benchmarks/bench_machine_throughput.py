"""Benchmark: the strip-level timing engine versus the scalar loop.

The MM/CC machine simulators carry two interchangeable timing paths: the
per-element reference loop (``fast_path=False``) and the vectorised
strip-level engine that reproduces it bit-for-bit.  This bench drives the
full-reuse Figure-7 operating point (B = R = 1024, ``t_m = 32``, M = 64,
``p_ds = 0.1``) through all three machines on both paths, checks that the
reports agree exactly, and records the simulated-cycles-per-second ratio
in ``BENCH_machine.json`` at the repo root.

The op stream is synthesized once per machine from the block streams of
a seeded :class:`~repro.machine.vcm_driver.VCMDriver` (the draws depend
only on the seed, never on machine timing) and replayed from lists, one
``execute`` call per block as the driver issues them, so the measurement
isolates the timing engine from workload generation.

The acceptance bar is a >= 10x cycles/sec speedup on every machine.
Runable standalone (``python benchmarks/bench_machine_throughput.py``)
or under pytest.  Set ``BENCH_MACHINE_SMOKE=1`` for a seconds-scale smoke
run (tiny reuse, no speedup floor) — used by CI to exercise the harness
and publish the artifact without paying the scalar loop's full runtime.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.analytical.base import MachineConfig
from repro.analytical.vcm import VCM
from repro.cache import DirectMappedCache, PrimeMappedCache
from repro.machine.vcm_driver import VCMDriver
from repro.machine.vector_machine import CCMachine, MMMachine

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_machine.json"

SMOKE = bool(os.environ.get("BENCH_MACHINE_SMOKE"))
BLOCK = 1024
REUSE = 8 if SMOKE else 1024          # full-reuse Figure-7 point: R = B
BLOCKS = 1 if SMOKE else 2
T_M = 32
NUM_BANKS = 64
SPEEDUP_FLOOR = 10.0

CONFIG = MachineConfig(num_banks=NUM_BANKS, memory_access_time=T_M)

MACHINES = {
    "MM-model": lambda fast: MMMachine(CONFIG, fast_path=fast),
    "CC-direct": lambda fast: CCMachine(
        CONFIG, DirectMappedCache(num_lines=8192, classify_misses=False),
        fast_path=fast),
    "CC-prime": lambda fast: CCMachine(
        CONFIG, PrimeMappedCache(c=13, classify_misses=False),
        fast_path=fast),
}


def _report_tuple(report):
    return (report.cycles, report.elements, report.results,
            report.overhead_cycles, report.bank_stall_cycles,
            report.miss_stall_cycles, report.store_stall_cycles,
            report.cache_hits, report.cache_misses)


def _synthesize_blocks(factory) -> list[list]:
    """Pre-draw the whole workload: one op list per block.

    The driver's stride/base draws depend only on the RNG seed, so the
    stream is identical for both timing paths and can be captured
    without running any machine.
    """
    driver = VCMDriver(factory(True), seed=1)
    vcm = VCM(blocking_factor=BLOCK, reuse_factor=REUSE, p_ds=0.1)
    return [list(ops)
            for ops in driver.block_streams(vcm, BLOCK * BLOCKS)]


def _execute(machine, blocks):
    from repro.machine.report import ExecutionReport

    total = ExecutionReport()
    for ops in blocks:
        if isinstance(machine, CCMachine):
            machine.cache.invalidate_all()
        total.merge(machine.execute(ops))
    return total


def measure(name: str, factory) -> dict:
    """Replay one pre-drawn workload on both paths; returns the record."""
    blocks = _synthesize_blocks(factory)

    def timed(fast: bool, reps: int):
        best = float("inf")
        report = None
        for _ in range(reps):
            machine = factory(fast)
            start = time.perf_counter()
            report = _execute(machine, blocks)
            best = min(best, time.perf_counter() - start)
        return best, report

    fast_seconds, fast_report = timed(True, reps=3)
    scalar_seconds, scalar_report = timed(False, reps=1)

    if _report_tuple(fast_report) != _report_tuple(scalar_report):
        raise AssertionError(
            f"{name}: fast-path report diverges from the scalar loop: "
            f"{_report_tuple(fast_report)} != {_report_tuple(scalar_report)}")

    cycles = fast_report.cycles
    return {
        "machine": name,
        "blocking_factor": BLOCK,
        "reuse_factor": REUSE,
        "blocks": BLOCKS,
        "t_m": T_M,
        "num_banks": NUM_BANKS,
        "simulated_cycles": cycles,
        "scalar_seconds": round(scalar_seconds, 4),
        "fast_seconds": round(fast_seconds, 4),
        "scalar_cycles_per_sec": round(cycles / scalar_seconds),
        "fast_cycles_per_sec": round(cycles / fast_seconds),
        "speedup": round(scalar_seconds / fast_seconds, 2),
        "reports_identical": True,
    }


def run() -> dict:
    records = [measure(name, factory) for name, factory in MACHINES.items()]
    payload = {
        "benchmark": "machine_throughput",
        "workload": "figure7 point, full reuse" if not SMOKE
                    else "figure7 point, smoke (truncated reuse)",
        "smoke": SMOKE,
        "speedup_floor": None if SMOKE else SPEEDUP_FLOOR,
        "aggregate_speedup": round(
            sum(r["scalar_seconds"] for r in records)
            / sum(r["fast_seconds"] for r in records), 2),
        "results": records,
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_strip_engine_meets_speedup_floor():
    payload = run()
    for record in payload["results"]:
        assert record["reports_identical"]
        if not SMOKE:
            assert record["speedup"] >= SPEEDUP_FLOOR, (
                f"{record['machine']}: {record['speedup']}x < "
                f"{SPEEDUP_FLOOR}x floor")


if __name__ == "__main__":
    result = run()
    print(json.dumps(result, indent=2))
    for record in result["results"]:
        floor = result["speedup_floor"]
        status = ("ok" if floor is None or record["speedup"] >= floor
                  else "BELOW FLOOR")
        print(f"{record['machine']}: {record['speedup']}x ({status})")
