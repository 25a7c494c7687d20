"""Four studies beside the figures, each a registry job with an artifact
under ``results/`` and claims in :mod:`repro.experiments.checks`:

* ``address-gen`` — the Figure-1 datapath's adder passes over a stream;
* ``bandwidth`` — Bailey's bank-count argument, measured on the machines;
* ``workloads`` — traced kernels replayed through both mappings;
* ``programs`` — blocked kernels as vector programs on the machines.

The table studies return an :class:`~repro.experiments.ablations.AblationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.address_gen import AdderCostModel
from repro.experiments.ablations import AblationResult

__all__ = [
    "StreamCosts",
    "address_gen_study",
    "bandwidth_study",
    "program_study",
    "render_address_gen",
    "workload_study",
]


@dataclass(frozen=True)
class StreamCosts:
    """Adder activity of one generated vector stream of ``length``."""

    length: int
    costs: AdderCostModel


def address_gen_study() -> StreamCosts:
    """Step one 4096-element stride-7 stream through the Figure-1
    datapath (32-bit addresses, 8-word lines, ``c = 13``) and count its
    adder passes."""
    from repro.core.address_gen import AddressGenerator, AddressLayout

    gen = AddressGenerator(
        AddressLayout(address_bits=32, offset_bits=3, index_bits=13))
    for _ in gen.generate(0x10000, 7, 4096):
        pass
    return StreamCosts(4096, gen.costs)


def render_address_gen(result: StreamCosts) -> str:
    """The ``results/address_gen.txt`` text."""
    return (
        f"stream of {result.length} elements:\n"
        f"  element adder passes: {result.costs.element_passes} "
        f"(exactly 1 per element step)\n"
        f"  conversion passes:    {result.costs.conversion_passes} "
        f"(start-address folding, off the per-element path)\n\n"
    )


def bandwidth_study() -> AblationResult:
    """Dual-stream random-stride cycles per result (``t_m = 16``, three
    seeds) against the bank count, and the prime-cached alternative at
    the smallest count."""
    from repro.analytical.base import MachineConfig
    from repro.analytical.vcm import VCM
    from repro.cache import PrimeMappedCache
    from repro.machine import CCMachine, MMMachine, VCMDriver

    vcm = VCM(blocking_factor=1024, reuse_factor=8, p_ds=0.5,
              p_stride1_s1=0.25, p_stride1_s2=0.25)

    def measure(make_machine) -> float:
        return sum(VCMDriver(make_machine(), seed=seed).run(
            vcm, problem_size=vcm.blocking_factor * 4).cycles_per_result
            for seed in range(3)) / 3

    rows = []
    for banks in (16, 32, 64, 128, 256, 512):
        cfg = MachineConfig(num_banks=banks, memory_access_time=16)
        rows.append([f"MM, {banks} banks", measure(lambda: MMMachine(cfg))])
    cached = MachineConfig(num_banks=16, memory_access_time=16,
                           cache_lines=8191)
    rows.append(["CC-prime, 16 banks", measure(lambda: CCMachine(
        cached, PrimeMappedCache(c=13, classify_misses=False)))])
    return AblationResult(
        "bandwidth", ["machine", "cycles/result (dual-stream, R=8)"], rows)


def workload_study() -> AblationResult:
    """Hit ratios and conflict misses of real kernel traces in a
    128-line direct-mapped and a 127-line prime-mapped cache."""
    import numpy as np

    from repro import workloads
    from repro.cache import DirectMappedCache, PrimeMappedCache
    from repro.trace.replay import replay

    rng = np.random.default_rng(7)
    _, matmul_trace = workloads.blocked_matmul(
        rng.standard_normal((16, 16)), rng.standard_normal((16, 16)),
        block=8)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    _, fft_trace = workloads.fft_radix2(x)
    _, fft2d_trace = workloads.blocked_fft_2d(x, b2=16)
    _, lu_trace = workloads.blocked_lu(
        rng.standard_normal((16, 16)) + 16 * np.eye(16), block=8)
    _, transpose_trace = workloads.blocked_transpose(
        rng.standard_normal((32, 32)), block=8)
    _, jacobi_trace = workloads.jacobi(rng.standard_normal((10, 10)),
                                       iterations=3)

    rows = []
    for label, trace in (("blocked matmul 16^3 b=8", matmul_trace),
                         ("radix-2 FFT n=256", fft_trace),
                         ("blocked 2-D FFT 256=16x16", fft2d_trace),
                         ("blocked LU n=16 b=8", lu_trace),
                         ("blocked transpose 32x32 b=8", transpose_trace),
                         ("jacobi 10x10 x3", jacobi_trace)):
        direct = replay(trace, DirectMappedCache(num_lines=128))
        prime = replay(trace, PrimeMappedCache(c=7))
        rows.append([label, direct.hit_ratio, prime.hit_ratio,
                     direct.stats.conflict_misses,
                     prime.stats.conflict_misses])
    return AblationResult(
        "workloads",
        ["kernel", "direct hit ratio", "prime hit ratio",
         "direct conflicts", "prime conflicts"],
        rows)


def program_study() -> AblationResult:
    """Blocked matmul, blocked FFT and Jacobi as vector programs on the
    MM-machine and on 128-line direct / 127-line prime CC-machines (16
    banks, ``t_m = 16``)."""
    from repro.analytical.base import MachineConfig
    from repro.cache import DirectMappedCache, PrimeMappedCache
    from repro.machine import CCMachine, MMMachine, programs

    cfg = MachineConfig(num_banks=16, memory_access_time=16,
                        cache_lines=128)
    machines = (
        ("MM (no cache)", lambda: MMMachine(cfg)),
        ("CC direct 128", lambda: CCMachine(
            cfg, DirectMappedCache(num_lines=128, classify_misses=False))),
        ("CC prime 127", lambda: CCMachine(
            cfg.with_(cache_lines=127),
            PrimeMappedCache(c=7, classify_misses=False))),
    )
    rows = []
    for program_label, ops in (
            ("blocked matmul 32^3 b=8", programs.matmul_program(32, 8)),
            ("blocked FFT 64x64", programs.fft_program(64, 64)),
            ("jacobi 11x11 x4 sweeps",
             programs.jacobi_program(11, 11, sweeps=4))):
        for machine_label, build in machines:
            report = build().execute(ops)
            rows.append([program_label, machine_label, report.cycles,
                         report.cycles_per_result,
                         report.miss_stall_cycles])
    return AblationResult(
        "programs",
        ["program", "machine", "cycles", "cycles/result", "miss stalls"],
        rows)
