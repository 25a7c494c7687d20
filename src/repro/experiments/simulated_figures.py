"""Regenerate the key figures from the *executable* machines.

The paper's evaluation is purely analytical.  Because this reproduction
also has cycle-level MM/CC machine simulators, the headline figures can be
regenerated a second, independent way: synthesize the VCM workload with a
seeded RNG, run it on the machines, and plot the measured cycles per
result.  The curves will not coincide numerically with the closed forms
(the simulation samples the stride lottery; the equations take its
expectation), but the *shape* — the ordering of the three machines and
the flatness of the prime curve — must and does survive.

Runtime note: the machines run on the op-table timing engine (see
``docs/architecture.md``).  Each block reaches the machine as one
:class:`~repro.machine.ops.OpTable`, and every chunk of 32 K references
costs one address expansion, one bank mapping, one cache probe and one C
timing call — tens of nanoseconds per simulated reference with generated
C, two orders of magnitude below the per-element reference loop.  That makes the
*full-reuse* workload (``R = B``, the paper's steady-state assumption)
the default here.  The canonical jobs (:data:`CANONICAL_FIG7_SIMULATED`,
:data:`CANONICAL_FIG8_SIMULATED`) take seconds; parallelism comes from
the runner's process pool, one job per worker.
"""

from __future__ import annotations

from repro.analytical.base import MachineConfig
from repro.analytical.vcm import VCM
from repro.cache import DirectMappedCache, PrimeMappedCache
from repro.experiments.figures import DEFAULTS, FigureResult, FigureSeries
from repro.experiments.stats import summarize
from repro.machine import CCMachine, MMMachine, VCMDriver

__all__ = [
    "CANONICAL_FIG7_SIMULATED",
    "CANONICAL_FIG8_SIMULATED",
    "figure7_simulated",
    "figure8_simulated",
]

#: The canonical regeneration parameters of the ``fig7-simulated`` /
#: ``fig8-simulated`` jobs, which write ``results/fig7_simulated.txt`` /
#: ``fig8_simulated.txt``.  fig8 runs blocking factors up to the full
#: cache at R = B, so its sample count is kept smaller.
CANONICAL_FIG7_SIMULATED = {"seeds": 2, "blocks": 4}
CANONICAL_FIG8_SIMULATED = {"seeds": 2, "blocks": 2}


def _machines(t_m: int, num_banks: int) -> dict:
    """Factories of the three machines at one grid point."""
    config = MachineConfig(num_banks=num_banks, memory_access_time=t_m,
                           cache_lines=DEFAULTS["direct_lines"])
    prime = config.with_(cache_lines=DEFAULTS["prime_lines"])
    return {
        "MM-model": lambda: MMMachine(config),
        "CC-direct": lambda: CCMachine(config, DirectMappedCache(
            num_lines=DEFAULTS["direct_lines"], classify_misses=False)),
        "CC-prime": lambda: CCMachine(
            prime, PrimeMappedCache(c=13, classify_misses=False)),
    }


def _sample_seeds(base_seed: int, seeds: int) -> list[int]:
    """The per-sample driver seeds for one grid point.

    Derived from the base seed and sample index only, so a point's
    samples are the same however the points are scheduled.
    """
    return [base_seed * 1_000_003 + i for i in range(seeds)]


def _measure(
    make_machine, vcm: VCM, seeds: int, blocks: int, base_seed: int = 0,
) -> float:
    """Seed-averaged cycles per result for one machine at one grid point."""
    problem_size = vcm.blocking_factor * blocks
    return summarize([
        VCMDriver(make_machine(), seed=seed)
        .run(vcm, problem_size=problem_size).cycles_per_result
        for seed in _sample_seeds(base_seed, seeds)]).mean


def _vcm(block: int, reuse: int) -> VCM:
    return VCM(blocking_factor=block, reuse_factor=reuse,
               p_ds=DEFAULTS["p_ds"], p_stride1_s1=DEFAULTS["p_stride1"],
               p_stride1_s2=DEFAULTS["p_stride1"])


def _curves(points, seeds: int, blocks: int,
            base_seed: int) -> list[FigureSeries]:
    """Each machine's measured curve over the ``(t_m, vcm)`` points."""
    curves: dict[str, list[float]] = {}
    for t_m, vcm in points:
        for label, factory in _machines(t_m, num_banks=64).items():
            curves.setdefault(label, []).append(
                _measure(factory, vcm, seeds, blocks, base_seed))
    return [FigureSeries(label, values) for label, values in curves.items()]


def figure7_simulated(
    t_m_values=None, *, block: int = 1024, reuse: int | None = None,
    seeds: int = 8, blocks: int = 6, base_seed: int = 0,
) -> FigureResult:
    """Figure 7's three curves, measured on the cycle-level machines.

    ``reuse=None`` runs the paper's full-reuse steady state (``R = B``).
    ``blocks`` independent blocks per run sample the stride distribution;
    with one block the direct-mapped curve is a single draw of the stride
    lottery and noisy.  ``base_seed`` shifts the whole seed family.
    """
    t_m_values = list(t_m_values or (8, 16, 32, 48, 64))
    reuse_factor = block if reuse is None else reuse
    vcm = _vcm(block, reuse_factor)
    return FigureResult(
        "fig7-simulated",
        "Figure 7 regenerated by cycle-level simulation",
        "memory access time t_m (cycles)", t_m_values,
        "measured clock cycles per result",
        _curves([(t_m, vcm) for t_m in t_m_values], seeds, blocks,
                base_seed),
        notes=f"simulated; M=64, B={block}, R={reuse_factor}, {seeds} seeds",
    )


def figure8_simulated(
    block_values=None, *, t_m: int = 32, reuse: int | None = None,
    seeds: int = 8, blocks: int = 6, base_seed: int = 0,
) -> FigureResult:
    """Figure 8's three curves, measured on the cycle-level machines.

    ``reuse=None`` runs full reuse per point (``R = B`` for each swept
    blocking factor).
    """
    block_values = list(block_values or (256, 1024, 4096, 8191))
    points = [(t_m, _vcm(block, block if reuse is None else reuse))
              for block in block_values]
    return FigureResult(
        "fig8-simulated",
        "Figure 8 regenerated by cycle-level simulation",
        "blocking factor B (elements)", block_values,
        "measured clock cycles per result",
        _curves(points, seeds, blocks, base_seed),
        notes=(f"simulated; M=64, t_m={t_m}, "
               f"{'full reuse R=B' if reuse is None else f'R={reuse}'}, "
               f"{seeds} seeds"),
    )
