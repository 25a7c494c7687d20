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
the default here, with ``seeds=8`` per point; seed sampling can
additionally fan out over a process pool via ``workers=``.  The canonical
jobs (:data:`CANONICAL_FIG7_SIMULATED`, :data:`CANONICAL_FIG8_SIMULATED`)
take seconds; ``seeds=8`` at full size remains a benchmark target rather
than a test-suite default.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial

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

#: The canonical regeneration parameters: the single parameterisation
#: both the benchmark harness and the ``repro sweep`` jobs use, so
#: ``results/fig7_simulated.txt`` / ``fig8_simulated.txt`` have exactly
#: one provenance (they used to be written under two parameterisations
#: depending on which path ran last).  fig8 runs blocking factors up to
#: the full cache at R = B, so its sample count is kept smaller.
CANONICAL_FIG7_SIMULATED = {"seeds": 2, "blocks": 4}
CANONICAL_FIG8_SIMULATED = {"seeds": 2, "blocks": 2}


def _direct_config(t_m: int, num_banks: int) -> MachineConfig:
    return MachineConfig(
        num_banks=num_banks, memory_access_time=t_m,
        cache_lines=DEFAULTS["direct_lines"],
    )


# module-level factories (not lambdas) so ``partial`` specialisations of
# them pickle cleanly into ProcessPoolExecutor workers
def _make_mm(t_m: int, num_banks: int) -> MMMachine:
    return MMMachine(_direct_config(t_m, num_banks))


def _make_cc_direct(t_m: int, num_banks: int) -> CCMachine:
    return CCMachine(
        _direct_config(t_m, num_banks),
        DirectMappedCache(num_lines=DEFAULTS["direct_lines"],
                          classify_misses=False),
    )


def _make_cc_prime(t_m: int, num_banks: int) -> CCMachine:
    config = _direct_config(t_m, num_banks).with_(
        cache_lines=DEFAULTS["prime_lines"])
    return CCMachine(config, PrimeMappedCache(c=13, classify_misses=False))


def _machines(t_m: int, num_banks: int):
    return {
        "MM-model": partial(_make_mm, t_m, num_banks),
        "CC-direct": partial(_make_cc_direct, t_m, num_banks),
        "CC-prime": partial(_make_cc_prime, t_m, num_banks),
    }


def _sample(make_machine, vcm: VCM, seed: int, problem_size: int) -> float:
    return (
        VCMDriver(make_machine(), seed=seed)
        .run(vcm, problem_size=problem_size)
        .cycles_per_result
    )


def _sample_seeds(base_seed: int, seeds: int) -> list[int]:
    """The per-sample driver seeds for one grid point.

    Derived from the *base seed and sample index only* — never from the
    worker a sample happens to land on — so any ``workers`` value (and
    any future scheduling change) yields bit-identical figures.
    """
    return [base_seed * 1_000_003 + i for i in range(seeds)]


def _measure(
    make_machine, vcm: VCM, seeds: int, blocks: int,
    workers: int | None = None, base_seed: int = 0,
) -> float:
    """Seed-averaged cycles per result for one machine at one grid point.

    ``workers`` > 1 fans the per-seed runs out over a process pool; the
    default (``None`` or 1, e.g. under pytest) stays serial in-process.
    Results are identical either way: the sample seeds come from
    :func:`_sample_seeds` and ``pool.map`` preserves input order.
    """
    problem_size = vcm.blocking_factor * blocks
    sample_seeds = _sample_seeds(base_seed, seeds)
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, seeds)) as pool:
            samples = list(pool.map(
                partial(_sample, make_machine, vcm,
                        problem_size=problem_size),
                sample_seeds,
            ))
    else:
        samples = [_sample(make_machine, vcm, seed, problem_size)
                   for seed in sample_seeds]
    return summarize(samples).mean


def figure7_simulated(
    t_m_values=None, *, block: int = 1024, reuse: int | None = None,
    seeds: int = 8, blocks: int = 6, workers: int | None = None,
    base_seed: int = 0,
) -> FigureResult:
    """Figure 7's three curves, measured on the cycle-level machines.

    ``reuse=None`` runs the paper's full-reuse steady state (``R = B``).
    ``blocks`` independent blocks per run sample the stride distribution;
    with one block the direct-mapped curve is a single draw of the stride
    lottery and noisy.  ``workers`` parallelises seed sampling across
    processes; ``base_seed`` shifts the whole seed family without
    affecting worker-invariance.
    """
    t_m_values = list(t_m_values or (8, 16, 32, 48, 64))
    reuse_factor = block if reuse is None else reuse
    vcm = VCM(
        blocking_factor=block, reuse_factor=reuse_factor,
        p_ds=DEFAULTS["p_ds"],
        p_stride1_s1=DEFAULTS["p_stride1"], p_stride1_s2=DEFAULTS["p_stride1"],
    )
    curves: dict[str, list[float]] = {"MM-model": [], "CC-direct": [],
                                      "CC-prime": []}
    for t_m in t_m_values:
        for label, factory in _machines(t_m, num_banks=64).items():
            curves[label].append(
                _measure(factory, vcm, seeds, blocks, workers=workers,
                         base_seed=base_seed))
    return FigureResult(
        "fig7-simulated",
        "Figure 7 regenerated by cycle-level simulation",
        "memory access time t_m (cycles)", t_m_values,
        "measured clock cycles per result",
        [FigureSeries(k, v) for k, v in curves.items()],
        notes=f"simulated; M=64, B={block}, R={reuse_factor}, {seeds} seeds",
    )


def figure8_simulated(
    block_values=None, *, t_m: int = 32, reuse: int | None = None,
    seeds: int = 8, blocks: int = 6, workers: int | None = None,
    base_seed: int = 0,
) -> FigureResult:
    """Figure 8's three curves, measured on the cycle-level machines.

    ``reuse=None`` runs full reuse per point (``R = B`` for each swept
    blocking factor); ``workers`` parallelises seed sampling.
    """
    block_values = list(block_values or (256, 1024, 4096, 8191))
    curves: dict[str, list[float]] = {"MM-model": [], "CC-direct": [],
                                      "CC-prime": []}
    for block in block_values:
        vcm = VCM(
            blocking_factor=block,
            reuse_factor=block if reuse is None else reuse,
            p_ds=DEFAULTS["p_ds"],
            p_stride1_s1=DEFAULTS["p_stride1"],
            p_stride1_s2=DEFAULTS["p_stride1"],
        )
        for label, factory in _machines(t_m, num_banks=64).items():
            curves[label].append(
                _measure(factory, vcm, seeds, blocks, workers=workers,
                         base_seed=base_seed))
    return FigureResult(
        "fig8-simulated",
        "Figure 8 regenerated by cycle-level simulation",
        "blocking factor B (elements)", block_values,
        "measured clock cycles per result",
        [FigureSeries(k, v) for k, v in curves.items()],
        notes=(f"simulated; M=64, t_m={t_m}, "
               f"{'full reuse R=B' if reuse is None else f'R={reuse}'}, "
               f"{seeds} seeds"),
    )
