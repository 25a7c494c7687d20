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
the default here.  A figure is the seed-averaged mean of one sample per
(figure point, machine, seed).  :func:`figure7_simulated` and
:func:`figure8_simulated` measure every sample in-process.  The
canonical jobs (:data:`CANONICAL_FIG7_SIMULATED`,
:data:`CANONICAL_FIG8_SIMULATED`) run each sample as its own job
(:func:`measure_point`, listed by :func:`figure7_points` /
:func:`figure8_points`), and the figure job (:func:`assemble_figure7` /
:func:`assemble_figure8`) averages their results, so the runner's
process pool shares a figure among its workers.
"""

from __future__ import annotations

import numbers

from repro.analytical.base import MachineConfig
from repro.analytical.vcm import VCM
from repro.cache import DirectMappedCache, PrimeMappedCache
from repro.experiments.figures import DEFAULTS, FigureResult, FigureSeries
from repro.experiments.stats import summarize
from repro.machine import CCMachine, MMMachine, VCMDriver

__all__ = [
    "CANONICAL_FIG7_SIMULATED",
    "CANONICAL_FIG8_SIMULATED",
    "MACHINES",
    "assemble_figure7",
    "assemble_figure8",
    "figure7_points",
    "figure7_simulated",
    "figure8_points",
    "figure8_simulated",
    "measure_point",
    "point_name",
]

#: The canonical regeneration parameters of the ``fig7-simulated`` /
#: ``fig8-simulated`` jobs, which write ``results/fig7_simulated.txt`` /
#: ``fig8_simulated.txt``.  fig8 runs blocking factors up to the full
#: cache at R = B, so its sample count is kept smaller.
CANONICAL_FIG7_SIMULATED = {"seeds": 2, "blocks": 4}
CANONICAL_FIG8_SIMULATED = {"seeds": 2, "blocks": 2}

#: The three machines of every simulated figure, in curve order.
MACHINES = ("MM-model", "CC-direct", "CC-prime")

#: The most samples one figure may take (the canonical figures take 30
#: and 24): a larger request is refused before anything is listed.  The
#: service lists a figure's samples on its event loop, at 4-6 us
#: each, so this also bounds how long one request can hold the loop.
MAX_SAMPLES = 1_000

#: The largest value of an integer parameter (a memory access time,
#: blocking factor, reuse factor, block count or base seed).
MAX_INT_PARAM = 2**31 - 1


def _int_param(name: str, value, least: int = 1) -> int:
    """``value`` as an int, if it is one (a bool is not) in ``least`` ..
    :data:`MAX_INT_PARAM`; otherwise a ``ValueError``.

    Every integer parameter passes here before it meets any arithmetic:
    the service hands a request's values over unchecked, and
    ``8191 * "ab"`` repeats a string instead of failing.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, not {type(value).__name__}")
    if not least <= value <= MAX_INT_PARAM:
        raise ValueError(f"{name} must be in {least}..{MAX_INT_PARAM}, "
                         f"got {value}")
    return int(value)


def _machine(label: str, t_m: int):
    """One of the :data:`MACHINES` at memory access time ``t_m``."""
    config = MachineConfig(num_banks=64, memory_access_time=t_m,
                           cache_lines=DEFAULTS["direct_lines"])
    if label == "MM-model":
        return MMMachine(config)
    if label == "CC-direct":
        return CCMachine(config, DirectMappedCache(
            num_lines=DEFAULTS["direct_lines"], classify_misses=False))
    if label == "CC-prime":
        return CCMachine(
            config.with_(cache_lines=DEFAULTS["prime_lines"]),
            PrimeMappedCache(c=13, classify_misses=False))
    raise ValueError(f"machine must be one of {MACHINES}, got {label!r}")


def _sample_seeds(base_seed: int, seeds: int) -> list[int]:
    """The per-sample driver seeds for one grid point.

    Derived from the base seed and sample index only, so a point's
    samples are the same however the points are scheduled.
    """
    return [base_seed * 1_000_003 + i for i in range(seeds)]


def _vcm(block: int, reuse: int) -> VCM:
    return VCM(blocking_factor=block, reuse_factor=reuse,
               p_ds=DEFAULTS["p_ds"], p_stride1_s1=DEFAULTS["p_stride1"],
               p_stride1_s2=DEFAULTS["p_stride1"])


def measure_point(*, machine: str, t_m: int, block: int, reuse: int,
                  blocks: int, seed: int) -> float:
    """One sample: cycles per result of ``machine`` at ``t_m`` over
    ``blocks`` blocks of ``block`` elements, each swept ``reuse`` times,
    with the driver seeded by ``seed``."""
    t_m, block = _int_param("t_m", t_m), _int_param("block", block)
    reuse, blocks = _int_param("reuse", reuse), _int_param("blocks", blocks)
    return VCMDriver(_machine(machine, t_m), seed=seed).run(
        _vcm(block, reuse), problem_size=block * blocks).cycles_per_result


def point_name(point: dict) -> str:
    """The job name of one sample: its params, so identical samples
    share a job and a cache entry."""
    return "simulated-point:" + ",".join(
        f"{key}={value}" for key, value in sorted(point.items()))


def _samples(grid, seeds: int, blocks: int, base_seed: int) -> list[list]:
    """Per ``(t_m, block, reuse)`` grid point and machine (in curve
    order), one sample's params per seed."""
    seeds, blocks = _int_param("seeds", seeds), _int_param("blocks", blocks)
    base_seed = _int_param("base_seed", base_seed, least=0)
    grid = [(_int_param("t_m", t_m), _int_param("block", block),
             _int_param("reuse", reuse)) for t_m, block, reuse in grid]
    if seeds * len(grid) * len(MACHINES) > MAX_SAMPLES:
        raise ValueError(f"a figure takes at most {MAX_SAMPLES} samples, "
                         f"not {seeds} seeds at {len(grid)} points")
    seed_list = _sample_seeds(base_seed, seeds)
    return [[{"machine": label, "t_m": t_m, "block": block,
              "reuse": reuse, "blocks": blocks, "seed": seed}
             for seed in seed_list]
            for t_m, block, reuse in grid for label in MACHINES]


def _with_curves(figure: FigureResult, samples, measure) -> FigureResult:
    """``figure`` with each machine's curve: per point, the mean of its
    samples' ``measure``."""
    means = [summarize([measure(sample) for sample in point]).mean
             for point in samples]
    figure.series = [FigureSeries(label, means[k::len(MACHINES)])
                     for k, label in enumerate(MACHINES)]
    return figure


def _figure7(t_m_values=None, *, block: int = 1024, reuse: int | None = None,
             seeds: int = 8, blocks: int = 6, base_seed: int = 0):
    """Figure 7 without its curves, and its samples."""
    t_m_values = list(t_m_values or (8, 16, 32, 48, 64))
    reuse_factor = block if reuse is None else reuse
    figure = FigureResult(
        "fig7-simulated",
        "Figure 7 regenerated by cycle-level simulation",
        "memory access time t_m (cycles)", t_m_values,
        "measured clock cycles per result",
        notes=f"simulated; M=64, B={block}, R={reuse_factor}, {seeds} seeds",
    )
    grid = [(t_m, block, reuse_factor) for t_m in t_m_values]
    return figure, _samples(grid, seeds, blocks, base_seed)


def _figure8(block_values=None, *, t_m: int = 32, reuse: int | None = None,
             seeds: int = 8, blocks: int = 6, base_seed: int = 0):
    """Figure 8 without its curves, and its samples."""
    block_values = list(block_values or (256, 1024, 4096, 8191))
    figure = FigureResult(
        "fig8-simulated",
        "Figure 8 regenerated by cycle-level simulation",
        "blocking factor B (elements)", block_values,
        "measured clock cycles per result",
        notes=(f"simulated; M=64, t_m={t_m}, "
               f"{'full reuse R=B' if reuse is None else f'R={reuse}'}, "
               f"{seeds} seeds"),
    )
    grid = [(t_m, block, block if reuse is None else reuse)
            for block in block_values]
    return figure, _samples(grid, seeds, blocks, base_seed)


def _measured(sample: dict) -> float:
    return measure_point(**sample)


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
    return _with_curves(*_figure7(
        t_m_values, block=block, reuse=reuse, seeds=seeds, blocks=blocks,
        base_seed=base_seed), _measured)


def figure8_simulated(
    block_values=None, *, t_m: int = 32, reuse: int | None = None,
    seeds: int = 8, blocks: int = 6, base_seed: int = 0,
) -> FigureResult:
    """Figure 8's three curves, measured on the cycle-level machines.

    ``reuse=None`` runs full reuse per point (``R = B`` for each swept
    blocking factor).
    """
    return _with_curves(*_figure8(
        block_values, t_m=t_m, reuse=reuse, seeds=seeds, blocks=blocks,
        base_seed=base_seed), _measured)


def _largest_first(samples) -> list[dict]:
    """Every sample, the most simulated references (``block * reuse *
    blocks``) first, so a process pool that takes them in this order
    ends on short ones."""
    return sorted((sample for point in samples for sample in point),
                  key=lambda sample: (sample["block"] * sample["reuse"]
                                      * sample["blocks"]), reverse=True)


def figure7_points(**params) -> list[dict]:
    """Every sample of ``figure7_simulated(**params)``, largest first."""
    return _largest_first(_figure7(**params)[1])


def figure8_points(**params) -> list[dict]:
    """Every sample of ``figure8_simulated(**params)``, largest first."""
    return _largest_first(_figure8(**params)[1])


def assemble_figure7(
    points, /, t_m_values=None, *, block: int = 1024,
    reuse: int | None = None, seeds: int = 8, blocks: int = 6,
    base_seed: int = 0,
) -> FigureResult:
    """:func:`figure7_simulated` from its samples' results, ``points``
    mapping each :func:`point_name` to its :func:`measure_point`."""
    figure, samples = _figure7(t_m_values, block=block, reuse=reuse,
                               seeds=seeds, blocks=blocks,
                               base_seed=base_seed)
    return _with_curves(figure, samples,
                        lambda sample: points[point_name(sample)])


def assemble_figure8(
    points, /, block_values=None, *, t_m: int = 32,
    reuse: int | None = None, seeds: int = 8, blocks: int = 6,
    base_seed: int = 0,
) -> FigureResult:
    """:func:`figure8_simulated` from its samples' results, ``points``
    mapping each :func:`point_name` to its :func:`measure_point`."""
    figure, samples = _figure8(block_values, t_m=t_m, reuse=reuse,
                               seeds=seeds, blocks=blocks,
                               base_seed=base_seed)
    return _with_curves(figure, samples,
                        lambda sample: points[point_name(sample)])
