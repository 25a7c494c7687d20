"""Cross-validation of the analytical model against the machine simulator.

The paper's results rest entirely on the analytical equations; the
executable machines of :mod:`repro.machine` let us check that the
equations predict what a cycle-level simulation of the same timing rules
measures.  This module runs matched (analytical, simulated) pairs over a
parameter grid and reports relative errors — the quantity tabulated in
EXPERIMENTS.md and asserted (loosely) in the tests.  The simulated leg
runs on the op-table timing engine (one ``access_many`` probe and one C
timing call per chunk of references, bit-for-bit identical to the
per-element reference loop and two orders of magnitude faster), which
keeps the grid cheap enough to widen.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytical.base import MachineConfig
from repro.analytical.cc import DirectMappedModel, PrimeMappedModel
from repro.analytical.mm import MMModel
from repro.analytical.vcm import VCM
from repro.cache import DirectMappedCache, PrimeMappedCache
from repro.experiments.render import render_table
from repro.machine import CCMachine, MMMachine, VCMDriver

__all__ = ["ValidationPoint", "render_validation", "validate_point",
           "validation_grid"]


@dataclass(frozen=True)
class ValidationPoint:
    """One matched analytical-vs-simulated measurement.

    Attributes:
        model: "mm", "direct" or "prime".
        t_m / block / p_ds: the grid coordinates.
        predicted: analytical cycles per result.
        measured: simulated cycles per result (seed-averaged).
        relative_error: ``|measured - predicted| / predicted``.
    """

    model: str
    t_m: int
    block: int
    p_ds: float
    predicted: float
    measured: float

    @property
    def relative_error(self) -> float:
        return abs(self.measured - self.predicted) / self.predicted


def _make_machine(model: str, config: MachineConfig):
    if model == "mm":
        return MMMachine(config)
    if model == "direct":
        return CCMachine(config, DirectMappedCache(num_lines=config.cache_lines,
                                                   classify_misses=False))
    if model == "prime":
        c = (config.cache_lines + 1).bit_length() - 1
        return CCMachine(config, PrimeMappedCache(c=c, classify_misses=False))
    raise ValueError(f"unknown model {model!r}")


def _make_analytical(model: str, config: MachineConfig):
    if model == "mm":
        return MMModel(config)
    if model == "direct":
        return DirectMappedModel(config)
    if model == "prime":
        return PrimeMappedModel(config)
    raise ValueError(f"unknown model {model!r}")


def validate_point(
    model: str,
    t_m: int,
    block: int,
    *,
    p_ds: float = 0.0,
    reuse: int = 8,
    num_banks: int = 32,
    cache_lines: int | None = None,
    seeds: int = 6,
    blocks: int = 4,
) -> ValidationPoint:
    """Measure one grid point: analytical prediction vs seed-averaged sim.

    ``blocks`` independent blocks are driven per seed so the stride
    distribution is actually sampled rather than drawn once.
    """
    if cache_lines is None:
        cache_lines = 8191 if model == "prime" else 8192
    config = MachineConfig(num_banks=num_banks, memory_access_time=t_m,
                           cache_lines=cache_lines)
    vcm = VCM(
        blocking_factor=block,
        reuse_factor=reuse,
        p_ds=p_ds,
        s2=None if p_ds == 0 else "random",
        p_stride1_s1=0.25,
        p_stride1_s2=0.25,
    )
    predicted = _make_analytical(model, config).cycles_per_result(vcm)
    total = 0.0
    for seed in range(seeds):
        machine = _make_machine(model, config)
        driven = VCMDriver(machine, seed=seed).run(
            vcm, problem_size=block * blocks
        )
        total += driven.cycles_per_result
    return ValidationPoint(model, t_m, block, p_ds, predicted, total / seeds)


def validation_grid(
    *,
    models: tuple[str, ...] = ("mm", "direct", "prime"),
    t_m_values: tuple[int, ...] = (8, 16, 32),
    blocks: tuple[int, ...] = (512, 2048),
    seeds: int = 6,
) -> list[ValidationPoint]:
    """The standard cross-validation grid (single-stream workloads)."""
    points = []
    for model in models:
        for t_m in t_m_values:
            for block in blocks:
                points.append(
                    validate_point(model, t_m, block, seeds=seeds)
                )
    return points


def render_validation(points: list[ValidationPoint]) -> str:
    """The ``results/validation.txt`` table."""
    return "Analytical vs cycle-level simulation\n" + render_table(
        ["model", "t_m", "B", "predicted", "measured", "rel err"],
        [[p.model, p.t_m, p.block, p.predicted, p.measured,
          p.relative_error] for p in points],
    )
