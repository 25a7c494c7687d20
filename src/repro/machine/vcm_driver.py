"""Drive a machine simulator with a VCM-shaped synthetic workload.

The analytical model reasons about expectations; this driver materialises
the same stochastic workload — blocks of ``B`` elements swept ``R`` times,
a ``P_ds`` fraction of the work as double-stream accesses, strides drawn
from the unit-or-uniform distribution — as a concrete instruction stream
with a seeded RNG, and runs it on an executable machine.  Averaged over
seeds, the simulator's cycles-per-result should track the analytical
prediction; the cross-validation tests (and ``benchmarks/
bench_validation.py``) check exactly that.

Workload construction mirrors Section 3.1's "imagined matrix": each sweep
of the first vector is cut into ``~1/P_ds`` column pieces of length
``~B * P_ds``; every last piece of a sweep is a double-stream access that
also loads the second vector.  The first sweep of a block is an initial
(pipelined) load; the remaining ``R - 1`` sweeps expect cached data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.analytical.base import ceil_div
from repro.analytical.vcm import VCM
from repro.machine.ops import LoadPair, VectorLoad
from repro.machine.report import ExecutionReport
from repro.machine.vector_machine import CCMachine, VectorMachine

__all__ = ["VCMDriver", "DrivenResult"]


@dataclass(frozen=True)
class DrivenResult:
    """Outcome of driving one VCM workload through a machine.

    Attributes:
        report: merged cycle accounting across all blocks and sweeps.
        cycles_per_result: the paper's measure, ``cycles / (N * R)``.
    """

    report: ExecutionReport
    cycles_per_result: float


class VCMDriver:
    """Synthesises and runs VCM workloads on a machine simulator.

    Args:
        machine: an :class:`~repro.machine.vector_machine.MMMachine` or
            :class:`~repro.machine.vector_machine.CCMachine`.
        seed: RNG seed for stride/base draws (workloads are reproducible).

    Example:
        >>> from repro.analytical.base import MachineConfig
        >>> from repro.machine.vector_machine import MMMachine
        >>> driver = VCMDriver(MMMachine(MachineConfig(num_banks=16,
        ...                                            memory_access_time=4)))
        >>> vcm = VCM(blocking_factor=256, reuse_factor=2, p_ds=0.0, s2=None)
        >>> driver.run(vcm).cycles_per_result > 1.0
        True
    """

    #: spread successive vectors across a large synthetic address space
    ADDRESS_SPACE = 1 << 28

    def __init__(self, machine: VectorMachine, seed: int = 0) -> None:
        self.machine = machine
        self._rng = random.Random(seed)

    # -- draws -------------------------------------------------------------------

    def _draw_stride(self, spec, p_stride1: float) -> int:
        if isinstance(spec, int):
            return spec
        if spec != "random":
            raise ValueError(f"cannot draw a stride from spec {spec!r}")
        if self._rng.random() < p_stride1:
            return 1
        return self._rng.randint(2, self.machine.stride_modulus)

    def _draw_base(self) -> int:
        return self._rng.randrange(self.ADDRESS_SPACE)

    # -- block synthesis -----------------------------------------------------------

    def block_streams(self, vcm: VCM, problem_size: int | None = None):
        """Yield one lazy op stream per block of the workload.

        Each block draws its first vector's base and stride once — the
        reused sweeps re-traverse the *same* vector, which is what makes
        their misses conflicts rather than fresh compulsory loads.  A
        sweep is cut into single-stream pieces plus a final double access
        whose second vector is drawn afresh per sweep.  The first sweep
        of a block is an initial (pipelined) load; the remaining ``R - 1``
        sweeps expect cached data.

        Draws happen as the streams are consumed, in the order the
        sweeps issue them, so a consumer must exhaust each block before
        advancing to the next.  The pieces of the first vector are built
        once per block and re-issued by every reuse sweep, sharing their
        address arrays.
        """
        n = problem_size if problem_size is not None else vcm.blocking_factor
        reuse = max(1, round(vcm.reuse_factor))
        for _ in range(ceil_div(n, vcm.blocking_factor)):
            base1 = self._draw_base()
            s1 = self._draw_stride(vcm.s1, vcm.p_stride1_s1)
            yield self._block_ops(vcm, base1, s1, reuse)

    def _block_ops(self, vcm: VCM, base1: int, s1: int, reuse: int):
        block = vcm.blocking_factor
        if vcm.p_ds == 0:
            initial = VectorLoad(base=base1, stride=s1, length=block)
            cached = VectorLoad(base=base1, stride=s1, length=block,
                                expect_cached=True)
            yield initial
            for _ in range(reuse - 1):
                yield cached
            return
        piece = max(1, round(block * vcm.p_ds))
        spans = [(offset, min(piece, block - offset))
                 for offset in range(0, block, piece)]
        sweeps = [
            [VectorLoad(base=base1 + offset * s1, stride=s1, length=length,
                        expect_cached=expect_cached)
             for offset, length in spans]
            for expect_cached in (False, True)
        ]
        for sweep in range(reuse):
            *singles, last = sweeps[sweep > 0]
            yield from singles
            s2 = self._draw_stride(vcm.s2, vcm.p_stride1_s2)
            second = VectorLoad(
                base=self._draw_base(),
                stride=s2,
                length=piece,
                expect_cached=False,  # the second operand streams in
                counts_results=False,
            )
            yield LoadPair(last, second)

    # -- the drive ------------------------------------------------------------------

    def run(self, vcm: VCM, problem_size: int | None = None) -> DrivenResult:
        """Execute the whole VCM workload; returns merged accounting.

        Each block runs as one :meth:`~VectorMachine.execute` call, so
        only its first sweep pays the loop overhead.
        """
        n = problem_size if problem_size is not None else vcm.blocking_factor
        reuse = max(1, round(vcm.reuse_factor))
        total = ExecutionReport()
        for ops in self.block_streams(vcm, n):
            if isinstance(self.machine, CCMachine):
                self.machine.cache.invalidate_all()  # new block, new working set
            total.merge(self.machine.execute(ops))
        denominator = n * reuse
        return DrivenResult(total, total.cycles / denominator)
