"""Drive a machine simulator with a VCM-shaped synthetic workload.

The analytical model reasons about expectations; this driver materialises
the same stochastic workload — blocks of ``B`` elements swept ``R`` times,
a ``P_ds`` fraction of the work as double-stream accesses, strides drawn
from the unit-or-uniform distribution — as a concrete instruction stream
with a seeded RNG, and runs it on an executable machine.  Averaged over
seeds, the simulator's cycles-per-result should track the analytical
prediction; the cross-validation tests (and the ``validation`` job's
claim checks) check exactly that.

Workload construction mirrors Section 3.1's "imagined matrix": each sweep
of the first vector is cut into ``~1/P_ds`` column pieces of length
``~B * P_ds``; every last piece of a sweep is a double-stream access that
also loads the second vector.  The first sweep of a block is an initial
(pipelined) load; the remaining ``R - 1`` sweeps expect cached data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.analytical.base import ceil_div
from repro.analytical.vcm import VCM
from repro.machine.ops import (
    BASE1,
    BASE2,
    COUNTS1,
    EXPECT1,
    LENGTH,
    PAIRED,
    STRIDE1,
    STRIDE2,
    OpTable,
)
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
        self._random = self._rng.random
        self._getrandbits = self._rng.getrandbits
        # a random stride is 2 + a draw below M - 1
        self._stride_span = machine.stride_modulus - 1
        self._base_bits = self.ADDRESS_SPACE.bit_length()

    # -- draws -------------------------------------------------------------------
    #
    # ``randint(2, M)`` and ``randrange(2**28)`` reduce to CPython's
    # ``_randbelow_with_getrandbits``: draw ``n.bit_length()`` bits and
    # redraw while the value is ``>= n``.  The draws below run that loop
    # inline, so they consume the generator exactly as those calls do.

    def _draw_stride(self, spec, p_stride1: float) -> int:
        if isinstance(spec, int):
            return spec
        if spec != "random":
            raise ValueError(f"cannot draw a stride from spec {spec!r}")
        if self._random() < p_stride1:
            return 1
        span = self._stride_span
        if span < 1:
            raise ValueError(f"no random stride in 2..{span + 1}")
        getrandbits, bits = self._getrandbits, span.bit_length()
        r = getrandbits(bits)
        while r >= span:
            r = getrandbits(bits)
        return 2 + r

    def _draw_base(self) -> int:
        getrandbits, space = self._getrandbits, self.ADDRESS_SPACE
        bits = self._base_bits
        r = getrandbits(bits)
        while r >= space:
            r = getrandbits(bits)
        return r

    # -- block synthesis -----------------------------------------------------------

    def block_streams(self, vcm: VCM, problem_size: int | None = None):
        """Yield one :class:`~repro.machine.ops.OpTable` per block.

        Each block draws its first vector's base and stride once — the
        reused sweeps re-traverse the *same* vector, which is what makes
        their misses conflicts rather than fresh compulsory loads.  A
        sweep is cut into single-stream pieces plus a final double access
        whose second vector is drawn afresh per sweep (its stride, then
        its base).  The first sweep of a block is an initial (pipelined)
        load; the remaining ``R - 1`` sweeps expect cached data.

        A block's draws all happen before its table is yielded, in the
        order the sweeps issue them, so the workload depends on the seed
        alone.
        """
        n = problem_size if problem_size is not None else vcm.blocking_factor
        reuse = max(1, round(vcm.reuse_factor))
        for _ in range(ceil_div(n, vcm.blocking_factor)):
            base1 = self._draw_base()
            s1 = self._draw_stride(vcm.s1, vcm.p_stride1_s1)
            yield self._block_table(vcm, base1, s1, reuse)

    def _block_table(self, vcm: VCM, base1: int, s1: int,
                     reuse: int) -> OpTable:
        block = vcm.blocking_factor
        if vcm.p_ds == 0:
            rows = np.zeros((reuse, len(OpTable.COLUMNS)), dtype=np.int64)
            rows[:, LENGTH] = block
            rows[:, BASE1] = base1
            rows[:, STRIDE1] = s1
            rows[1:, EXPECT1] = 1
            rows[:, COUNTS1] = 1
            return OpTable(rows)
        # per sweep the second vector's stride, then its base
        draw_stride, draw_base = self._draw_stride, self._draw_base
        spec, p_stride1 = vcm.s2, vcm.p_stride1_s2
        seconds = np.array(
            [(draw_stride(spec, p_stride1), draw_base())
             for _ in range(reuse)], dtype=np.int64)
        # one sweep's rows: the pieces of the first vector, the last one
        # paired with the second vector (which streams in and counts no
        # results), then the second vector's tail if it is the longer
        piece = max(1, round(block * vcm.p_ds))
        offsets = np.arange(0, block, piece, dtype=np.int64)
        lengths = np.minimum(piece, block - offsets)
        pieces, last = offsets.size, int(lengths[-1])
        width = pieces + (piece > last)
        sweep_rows = np.zeros((width, len(OpTable.COLUMNS)), dtype=np.int64)
        sweep_rows[:pieces, LENGTH] = lengths
        sweep_rows[:pieces, BASE1] = base1 + offsets * s1
        sweep_rows[:pieces, STRIDE1] = s1
        sweep_rows[:pieces, COUNTS1] = 1
        sweep_rows[pieces - 1, PAIRED] = min(last, piece)
        if piece > last:
            sweep_rows[pieces, LENGTH] = piece - last
        rows = np.tile(sweep_rows, (reuse, 1))
        sweeps = rows.reshape(reuse, width, len(OpTable.COLUMNS))
        sweeps[1:, :pieces, EXPECT1] = 1
        s2, base2 = seconds[:, 0], seconds[:, 1]
        sweeps[:, pieces - 1, BASE2] = base2
        sweeps[:, pieces - 1, STRIDE2] = s2
        if piece > last:
            sweeps[:, pieces, BASE1] = base2 + last * s2
            sweeps[:, pieces, STRIDE1] = s2
        return OpTable(rows)

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
