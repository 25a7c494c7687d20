"""Analytical model of a set-associative CC-machine (Section 2.1's question).

The paper dismisses higher associativity in a paragraph: for a fixed
capacity ``C``, a ``k``-way cache has only ``S = C / k`` sets, so a strided
sweep folds onto fewer sets, and LRU is *anti-optimal* for cyclic vector
reuse — when a set receives more distinct lines than it has ways, the
least-recently-used line is exactly the one needed soonest, and the reuse
sweep misses everything in that set.

This module turns that paragraph into equations.  A stride-``s`` sweep of
``B`` elements over ``S = C/k`` sets:

* occupies ``S / gcd(S, s)`` distinct sets;
* puts ``j = B * gcd(S, s) / S`` lines into each occupied set, referenced
  cyclically;
* under LRU, a reuse sweep hits only if ``j <= k`` — otherwise every one
  of the ``B`` accesses in the over-subscribed sets misses.

So the expected self-interference stall per cached sweep is an
all-or-nothing sum over the stride's gcd class, which this model evaluates
exactly over the paper's stride distribution.  The direct-mapped case
(``k = 1``) is *not* identical to Eq. (5)/(6): the paper's direct-mapped
count ``B - C/gcd`` charges only the folded-out lines, implicitly assuming
the survivors still hit, which is optimistic for cyclic sweeps.  Both
conventions are provided; the set-associative model uses the cyclic-LRU
(all-or-nothing) rule that trace simulation confirms.
"""

from __future__ import annotations

import math

from repro.analytical import batched
from repro.analytical.base import MachineConfig
from repro.analytical.cc import CCModel

__all__ = ["SetAssociativeModel"]


class SetAssociativeModel(CCModel):
    """CC-machine with a ``ways``-way LRU set-associative vector cache.

    Args:
        config: machine parameters; ``config.cache_lines`` is the total
            capacity ``C`` (sets are ``C / ways``).
        ways: associativity ``k``; must divide the capacity, which must
            leave a power-of-two set count.

    Example:
        >>> cfg = MachineConfig(cache_lines=8192)
        >>> two_way = SetAssociativeModel(cfg, ways=2)
        >>> two_way.sets
        4096
    """

    def __init__(self, config: MachineConfig, ways: int,
                 footprint_mode: str = "simple") -> None:
        super().__init__(config, footprint_mode)
        if ways < 1:
            raise ValueError("ways must be at least 1")
        if config.cache_lines % ways:
            raise ValueError("ways must divide the cache capacity")
        sets = config.cache_lines // ways
        if sets & (sets - 1):
            raise ValueError("set count must be a power of two")
        self.ways = ways
        self.sets = sets

    def _per_set_split(self, block: int, stride: int) -> tuple[int, int, int]:
        """How a stride-``stride`` sweep of ``block`` lines lands on sets.

        Returns ``(occupied, full, extra)``: the sweep visits ``occupied``
        distinct sets cyclically, each receiving ``full`` lines, with the
        first ``extra`` of them receiving one more.
        """
        if stride == 0:
            return 1, block, 0
        g = math.gcd(self.sets, abs(stride))
        occupied = self.sets // g
        full, extra = divmod(block, occupied)
        return occupied, full, extra

    def self_stalls_for_stride(self, block: float, stride: int) -> float:
        """Cyclic-LRU rule, per set: a set holding ``j > k`` cyclically
        reused lines misses on all ``j`` of them; a set within its way
        budget misses on none."""
        block = int(block)
        occupied, full, extra = self._per_set_split(block, stride)
        misses = 0
        if full + 1 > self.ways:
            misses += extra * (full + 1)
        if full > self.ways:
            misses += (occupied - extra) * full
        return misses * self.config.t_m

    def self_interference(
        self, block: float, p_stride1: float, stride: int | str | None
    ) -> float:
        """Expected stalls over the paper's stride distribution.

        Unit stride never over-subscribes a set while ``B <= C``; non-unit
        strides are uniform on ``2 .. C``.  Their sum runs over the gcd
        classes ``gcd(S, s) = 2^k`` (:mod:`repro.analytical.batched`),
        exactly, because every per-stride summand is an integer.
        """
        if stride is None or block < 1:
            return 0.0
        if stride != "random":
            return self.self_stalls_for_stride(block, int(stride))
        return float(batched._assoc_random_self(
            block, p_stride1, self.config.cache_lines, self.ways,
            self.config.t_m))

    def expected_footprint(self, block: float, p_stride1: float) -> float:
        """Resident lines of a strided vector: per occupied set, at most
        ``k`` of its cyclically mapped lines survive (summed per gcd
        class, as :meth:`self_interference` is)."""
        return float(batched.cc_expected_footprint_batch(
            "assoc", block, p_stride1, cache_lines=self.config.cache_lines,
            ways=self.ways))
