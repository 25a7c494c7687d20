"""Replacement policies for set-associative caches.

Section 2.1 of the paper argues that higher associativity is *not* the fix
for vector-cache conflicts, partly because "serial access to vectors
dictates against LRU replacement" (Stone).  To let the ablations test that
claim rather than assume it, the set-associative model accepts pluggable
policies: LRU, FIFO, and seeded-random.

A policy keeps no per-set state of its own.  The cache holds each set as a
``line -> way`` dict whose insertion order *is* the set's recency order:
every fill appends its line at the end, LRU moves a hit line back to the
end, and LRU and FIFO both evict the first entry.  Each of those steps is
a fixed number of dict operations whatever the associativity.

Ways are the integer positions within the set.  A fill always takes the
lowest free way (see :mod:`repro.cache.set_assoc`).  Of the policies only
random depends on that rule: it draws a way *index* from its generator,
so which line that index names depends on where every earlier fill
landed.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

__all__ = ["ReplacementPolicy", "LRUPolicy", "FIFOPolicy", "RandomPolicy", "make_policy"]


class ReplacementPolicy(ABC):
    """Victim selection over one set's ``line -> way`` residency dict.

    ``resident`` is the set's dict, oldest entry first; a policy may
    reorder it on a hit and names the line to evict from a full set.
    ``num_sets``/``num_ways`` are fixed at construction.
    """

    def __init__(self, num_sets: int, num_ways: int) -> None:
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("num_sets and num_ways must be positive")
        self.num_sets = num_sets
        self.num_ways = num_ways

    def on_hit(self, resident: dict[int, int], line: int) -> None:
        """A reference hit ``line`` of the set holding ``resident``."""

    @abstractmethod
    def victim(self, resident: dict[int, int]) -> int:
        """Pick the line to evict from a full set."""

    def reset(self) -> None:
        """Return to the state at construction (the default keeps none)."""


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used: evict the line touched longest ago."""

    def on_hit(self, resident: dict[int, int], line: int) -> None:
        resident[line] = resident.pop(line)

    def victim(self, resident: dict[int, int]) -> int:
        return next(iter(resident))


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: evict the line filled longest ago; hits don't matter."""

    def victim(self, resident: dict[int, int]) -> int:
        return next(iter(resident))


class RandomPolicy(ReplacementPolicy):
    """Uniform-random victim with a seedable generator for reproducibility.

    The generator draws a way index; finding the line in that way searches
    the set, so a random eviction costs O(ways).
    """

    def __init__(self, num_sets: int, num_ways: int, seed: int = 0) -> None:
        super().__init__(num_sets, num_ways)
        self._rng = random.Random(seed)
        self._seed = seed

    def victim(self, resident: dict[int, int]) -> int:
        way = self._rng.randrange(self.num_ways)
        return next(line for line, w in resident.items() if w == way)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


_POLICIES = {"lru": LRUPolicy, "fifo": FIFOPolicy, "random": RandomPolicy}


def make_policy(name: str, num_sets: int, num_ways: int, **kwargs) -> ReplacementPolicy:
    """Build a policy by name: ``"lru"``, ``"fifo"`` or ``"random"``."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown replacement policy {name!r}; "
                         f"choose from {sorted(_POLICIES)}") from None
    return cls(num_sets, num_ways, **kwargs)
