"""Victim cache — the third classic conflict remedy, for comparison.

Jouppi's victim cache (ISCA 1990, contemporaneous with the paper) attacks
conflict misses *reactively*: a small fully-associative buffer holds the
last few evicted lines, and a main-cache miss that hits the buffer swaps
the line back at small cost instead of going to memory.  It is the natural
third baseline next to associativity (Section 2.1) and prefetching (Fu &
Patel): the prime-mapped cache removes strided conflicts *by construction*,
the victim cache mops some of them up *after the fact*.

The structural limit this module makes measurable: a strided sweep that
folds ``B`` lines onto ``C / gcd`` cache lines generates eviction runs of
length ``B * gcd / C``, and a ``v``-entry victim buffer only helps while
the run fits — a handful of entries cannot absorb a vector-length run, so
the reuse sweep still misses (the ``ablation-victim`` job quantifies it).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.cache.base import AccessResult, Cache

__all__ = ["VictimStats", "VictimCache"]


@dataclass
class VictimStats:
    """Victim-buffer counters (main-cache demand stats live on the cache).

    Attributes:
        swaps: misses rescued by the buffer (line swapped back in).
        inserted: evicted lines captured by the buffer.
    """

    swaps: int = 0
    inserted: int = 0


@dataclass
class VictimCache:
    """A main cache backed by a small fully-associative victim buffer.

    Wraps any :class:`~repro.cache.base.Cache`.  On a main-cache miss the
    buffer is probed; a buffer hit re-installs the line (a *swap*, whose
    latency cost is left to the caller — typically 1 cycle instead of
    ``t_m``).  On eviction from the main cache, the victim enters the
    buffer, displacing its LRU entry.

    Attributes:
        cache: the wrapped main cache.
        entries: victim-buffer capacity in lines (Jouppi used 1–5).

    Example:
        >>> from repro.cache import DirectMappedCache
        >>> vc = VictimCache(DirectMappedCache(num_lines=4), entries=2)
        >>> vc.access(0).hit, vc.access(4).hit   # 4 evicts 0
        (False, False)
        >>> vc.access(0).hit                     # rescued from the buffer
        False
        >>> vc.victim_stats.swaps
        1
    """

    cache: Cache
    entries: int
    victim_stats: VictimStats = field(default_factory=VictimStats)

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ValueError("the victim buffer needs at least one entry")
        self._buffer: OrderedDict[int, None] = OrderedDict()

    @property
    def stats(self):
        """Demand statistics of the wrapped cache (duck-types as a Cache)."""
        return self.cache.stats

    @property
    def total_lines(self) -> int:
        """Main-cache capacity (the buffer is an over-allocation on top)."""
        return self.cache.total_lines

    @property
    def classifies_misses(self) -> bool:
        """Whether the wrapped cache runs the three-C classifier."""
        return self.cache.classifies_misses

    @property
    def line_size_words(self) -> int:
        """Line size of the wrapped cache."""
        return self.cache.line_size_words

    def describe(self) -> str:
        """Geometry plus buffer size."""
        inner = (self.cache.describe() if hasattr(self.cache, "describe")
                 else type(self.cache).__name__)
        return f"{inner}+victim{self.entries}"

    def _capture(self, victim_line: int | None) -> None:
        if victim_line is None:
            return
        self._buffer[victim_line] = None
        self._buffer.move_to_end(victim_line)
        if len(self._buffer) > self.entries:
            self._buffer.popitem(last=False)
        self.victim_stats.inserted += 1

    def access(self, word_address: int, *, write: bool = False) -> AccessResult:
        """Main-cache access with victim-buffer backstop.

        The returned :class:`AccessResult` reports the *main cache's*
        hit/miss outcome; a buffer rescue is visible via
        :attr:`victim_stats.swaps` (and costs the caller whatever swap
        latency they model, rather than a full memory access).
        """
        line = self.cache.line_of(word_address)
        rescued = not self.cache.contains(word_address) and line in self._buffer
        result = self.cache.access(word_address, write=write)
        if result.hit:
            return result
        if rescued:
            self.victim_stats.swaps += 1
            del self._buffer[line]
        self._capture(result.victim_line)
        return result

    def misses_costing_memory(self) -> int:
        """Demand misses that actually went to memory (misses - swaps)."""
        return self.cache.stats.misses - self.victim_stats.swaps

    def run_trace(self, addresses, *, write: bool = False):
        """Access every address; returns the main cache's stats."""
        for address in addresses:
            self.access(int(address), write=write)
        return self.cache.stats

    def reset(self) -> None:
        """Reset the main cache, empty the buffer, zero counters."""
        self.cache.reset()
        self._buffer.clear()
        self.victim_stats = VictimStats()
