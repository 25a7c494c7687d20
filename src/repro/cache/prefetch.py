"""Prefetching vector caches — the related-work baseline (Fu & Patel).

The paper's introduction weighs its mapping-based attack on conflict
misses against the *prefetching* attack of Fu and Patel ("Data prefetching
in multiprocessor vector cache memories", ISCA 1991), which the paper
notes still leaves miss ratios above 40% for some applications because
prefetching cannot remove interference.  To let the ablations make that
comparison concretely, this module wraps any cache organisation with the
two schemes from that work:

* **sequential prefetch** — on a miss on line ``L``, also fetch
  ``L+1 .. L+d`` (one-block-lookahead generalised to degree ``d``);
* **stride prefetch** — detect the stride of the reference stream (as the
  vector unit knows it anyway) and fetch ``L + s, L + 2s, ...`` instead.

Prefetches fill the underlying cache through the same mapping, so they
*add* interference pressure exactly as the paper argues: a prefetched
power-of-two-stride stream folds onto the same few lines and can evict
its own future data.  Statistics separate demand traffic from prefetch
traffic so the useful-prefetch fraction is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.base import AccessResult, Cache

__all__ = ["PrefetchStats", "PrefetchingCache", "SequentialPrefetcher",
           "StridePrefetcher"]


@dataclass
class PrefetchStats:
    """Prefetch-specific counters (demand stats live on the wrapped cache).

    Attributes:
        issued: prefetch fills issued to the underlying cache.
        useful: prefetched lines that saw a demand hit before eviction.
        evicted_unused: prefetched lines evicted untouched (pollution).
    """

    issued: int = 0
    useful: int = 0
    evicted_unused: int = 0

    @property
    def accuracy(self) -> float:
        """Useful prefetches per issued prefetch; 0.0 before any issue."""
        return self.useful / self.issued if self.issued else 0.0


class SequentialPrefetcher:
    """Degree-``d`` sequential (next-line) prefetcher."""

    def __init__(self, degree: int = 1) -> None:
        if degree < 1:
            raise ValueError("prefetch degree must be at least 1")
        self.degree = degree

    def targets(self, miss_line: int) -> list[int]:
        """Lines to prefetch after a demand miss on ``miss_line``."""
        return [miss_line + k for k in range(1, self.degree + 1)]

    def observe(self, line: int) -> None:
        """Sequential prefetching is stateless."""


class StridePrefetcher:
    """Stride-directed prefetcher: follows the observed line stride.

    Tracks the difference between consecutive demand references (the
    hardware version reads the vector stride register directly; observing
    it from the stream is equivalent for constant-stride vectors).
    """

    def __init__(self, degree: int = 1) -> None:
        if degree < 1:
            raise ValueError("prefetch degree must be at least 1")
        self.degree = degree
        self._last_line: int | None = None
        self._stride: int | None = None

    def observe(self, line: int) -> None:
        """Update the stride estimate with a demand reference."""
        if self._last_line is not None:
            self._stride = line - self._last_line
        self._last_line = line

    def targets(self, miss_line: int) -> list[int]:
        """Lines the current stride estimate predicts next."""
        if not self._stride:  # unknown or zero stride: nothing to chase
            return []
        return [
            miss_line + k * self._stride
            for k in range(1, self.degree + 1)
            if miss_line + k * self._stride >= 0
        ]


@dataclass
class PrefetchingCache:
    """A cache organisation augmented with a prefetcher.

    Wraps (rather than subclasses) so any mapping — direct, set-
    associative, prime — composes with either prefetch scheme, which is
    exactly the cross-product the related-work comparison needs.

    Attributes:
        cache: the underlying :class:`~repro.cache.base.Cache`.
        prefetcher: a :class:`SequentialPrefetcher` or
            :class:`StridePrefetcher`.

    Example:
        >>> from repro.cache import DirectMappedCache
        >>> pc = PrefetchingCache(DirectMappedCache(num_lines=64),
        ...                       SequentialPrefetcher(degree=1))
        >>> pc.access(0).hit      # miss, prefetches line 1
        False
        >>> pc.access(1).hit      # prefetch made this a hit
        True
    """

    cache: Cache
    prefetcher: SequentialPrefetcher | StridePrefetcher
    prefetch_stats: PrefetchStats = field(default_factory=PrefetchStats)

    def __post_init__(self) -> None:
        self._prefetched_pending: set[int] = set()

    @property
    def stats(self):
        """Demand-access statistics of the wrapped cache (duck-types as a
        :class:`~repro.cache.base.Cache` for replay and comparison)."""
        return self.cache.stats

    @property
    def total_lines(self) -> int:
        """Capacity of the wrapped cache."""
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
        """Geometry plus prefetch scheme."""
        inner = (self.cache.describe() if hasattr(self.cache, "describe")
                 else type(self.cache).__name__)
        return f"{inner}+{type(self.prefetcher).__name__}"

    def access(self, word_address: int, *, write: bool = False) -> AccessResult:
        """Demand access; misses — and first touches of prefetched lines
        (*tagged* prefetching) — trigger the prefetcher's targets.

        Tagged issue is what keeps a stream ahead of the processor: a
        miss-only policy stalls every ``degree + 1`` elements because hits
        on prefetched lines would never extend the run.
        """
        line = self.cache.line_of(word_address)
        self.prefetcher.observe(line)
        result = self.cache.access(word_address, write=write)

        first_touch_of_prefetch = result.hit and line in self._prefetched_pending
        if first_touch_of_prefetch:
            self.prefetch_stats.useful += 1
            self._prefetched_pending.discard(line)
        if result.victim_line is not None and \
                result.victim_line in self._prefetched_pending:
            self.prefetch_stats.evicted_unused += 1
            self._prefetched_pending.discard(result.victim_line)

        if not result.hit or first_touch_of_prefetch:
            for target in self.prefetcher.targets(line):
                self._prefetch_line(target)
        return result

    @property
    def memory_traffic(self) -> int:
        """Lines fetched from memory: demand misses plus prefetch fills.

        The comparison metric the paper's argument needs — prefetching can
        convert misses into hits without reducing this number, whereas a
        conflict-free mapping lets reuse sweeps cost nothing.
        """
        return self.cache.stats.misses + self.prefetch_stats.issued

    def _prefetch_line(self, line: int) -> None:
        set_index = self.cache.set_of(line)
        if self.cache._lookup(line, set_index):
            return  # already resident
        victim, _ = self.cache._fill(line, set_index, dirty=False)
        if victim is not None:
            self.cache.stats.evictions += 1
            if victim in self._prefetched_pending:
                self.prefetch_stats.evicted_unused += 1
                self._prefetched_pending.discard(victim)
        self.prefetch_stats.issued += 1
        self._prefetched_pending.add(line)

    def run_trace(self, addresses, *, write: bool = False):
        """Access every address; returns the wrapped cache's stats."""
        for address in addresses:
            self.access(int(address), write=write)
        return self.cache.stats

    def reset(self) -> None:
        """Reset the wrapped cache, the prefetcher state and counters."""
        self.cache.reset()
        self.prefetch_stats = PrefetchStats()
        self._prefetched_pending.clear()
        if isinstance(self.prefetcher, StridePrefetcher):
            self.prefetcher._last_line = None
            self.prefetcher._stride = None
