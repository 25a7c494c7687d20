"""Belady's OPT replacement — answering the paper's open question.

Section 2.1 ends with "Whether there exists a better replacement algorithm
needs further study."  The upper bound on *any* replacement algorithm is
Belady's clairvoyant OPT: evict the line whose next use is farthest in the
future.  OPT needs the whole reference stream in advance, which is exactly
what this repository's traces provide, so the question can be settled
offline:

* On a **cyclic strided sweep** through a fully-associative cache of ``C``
  lines with working set ``W > C``, LRU hits *nothing* while OPT pins
  ``C - 1`` lines and hits them every sweep — replacement policy really is
  worth something for vector reuse (Stone's anti-LRU point, with the
  ceiling quantified).
* But OPT is **unimplementable**, and even OPT cannot rescue a
  direct-mapped cache (one way = no choice) — whereas the prime mapping
  removes the strided conflicts entirely with *no* replacement policy at
  all.  The ``ablation-replacement`` job puts the numbers side by side.

The implementation is the classic two-pass algorithm: precompute each
reference's next-use index, then simulate with a "farthest next use"
eviction choice per set.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro import kernels
from repro.cache.stats import CacheStats
from repro.trace.records import Trace

__all__ = ["BeladyResult", "simulate_opt"]

_NEVER = float("inf")


class BeladyResult:
    """Outcome of an OPT simulation over one trace.

    Attributes:
        stats: hit/miss counters (three-C classification is meaningless
            under OPT and left zeroed).
        evictions: lines evicted.
    """

    def __init__(self) -> None:
        self.stats = CacheStats()
        self.evictions = 0

    @property
    def hit_ratio(self) -> float:
        """Hits per access."""
        return self.stats.hit_ratio


def _next_use_indexes(lines: list[int]) -> list[float]:
    """For each position, the index of that line's next occurrence."""
    next_use: list[float] = [0.0] * len(lines)
    last_seen: dict[int, int] = {}
    for index in range(len(lines) - 1, -1, -1):
        line = lines[index]
        next_use[index] = last_seen.get(line, _NEVER)
        last_seen[line] = index
    return next_use


def simulate_opt(
    trace: Trace,
    total_lines: int,
    *,
    num_sets: int = 1,
    set_of=None,
    line_size_words: int = 1,
    backend: str | None = None,
) -> BeladyResult:
    """Run Belady's OPT over a trace.

    Args:
        trace: the full reference stream (OPT is offline by nature).
        total_lines: cache capacity in lines.
        num_sets: 1 for fully-associative; ``total_lines`` with the
            default ``set_of`` gives direct-mapped (where OPT degenerates
            to the only possible choice).
        set_of: optional line-address -> set-index mapping (defaults to
            ``line % num_sets``); pass a prime modulus to study OPT on a
            prime-mapped geometry.
        line_size_words: words per line (power of two).
        backend: ``"scalar"`` runs the dict-based two-pass reference;
            ``"compiled"`` vectorises the next-use precomputation and
            runs the simulation loop through :mod:`repro.kernels`
            (falling back to the reference when a custom ``set_of``
            leaves ``[0, num_sets)``).  Both are bit-for-bit equal;
            swept by the ``kernel-backend`` oracle.

    Example:
        >>> from repro.trace.patterns import strided
        >>> sweep = strided(0, 1, 6, sweeps=3)     # 6 lines, 4-line cache
        >>> simulate_opt(sweep, total_lines=4).stats.hits
        6
    """
    if total_lines <= 0 or num_sets <= 0 or total_lines % num_sets:
        raise ValueError("num_sets must divide a positive total_lines")
    if line_size_words <= 0 or line_size_words & (line_size_words - 1):
        raise ValueError("line_size_words must be a positive power of two")
    backend = kernels.resolve_backend(backend)
    offset_bits = line_size_words.bit_length() - 1
    map_set = set_of
    if map_set is None:
        map_set = lambda line: line % num_sets  # noqa: E731 - default map
    ways = total_lines // num_sets

    addresses, write_flags = trace.as_arrays()
    line_arr = addresses >> offset_bits if offset_bits else addresses
    n = int(line_arr.size)
    writes_total = int(write_flags.sum()) if write_flags is not None else 0

    result = BeladyResult()
    if backend == "compiled":
        if set_of is None:
            sets_arr = (
                line_arr & (num_sets - 1)
                if num_sets & (num_sets - 1) == 0
                else line_arr % num_sets
            )
        else:
            sets_arr = np.fromiter(
                (set_of(line) for line in line_arr.tolist()),
                dtype=np.int64, count=n,
            )
        if n == 0 or (int(sets_arr.min()) >= 0
                      and int(sets_arr.max()) < num_sets):
            # Vectorised next-use (stable-sort successor trick); sentinel
            # ``n`` plays the role of the scalar path's infinity.
            next_use = kernels.belady_next_use(line_arr)
            tags = np.full(num_sets * ways, -1, dtype=np.int64)
            nu = np.zeros(num_sets * ways, dtype=np.int64)
            ins = np.zeros(num_sets * ways, dtype=np.int64)
            hits, misses, evictions = kernels.belady_opt(
                line_arr, sets_arr, next_use, ways, tags, nu, ins,
            )
            stats = result.stats
            stats.accesses = n
            stats.hits = hits
            stats.misses = misses
            stats.reads = n - writes_total
            stats.writes = writes_total
            result.evictions = evictions
            return result

    lines = line_arr.tolist()
    writes = (write_flags.tolist() if write_flags is not None
              else [False] * len(lines))
    next_use = _next_use_indexes(lines)

    resident_f: dict[int, dict[int, float]] = defaultdict(dict)  # set -> line -> next use
    for index, line in enumerate(lines):
        write = writes[index]
        content = resident_f[map_set(line)]
        if line in content:
            result.stats.record(hit=True, write=write, kind=None)
            content[line] = next_use[index]
            continue
        result.stats.record(hit=False, write=write, kind=None)
        if len(content) >= ways:
            victim = max(content, key=content.__getitem__)
            del content[victim]
            result.evictions += 1
        content[line] = next_use[index]
    return result
