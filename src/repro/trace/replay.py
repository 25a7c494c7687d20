"""Replay traces through cache models and compare organisations.

This is the trace-driven-simulation leg of the reproduction (the paper
cites So & Zecca's trace-driven study as prior art; our analytical results
are cross-checked the same way): feed the same reference stream to several
cache organisations and compare hit ratios and conflict-miss counts.

Replay runs on the batched :meth:`~repro.cache.base.Cache.access_many`
fast path whenever the cache provides it; wrapper organisations with
per-access side effects (victim buffer, prefetcher) fall back to the
scalar loop, which is semantically identical.

Stall costing (the paper's premise): a hit is free; a *compulsory* miss
is part of the initial vector loading, which pipelines through the
interleaved banks, so it is exempt; every other miss stalls the machine
for the full memory time ``t_m``.  When the cache was built with
``classify_misses=False`` there is no three-C split to read the
compulsory count from, so :func:`replay` falls back to counting distinct
lines touched by the trace — exact for plain caches, because the cache is
reset first and each distinct line's first reference necessarily misses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.base import Cache
from repro.cache.stats import CacheStats
from repro.trace.records import Trace

__all__ = ["ReplayResult", "replay", "compare_caches"]


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one trace through one cache.

    Attributes:
        label: the cache's description.
        stats: the cache's statistics after the replay.
        stall_cycles: miss stalls under the paper's costing — every miss
            beyond the initial loading costs the full memory time.  The
            caller provides ``t_m``; compulsory misses are exempt
            (pipelined initial loading).
    """

    label: str
    stats: CacheStats
    stall_cycles: float

    @property
    def hit_ratio(self) -> float:
        """Hits per access over the replay."""
        return self.stats.hit_ratio


def _compulsory_estimate(trace: Trace, cache) -> int:
    """Compulsory-miss count for a cache without a classifier.

    The replayed cache starts empty, so the first reference to every
    distinct line misses — those are exactly the compulsory misses of a
    plain cache.  (For a prefetching wrapper a first touch can hit on a
    prefetched line; the estimate then overcounts, and the caller clamps.)

    A trace that knows its own footprint in closed form (synthetic
    streams expose ``distinct_lines``) answers without materialising the
    address arrays, keeping billion-reference replays at O(chunk) memory.
    """
    line_shift = cache.line_size_words.bit_length() - 1
    distinct_lines = getattr(trace, "distinct_lines", None)
    if distinct_lines is not None:
        return int(distinct_lines(line_shift))
    addresses, _ = trace.as_arrays()
    return int(np.unique(addresses >> line_shift).size)


def replay(
    trace: Trace, cache: Cache, *, t_m: int = 16, backend: str | None = None
) -> ReplayResult:
    """Run every access of ``trace`` through ``cache``.

    The cache is reset first so results are a function of the trace alone.
    Stall cycles charge ``t_m`` for every non-compulsory miss (conflict or
    capacity), reflecting the paper's premise that only the initial loading
    pipelines.  Without a classifier the compulsory count is recovered
    from the distinct lines the trace touches (see the module docstring).

    ``backend`` selects the :meth:`~repro.cache.base.Cache.access_many`
    replay engine (``"scalar"``/``"compiled"``; ``None`` takes
    :func:`repro.kernels.default_backend`).  The two are bit-for-bit
    equivalent; peak memory stays O(chunk) on both because the trace is
    consumed block by block.
    """
    cache.reset()
    access_many = getattr(cache, "access_many", None)
    if access_many is not None:
        # stream the trace's sealed chunks zero-copy; no Access objects
        # and no whole-trace concatenation are ever materialised
        for addresses, writes in trace.iter_blocks():
            access_many(addresses, writes, backend=backend)
    else:
        # wrapper caches (victim buffer, prefetcher) keep their
        # per-access side effects on the scalar path
        for access in trace:
            cache.access(access.address, write=access.write)
    stats = cache.stats
    if getattr(cache, "classifies_misses", True):
        compulsory = stats.compulsory_misses
    else:
        compulsory = _compulsory_estimate(trace, cache)
    non_compulsory = max(0, stats.misses - compulsory)
    label = cache.describe() if hasattr(cache, "describe") else type(cache).__name__
    return ReplayResult(label, stats, float(non_compulsory * t_m))


def compare_caches(
    trace: Trace,
    caches: list[Cache],
    *,
    t_m: int = 16,
    backend: str | None = None,
):
    """Replay one trace through several caches; returns a list of
    :class:`ReplayResult` in the given cache order."""
    return [replay(trace, cache, t_m=t_m, backend=backend) for cache in caches]
