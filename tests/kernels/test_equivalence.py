"""Spot-check public-API backend equivalence at the test tier.

The exhaustive sweep lives in the ``kernel-backend`` oracle of
:mod:`repro.verify`; this file keeps one fast, always-on differential in
the plain test suite so a backend regression fails ``pytest`` directly
without needing a ``repro verify`` run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.cache import (
    DirectMappedCache,
    FullyAssociativeCache,
    PrimeMappedCache,
    TwoLevelCache,
)
from repro.cache.belady import simulate_opt
from repro.trace.records import Trace

FACTORIES = {
    "direct": lambda: DirectMappedCache(num_lines=64),
    "prime": lambda: PrimeMappedCache(c=7),
    "assoc": lambda: FullyAssociativeCache(num_lines=16),
    "two-level": lambda: TwoLevelCache(l1_sets=8, l2_sets=4, l1_ways=2,
                                       l2_ways=8),
}


def _mixed_batch(seed=0, n=4000, span=1 << 8):
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, span, size=n)
    writes = rng.random(n) < 0.25
    return addresses, writes


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_access_many_identical_across_backends(kind):
    addresses, writes = _mixed_batch()
    results = {}
    for backend in kernels.BACKENDS:
        cache = FACTORIES[kind]()
        cache.access_many(addresses, writes, backend=backend)
        stats = cache.stats
        results[backend] = (
            stats.accesses, stats.hits, stats.misses, stats.reads,
            stats.writes, stats.evictions,
            tuple(sorted(cache.resident_lines())),
        )
    assert results["scalar"] == results["compiled"]


def test_simulate_opt_identical_across_backends():
    addresses, writes = _mixed_batch(seed=7, n=3000, span=200)
    trace = Trace()
    trace.append_block(addresses, write=writes)
    results = {}
    for backend in kernels.BACKENDS:
        out = simulate_opt(trace, 16, num_sets=4, backend=backend)
        stats = out.stats
        results[backend] = (stats.accesses, stats.hits, stats.misses,
                            stats.reads, stats.writes, stats.evictions)
    assert results["scalar"] == results["compiled"]


def _level(ways, num_sets):
    size = ways * num_sets
    return (ways, True, 1, np.full(size, -1, dtype=np.int64),
            None if ways == 1 else np.zeros(size, dtype=np.int64),
            np.zeros(size, dtype=bool))


def test_replay_two_level_rejects_bad_arguments():
    """Every array is sized at the entry point and every set index
    bounded by the provider, before a kernel indexes them."""
    lines = np.arange(8, dtype=np.int64)
    sets = lines & 3

    def replay(sets=sets, l1=None, l2=None, hits_out=None, writes=None):
        return kernels.replay_two_level(
            lines, sets, writes, True, l1 or _level(2, 4),
            l2 or _level(1, 16), hits_out)

    assert replay()[:4] == (0, 8, 0, 0)
    for bad in (
            dict(sets=np.append(sets[:-1], 4)),
            dict(sets=np.append(sets[:-1], -1)),
            dict(sets=sets[:-1]),
            dict(hits_out=np.empty(7, dtype=bool)),
            dict(writes=np.zeros(9, dtype=bool)),
            dict(l1=_level(2, 3)),
            dict(l1=(2, True, 1, np.full(8, -1, dtype=np.int64), None,
                     np.zeros(8, dtype=bool))),
            dict(l2=(1, True, 1, np.full(16, -1, dtype=np.int64), None,
                     np.zeros(15, dtype=bool)))):
        with pytest.raises(ValueError):
            replay(**bad)
