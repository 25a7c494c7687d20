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
)
from repro.cache.belady import simulate_opt
from repro.trace.records import Trace

FACTORIES = {
    "direct": lambda: DirectMappedCache(num_lines=64),
    "prime": lambda: PrimeMappedCache(c=7),
    "assoc": lambda: FullyAssociativeCache(num_lines=16),
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
