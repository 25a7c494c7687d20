"""Provider parity: generated C and the pure-Python provider agree.

The two providers implement one contract with different algorithms — the
pure-Python one-way replay is a sort-based closed form for read-only
batches, its timing loops run on lists, its Belady OPT is a dict loop —
so each entry point is run on both, from the same state, and their
returns and state arrays must match element for element.  Inputs come
from the real mappings: ``sets`` from direct, prime, hashed and XOR
caches, ``banks`` from low-order, prime and skewed interleave.  Each
case runs several calls in a row so later calls start from warm state;
the replay cases store first, so a read-only batch then meets dirty
lines.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import kernels
from repro.cache import (
    DirectMappedCache,
    HashedIndexCache,
    PrimeMappedCache,
    SetAssociativeCache,
)
from repro.cache.alternative_mappings import XorMappedCache
from repro.kernels import cext, reference
from repro.memory.banks import (
    LowOrderInterleave,
    PrimeInterleave,
    SkewedInterleave,
)

C_PROVIDER = cext.load()

pytestmark = pytest.mark.skipif(C_PROVIDER is None,
                                reason="no C compiler on this host")

ONE_WAY = {
    "direct": lambda: DirectMappedCache(num_lines=16),
    "prime": lambda: PrimeMappedCache(c=5),
    "hashed": lambda: HashedIndexCache(num_sets=24, seed=3),
    "xor": lambda: XorMappedCache(num_lines=32),
}
N_WAY = {
    "direct": lambda: SetAssociativeCache(num_sets=4, num_ways=4),
    "prime": lambda: PrimeMappedCache(c=3, ways=2),
    "hashed": lambda: HashedIndexCache(num_sets=6, num_ways=3, seed=11),
    "fully": lambda: SetAssociativeCache(num_sets=1, num_ways=8),
}
ALL_CACHES = {
    **{f"{kind} one-way": make for kind, make in ONE_WAY.items()},
    **{f"{kind} n-way": make for kind, make in N_WAY.items()},
}
SCHEMES = {
    "low-order": lambda: LowOrderInterleave(8),
    "prime": lambda: PrimeInterleave(7),
    "skewed": lambda: SkewedInterleave(16),
}

addresses = st.lists(st.integers(0, 400), max_size=160)
two_batches = st.lists(addresses, min_size=2, max_size=2)
#: replay batches: stores, then read-only, then either
three_batches = st.lists(addresses, min_size=3, max_size=3)


def _replay_writes(data, index: int, n: int):
    """Store flags of replay batch ``index`` (see ``three_batches``)."""
    if index == 1:
        return None
    return data.draw(flags(n, optional=index == 2))


@st.composite
def flags(draw, n: int, *, optional: bool = True):
    """One ``uint8`` flag per reference, or ``None`` when ``optional``."""
    if optional and draw(st.booleans()):
        return None
    return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                    dtype=np.uint8)


def _hits_out(data, n: int):
    """An optional hit-flag output, pre-filled with a value no kernel
    writes so a skipped element shows."""
    if data.draw(st.booleans()):
        return None
    return np.full(n, 7, dtype=np.uint8)


def _assert_same(name: str, args: list):
    """Run one entry point on both providers from copies of ``args`` and
    assert equal returns and arrays; returns the shared outcome."""
    outcomes = []
    for provider in (C_PROVIDER, reference):
        copies = [a.copy() if isinstance(a, np.ndarray) else a
                  for a in args]
        outcomes.append((getattr(provider, name)(*copies), copies))
    (c_result, c_args), (py_result, py_args) = outcomes
    assert c_result == py_result
    for c_arr, py_arr in zip(c_args, py_args):
        if isinstance(c_arr, np.ndarray):
            np.testing.assert_array_equal(c_arr, py_arr)
    return c_result, c_args


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ONE_WAY)), three_batches, st.booleans(),
       st.data())
def test_replay_oneway(kind, batches, write_allocate, data):
    cache = ONE_WAY[kind]()
    current = np.full(cache.num_sets, -1, dtype=np.int64)
    dirty = np.zeros(cache.num_sets, dtype=np.uint8)
    for index, batch in enumerate(batches):
        lines = np.array(batch, dtype=np.int64)
        _, args = _assert_same("replay_oneway", [
            lines, cache._map_sets_batch(lines),
            _replay_writes(data, index, lines.size), int(write_allocate),
            current, dirty, _hits_out(data, lines.size)])
        current, dirty = args[4], args[5]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(N_WAY)), three_batches, st.booleans(),
       st.booleans(), st.data())
def test_replay_assoc(kind, batches, write_allocate, lru, data):
    cache = N_WAY[kind]()
    ways = cache.num_ways
    size = cache.num_sets * ways
    tags = np.full(size, -1, dtype=np.int64)
    stamps = np.zeros(size, dtype=np.int64)
    dirty = np.zeros(size, dtype=np.uint8)
    tick = 1
    for index, batch in enumerate(batches):
        lines = np.array(batch, dtype=np.int64)
        result, args = _assert_same("replay_assoc", [
            lines, cache._map_sets_batch(lines),
            _replay_writes(data, index, lines.size), ways,
            int(write_allocate), int(lru), tick, tags, stamps, dirty,
            _hits_out(data, lines.size)])
        tick = result[3]
        tags, stamps, dirty = args[7], args[8], args[9]


def _bank_state(scheme):
    return (np.zeros(scheme.num_banks, dtype=np.int64),
            np.zeros(scheme.num_banks, dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SCHEMES)), two_batches,
       st.sampled_from((1, 4, 12, 40)), st.integers(0, 50), st.data())
def test_mm_timing(kind, batches, t_m, start, data):
    scheme = SCHEMES[kind]()
    free_at, counts = _bank_state(scheme)
    state = np.zeros(8, dtype=np.int64)
    state[0] = start
    for batch in batches:
        banks = scheme.bank_of_batch(np.array(batch, dtype=np.int64))
        _, args = _assert_same("mm_timing", [
            banks, data.draw(flags(banks.size)), t_m, free_at, counts,
            state])
        free_at, counts, state = args[3], args[4], args[5]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SCHEMES)), two_batches,
       st.sampled_from((1, 4, 12, 40)), st.sampled_from((0, 8, 32)),
       st.data())
def test_cc_timing(kind, batches, mem_t_m, cc_t_m, data):
    scheme = SCHEMES[kind]()
    free_at, counts = _bank_state(scheme)
    state = np.zeros(9, dtype=np.int64)
    for batch in batches:
        banks = scheme.bank_of_batch(np.array(batch, dtype=np.int64))
        n = banks.size
        kinds = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
            dtype=np.uint8)
        _, args = _assert_same("cc_timing", [
            banks, data.draw(flags(n)), data.draw(flags(n, optional=False)),
            kinds, mem_t_m, cc_t_m, 1, free_at, counts, state])
        free_at, counts, state = args[7], args[8], args[9]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SCHEMES)), st.lists(two_batches, min_size=2,
                                                  max_size=2),
       st.sampled_from((4, 16, 64)), st.integers(0, 20),
       st.sampled_from((1, 4, 12, 40)), st.data())
def test_pair_flat(kind, pairs, mvl, overhead, t_m, data):
    scheme = SCHEMES[kind]()
    free_at, counts = _bank_state(scheme)
    state = np.zeros(5, dtype=np.int64)
    for first, second in pairs:
        b1 = scheme.bank_of_batch(np.array(first, dtype=np.int64))
        b2 = scheme.bank_of_batch(np.array(second, dtype=np.int64))
        paired = min(b1.size, b2.size)
        cached = data.draw(st.booleans())
        h1 = data.draw(flags(b1.size, optional=False)) if cached else None
        h2 = data.draw(flags(paired, optional=False)) if cached else None
        pen1 = data.draw(st.sampled_from((0, t_m))) if cached else 0
        pen2 = data.draw(st.sampled_from((0, t_m))) if cached else 0
        _, args = _assert_same("pair_flat", [
            b1, b2, h1, h2, paired, mvl, overhead, t_m, pen1, pen2,
            free_at, counts, state])
        free_at, counts, state = args[10], args[11], args[12]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(ALL_CACHES)),
       st.lists(st.integers(0, 120), max_size=300))
def test_belady_opt(kind, batch):
    cache = ALL_CACHES[kind]()
    lines = np.array(batch, dtype=np.int64)
    size = cache.num_sets * cache.num_ways
    _assert_same("belady_opt", [
        lines, cache._map_sets_batch(lines), kernels.belady_next_use(lines),
        cache.num_ways, np.full(size, -1, dtype=np.int64),
        np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64)])
