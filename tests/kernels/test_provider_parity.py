"""Provider parity: generated C and the pure-Python provider agree.

The two providers implement one contract with different algorithms — the
pure-Python one-way replay is a sort-based closed form for read-only
batches, its timing loops run on lists, its Belady OPT is a dict loop —
so each entry point is run on both, from the same state, and their
returns and state arrays must match element for element.  Inputs come
from the real mappings: ``sets`` from direct, prime, hashed and XOR
caches (and a hierarchy's power-of-two L1 index), ``banks`` from
low-order, prime and skewed interleave.  Each
case runs several calls in a row so later calls start from warm state;
the replay cases store first, so a read-only batch then meets dirty
lines, and the op-table cases mix pairs with tails, stores, computes and
zero or negative strides, with and without cache hits.
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
from repro.machine.ops import (
    KIND,
    LOAD,
    PAIRED,
    LoadPair,
    OpTable,
    VectorCompute,
    VectorLoad,
    VectorStore,
)
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
    if isinstance(c_result, np.ndarray):
        np.testing.assert_array_equal(c_result, py_result)
    else:
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


def _two_level_state(ways: int, lru: bool, num_sets: int) -> list:
    """An empty hierarchy level as ``replay_two_level`` takes it."""
    size = num_sets * ways
    return [ways, int(lru), 1, np.full(size, -1, dtype=np.int64),
            None if ways == 1 else np.zeros(size, dtype=np.int64),
            np.zeros(size, dtype=np.uint8)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 2, 3)), st.sampled_from((1, 2, 4)),
       st.sampled_from((2, 4)), st.sampled_from((1, 2, 8)), st.booleans(),
       st.booleans(), st.booleans(),
       st.lists(st.lists(st.integers(0, 63), max_size=160), min_size=3,
                max_size=3),
       st.data())
def test_replay_two_level(l1_ways, l2_ways, l1_sets, l2_sets, lru1, lru2,
                          write_allocate, batches, data):
    """Both providers from the same warm hierarchy: equal returns, hit
    flags and per-level tags, stamps and dirt after each batch.  Stores
    leave dirty lines in L1 and, through dirty L1 victims, in L2; an L2
    with fewer sets than L1 evicts lines whose L1 copy sits in another
    set than the promoted line, so back-invalidation leaves L1 holes that
    later batches fill; the last batch is empty."""
    levels = [_two_level_state(l1_ways, lru1, l1_sets),
              _two_level_state(l2_ways, lru2, l2_sets)]
    for index, batch in enumerate(batches + [[]]):
        lines = np.array(batch, dtype=np.int64)
        writes = _replay_writes(data, min(index, 2), lines.size)
        hits_out = _hits_out(data, lines.size)
        outcomes = []
        for provider in (C_PROVIDER, reference):
            copies = [[a.copy() if isinstance(a, np.ndarray) else a
                       for a in level] for level in levels]
            hits = None if hits_out is None else hits_out.copy()
            result = provider.replay_two_level(
                lines, lines & (l1_sets - 1), writes, int(write_allocate),
                *copies, hits)
            outcomes.append((result, copies, hits))
        (c_result, c_levels, c_hits), (py_result, py_levels, py_hits) = (
            outcomes)
        assert c_result == py_result
        for c_level, py_level in zip(c_levels, py_levels):
            for c_arr, py_arr in zip(c_level, py_level):
                if isinstance(c_arr, np.ndarray):
                    np.testing.assert_array_equal(c_arr, py_arr)
        if hits_out is not None:
            np.testing.assert_array_equal(c_hits, py_hits)
        levels = c_levels
        levels[0][2], levels[1][2] = c_result[4], c_result[5]


#: the shadow a stack_hits batch starts from: none, fewer distinct lines
#: than the capacity, or a full one
SHADOWS = ("empty", "partial", "full")


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.sampled_from(SHADOWS),
       st.lists(st.lists(st.integers(0, 40), max_size=120), min_size=2,
                max_size=3),
       st.permutations(list(range(41))), st.booleans())
def test_stack_hits(capacity, shadow, batches, lines_by_age, want_cold):
    """Both providers from the same warm shadow: equal hits, cold flags
    and shadows after each batch (capacity 1, repeated lines and batches
    longer than the capacity included)."""
    size = {"empty": 0, "partial": capacity // 2, "full": capacity}[shadow]
    recent = np.array(lines_by_age[:size], dtype=np.int64)
    for batch in batches:
        lines = np.array(batch, dtype=np.int64)
        outcomes = []
        for provider in (C_PROVIDER, reference):
            cold = (np.full(lines.size, 7, dtype=np.uint8) if want_cold
                    else None)
            hits, after = provider.stack_hits(lines, recent.copy(),
                                              capacity, cold)
            outcomes.append((hits, after, cold))
        (c_hits, c_after, c_cold), (py_hits, py_after, py_cold) = outcomes
        assert c_hits.dtype == py_hits.dtype == np.bool_
        np.testing.assert_array_equal(c_hits, py_hits)
        np.testing.assert_array_equal(c_after, py_after)
        if want_cold:
            np.testing.assert_array_equal(c_cold, py_cold)
        recent = c_after


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


def _stream(draw, mvl: int, **flags) -> VectorLoad:
    """A load whose addresses stay non-negative for any stride sign."""
    length = draw(st.integers(1, 3 * mvl))
    stride = draw(st.sampled_from((0, 1, 3, 8, -2)) | st.integers(-9, 40))
    base = draw(st.integers(0, 400)) + (length * -stride if stride < 0 else 0)
    return VectorLoad(base=base, stride=stride, length=length, **flags)


@st.composite
def op_tables(draw, mvl: int):
    """A table of loads, pairs (second streams longer or shorter than the
    first, so tails appear), stores and computes."""
    ops = []
    for kind in draw(st.lists(st.sampled_from("lpsc"), min_size=1,
                              max_size=6)):
        if kind in "lp":
            first = _stream(draw, mvl, expect_cached=draw(st.booleans()),
                            counts_results=draw(st.booleans()))
            if kind == "l":
                ops.append(first)
                continue
            ops.append(LoadPair(first, _stream(
                draw, mvl, expect_cached=draw(st.booleans()),
                counts_results=draw(st.booleans()))))
        elif kind == "s":
            load = _stream(draw, mvl)
            ops.append(VectorStore(load.base, load.stride, load.length))
        else:
            ops.append(VectorCompute(draw(st.integers(1, 2 * mvl))))
    return OpTable.from_ops(ops)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SCHEMES)), st.sampled_from((4, 16, 64)),
       st.integers(0, 20), st.sampled_from((1, 4, 12, 40)),
       st.sampled_from((0, 8, 32)), st.booleans(), st.data())
def test_op_addresses_and_timing(kind, mvl, overhead, t_bank, penalty,
                                 cached, data):
    """Two tables in a row from warm bank, clock and bus state; the
    timing kernel takes the first kernel's addresses mapped to banks."""
    scheme = SCHEMES[kind]()
    free_at = np.array(data.draw(st.lists(
        st.integers(0, 80), min_size=scheme.num_banks,
        max_size=scheme.num_banks)), dtype=np.int64)
    counts = np.zeros(scheme.num_banks, dtype=np.int64)
    state = np.zeros(16, dtype=np.int64)
    state[0] = data.draw(st.integers(0, 60))
    # buses free by the clock (the kernel's precondition)
    state[10:12] = data.draw(st.lists(st.integers(0, int(state[0])),
                                      min_size=2, max_size=2))
    state[14] = data.draw(st.integers(0, int(state[0])))
    for table in data.draw(st.lists(op_tables(mvl), min_size=2,
                                    max_size=2)):
        refs = table.refs()
        n_load = int(refs[table.rows[:, KIND] == LOAD].sum())
        addresses, _ = _assert_same("op_addresses",
                                    [table.rows, n_load, int(refs.sum())])
        hits = data.draw(flags(n_load, optional=False)) if cached else None
        _, args = _assert_same("op_timing", [
            table.rows, n_load, scheme.bank_of_batch(addresses), hits, mvl,
            overhead, data.draw(st.integers(0, 20)), t_bank, penalty,
            free_at, counts, state])
        free_at, counts, state = args[9], args[10], args[11]


@pytest.mark.parametrize("provider", [C_PROVIDER, reference],
                         ids=["cext", "reference"])
def test_op_kernels_reject_mismatched_arguments(provider):
    """Rows, reference counts and banks are checked before any array is
    indexed: a mismatch raises instead of reading or writing out of
    bounds."""
    rows = OpTable.from_ops([VectorLoad(base=0, stride=1, length=4),
                             VectorStore(base=0, stride=1, length=2)]).rows
    malformed = rows.copy()
    malformed[0, PAIRED] = 5  # more paired slots than elements
    for args in ((rows, 3, 6), (rows, 4, 7), (malformed, 9, 11)):
        with pytest.raises(ValueError):
            provider.op_addresses(*args)

    def timing(banks, n_load=4):
        provider.op_timing(rows, n_load, np.array(banks, dtype=np.int64),
                           None, 64, 0, 0, 4, 0, np.zeros(4, np.int64),
                           np.zeros(4, np.int64), np.zeros(16, np.int64))

    timing([0, 1, 2, 3, 0, 1])
    for banks in ([0, 1, 2, 3, 4, 0], [0, 1, 2, 3, 0, -1], [0, 1, 2, 3, 0]):
        with pytest.raises(ValueError):
            timing(banks)
    with pytest.raises(ValueError):
        timing([0, 1, 2, 3, 0, 1], n_load=5)


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
