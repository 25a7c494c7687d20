"""The batched replay path cross-checked bit-for-bit against scalar access.

``Cache.access_many`` is a performance fast path; the scalar ``access``
loop is the reference implementation.  Everything here asserts exact
equivalence between the two — statistics (including the three-C split),
per-access hit bitmaps and miss kinds, final residency, and the state a
mixed scalar/batched sequence leaves behind — across organisations, line
sizes, write mixes and write-allocate policies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    MISS_KIND_CODES,
    BicameralCache,
    ColumnAssociativeCache,
    DirectMappedCache,
    FullyAssociativeCache,
    HashedIndexCache,
    MissKind,
    PrimeMappedCache,
    SetAssociativeCache,
    TwoLevelCache,
    XorMappedCache,
)
from repro.cache.set_assoc import ASSOC_SCAN_WAYS


def _bicameral(**kw):
    cache = BicameralCache(scalar_sets=4, vector_c=3, **kw)
    cache.mark_vector(128, 256)
    return cache


FACTORIES = {
    "direct": lambda **kw: DirectMappedCache(num_lines=8, **kw),
    "direct-wide": lambda **kw: DirectMappedCache(
        num_lines=8, line_size_words=4, **kw
    ),
    "two-way": lambda **kw: SetAssociativeCache(num_sets=4, num_ways=2, **kw),
    "fifo-four-way": lambda **kw: SetAssociativeCache(
        num_sets=2, num_ways=4, policy="fifo", **kw
    ),
    "four-way": lambda **kw: SetAssociativeCache(num_sets=2, num_ways=4, **kw),
    "fully": lambda **kw: FullyAssociativeCache(num_lines=5, **kw),
    "fully-wide": lambda **kw: FullyAssociativeCache(
        num_lines=6, line_size_words=4, **kw
    ),
    "hashed": lambda **kw: HashedIndexCache(num_sets=8, seed=5, **kw),
    "bicameral": _bicameral,
    "prime": lambda **kw: PrimeMappedCache(c=5, **kw),
    "prime-wide": lambda **kw: PrimeMappedCache(c=3, line_size_words=2, **kw),
    "xor": lambda **kw: XorMappedCache(num_lines=16, **kw),
    "column": lambda **kw: ColumnAssociativeCache(num_lines=16, **kw),
    "two-level": lambda **kw: TwoLevelCache(l1_sets=4, l2_sets=16, **kw),
    "two-level-wide": lambda **kw: TwoLevelCache(
        l1_sets=2, l2_sets=8, line_size_words=4, **kw
    ),
    "two-level-fifo-lru": lambda **kw: TwoLevelCache(
        l1_sets=2, l2_sets=4, l1_ways=2, l2_ways=2, l1_policy="fifo", **kw
    ),
    # an L2 with fewer sets than L1: back-invalidation leaves L1 holes
    "two-level-holes": lambda **kw: TwoLevelCache(
        l1_sets=4, l2_sets=1, l1_ways=2, l2_ways=8, **kw
    ),
}

#: address streams with enough aliasing to exercise every miss class
streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255),
        st.booleans(),
    ),
    min_size=1,
    max_size=200,
)

configs = st.tuples(
    st.sampled_from(sorted(FACTORIES)),
    st.booleans(),  # classify_misses
    st.booleans(),  # write_allocate
)


def _stats_tuple(stats):
    return (
        stats.accesses, stats.hits, stats.misses, stats.reads,
        stats.writes, stats.evictions, dict(stats.miss_kinds),
    )


@settings(max_examples=120, deadline=None)
@given(configs, streams)
def test_access_many_matches_scalar_loop(config, stream):
    """The property the whole fast path rests on: identical statistics,
    hit bitmap, miss kinds and final residency versus scalar replay."""
    name, classify, write_allocate = config
    factory = FACTORIES[name]
    scalar = factory(classify_misses=classify, write_allocate=write_allocate)
    batched = factory(classify_misses=classify, write_allocate=write_allocate)

    addresses = [address for address, _ in stream]
    writes = [write for _, write in stream]
    results = [
        scalar.access(address, write=write)
        for address, write in zip(addresses, writes)
    ]
    batch = batched.access_many(
        np.asarray(addresses, dtype=np.int64),
        np.asarray(writes, dtype=bool),
        return_hits=True,
        return_kinds=True,
    )

    assert _stats_tuple(scalar.stats) == _stats_tuple(batched.stats)
    assert _stats_tuple(batch.delta) == _stats_tuple(scalar.stats)
    assert batch.hits.tolist() == [r.hit for r in results]
    assert batch.miss_kinds.tolist() == [
        0 if r.miss_kind is None else MISS_KIND_CODES[r.miss_kind]
        for r in results
    ]
    assert scalar.resident_lines() == batched.resident_lines()


def _kinds(results):
    return [0 if r.miss_kind is None else MISS_KIND_CODES[r.miss_kind]
            for r in results]


def _level_state(level):
    """A set-associative level's residency as the scalar path reads it:
    each set's lines with their ways in recency order, the dirty lines,
    and the holes (empty ways below a set's highest filled way, which is
    what a fill's lowest-free-way choice depends on)."""
    level.resident_lines()              # syncs the dicts from the mirror
    sets = {s: list(lines.items()) for s, lines in level._sets.items()
            if lines}
    holes = {}
    for s, heap in level._holes.items():
        top = max(level._sets[s].values())
        gaps = sorted(way for way in heap if way < top)
        if gaps:
            holes[s] = gaps
    return sets, sorted(level._dirty), holes


def _hierarchy_state(cache):
    if not isinstance(cache, TwoLevelCache):
        return None
    return (cache.l1_hits, cache.l2_hits, _level_state(cache.l1),
            _level_state(cache.l2))


@settings(max_examples=80, deadline=None)
@given(configs, streams, streams, streams)
def test_mixed_scalar_then_batched_equals_scalar(config, first, middle, last):
    """Batches pick up exactly where scalar accesses left off and the
    other way round: batched, scalar and batched segments on one cache
    must equal one scalar run, per access (hits and three-C kinds),
    per statistic and in the residency and shadow state left behind (for
    a hierarchy: the per-level hit counters and each level's lines,
    dirt and holes)."""
    name, classify, write_allocate = config
    factory = FACTORIES[name]
    reference = factory(
        classify_misses=classify, write_allocate=write_allocate
    )
    mixed = factory(classify_misses=classify, write_allocate=write_allocate)

    expected = [reference.access(address, write=write)
                for address, write in first + middle + last]

    def batched(segment):
        batch = mixed.access_many(
            np.asarray([address for address, _ in segment], dtype=np.int64),
            np.asarray([write for _, write in segment], dtype=bool),
            return_hits=True, return_kinds=True,
        )
        return batch.hits.tolist(), batch.miss_kinds.tolist()

    hits, kinds = batched(first)
    scalar = [mixed.access(address, write=write) for address, write in middle]
    hits += [r.hit for r in scalar]
    kinds += _kinds(scalar)
    last_hits, last_kinds = batched(last)

    assert hits + last_hits == [r.hit for r in expected]
    assert kinds + last_kinds == _kinds(expected)
    assert _stats_tuple(reference.stats) == _stats_tuple(mixed.stats)
    assert reference.resident_lines() == mixed.resident_lines()
    assert _hierarchy_state(reference) == _hierarchy_state(mixed)
    # the state left behind is equivalent: replaying more scalar accesses
    # on both produces the same outcomes
    for address, write in first + middle:
        ref, got = (reference.access(address, write=write),
                    mixed.access(address, write=write))
        assert (ref.hit, ref.miss_kind) == (got.hit, got.miss_kind)


@pytest.mark.parametrize("factory", [
    lambda: FullyAssociativeCache(num_lines=4),
    lambda: SetAssociativeCache(num_sets=2, num_ways=4),
], ids=["fully", "four-way"])
def test_scalar_hits_between_batches_reorder_nway_recency(factory):
    """A scalar hit between two batches changes an N-way set's LRU
    order without filling anything; the next batch must evict by the
    new order (the batched residency state is rebuilt, not reused)."""
    scalar, mixed = factory(), factory()
    warm = np.array([0, 2, 4, 6], dtype=np.int64)   # one set, four ways
    for address in warm.tolist():
        scalar.access(address)
    mixed.access_many(warm)
    for cache in (scalar, mixed):
        assert cache.access(0).hit                  # 0 becomes MRU
    for address in (8, 0):                          # 8 evicts 2, not 0
        scalar.access(address)
    batch = mixed.access_many(np.array([8, 0], dtype=np.int64),
                              return_hits=True)
    assert batch.hits.tolist() == [False, True]
    assert scalar.resident_lines() == mixed.resident_lines()


@pytest.mark.parametrize("num_lines", [ASSOC_SCAN_WAYS, 2 * ASSOC_SCAN_WAYS])
def test_large_fully_associative_matches_on_both_backends(num_lines):
    """A fully-associative cache at and past the way-scan limit (kernel
    and dict-loop residency) gives the scalar backend's statistics, hits
    and three-C kinds, with stores and no-allocate writes mixed in."""
    rng = np.random.default_rng(num_lines)
    window = num_lines + num_lines // 4
    cyclic = (np.arange(3 * num_lines, dtype=np.int64) * 8) % (8 * window)
    scattered = rng.integers(0, 16 * window, 2 * num_lines)
    addresses = np.concatenate([cyclic, scattered, cyclic])
    writes = rng.random(addresses.size) < 0.2
    outcomes = {}
    for backend in ("scalar", "compiled"):
        for write_allocate in (True, False):
            cache = FullyAssociativeCache(num_lines=num_lines,
                                          write_allocate=write_allocate)
            batch = cache.access_many(addresses, writes, return_hits=True,
                                      return_kinds=True, backend=backend)
            outcomes[backend, write_allocate] = (
                _stats_tuple(cache.stats), batch.hits.tolist(),
                batch.miss_kinds.tolist(), cache.resident_lines())
    for write_allocate in (True, False):
        assert (outcomes["compiled", write_allocate]
                == outcomes["scalar", write_allocate])


def test_read_only_batch_accepts_no_writes_argument():
    cache = DirectMappedCache(num_lines=8)
    batch = cache.access_many(np.arange(16), return_hits=True)
    assert batch.delta.accesses == 16
    assert batch.delta.reads == 16
    assert batch.delta.writes == 0
    assert not batch.hits.any()
    assert cache.stats.misses == 16


def test_batch_result_delta_is_batch_local():
    cache = DirectMappedCache(num_lines=8)
    cache.access_many(np.arange(8))
    second = cache.access_many(np.arange(8))
    assert second.delta.accesses == 8
    assert second.delta.hits == 8
    assert cache.stats.accesses == 16


def test_hit_bitmap_is_optional_and_defaults_off():
    cache = DirectMappedCache(num_lines=8)
    batch = cache.access_many(np.arange(8))
    assert batch.hits is None
    assert batch.miss_kinds is None


def test_rejects_negative_addresses_and_shape_mismatch():
    cache = DirectMappedCache(num_lines=8)
    with pytest.raises(ValueError):
        cache.access_many(np.asarray([0, -1]))
    with pytest.raises(ValueError):
        cache.access_many(np.arange(4), np.asarray([True, False]))
    with pytest.raises(ValueError):
        cache.access_many(np.arange(4).reshape(2, 2))


def test_empty_batch_is_a_no_op():
    cache = PrimeMappedCache(c=5)
    batch = cache.access_many(np.asarray([], dtype=np.int64),
                              return_hits=True)
    assert batch.delta.accesses == 0
    assert batch.hits.size == 0
    assert cache.stats.accesses == 0


def test_column_associative_batch_counts_rehash_probes():
    """The scalar-path fallback preserves wrapper-style side effects."""
    scalar = ColumnAssociativeCache(num_lines=16)
    batched = ColumnAssociativeCache(num_lines=16)
    addresses = [0, 8, 0, 8, 0, 8]
    for address in addresses:
        scalar.access(address)
    batched.access_many(np.asarray(addresses))
    assert batched.rehash_probes == scalar.rehash_probes
    assert _stats_tuple(scalar.stats) == _stats_tuple(batched.stats)


class TestNoAllocateShadowRegression:
    """A write miss on a no-allocate cache must not feed the classifier
    shadow: the store bypasses the cache, so the next read miss to that
    line is the line's *first* installation — compulsory, not conflict."""

    def test_read_after_bypassed_write_is_compulsory(self):
        cache = DirectMappedCache(num_lines=8, write_allocate=False)
        miss = cache.access(3, write=True)
        assert not miss.hit and miss.miss_kind is None
        result = cache.access(3)
        assert not result.hit
        assert result.miss_kind is MissKind.COMPULSORY

    def test_bypassed_write_does_not_disturb_shadow_recency(self):
        # Fill the shadow, then issue a bypassed write to a new line: the
        # shadow must not age out the oldest entry because of it.  Line 0
        # is conflict-evicted from the real cache but still shadow-resident,
        # so its re-read must classify CONFLICT; the pre-fix shadow would
        # have evicted it on the write and said CAPACITY.
        cache = DirectMappedCache(num_lines=4, write_allocate=False)
        for address in (0, 4, 1, 2):
            cache.access(address)
        cache.access(3, write=True)  # miss, bypassed
        result = cache.access(0)
        assert not result.hit
        assert result.miss_kind is MissKind.CONFLICT

    def test_write_allocate_cache_still_classifies_write_misses(self):
        cache = DirectMappedCache(num_lines=8, write_allocate=True)
        result = cache.access(3, write=True)
        assert result.miss_kind is MissKind.COMPULSORY
        assert cache.access(3).hit

    def test_write_hit_still_touches_shadow(self):
        cache = FullyAssociativeCache(num_lines=2, write_allocate=False)
        cache.access(0)
        cache.access(1)
        cache.access(0, write=True)   # hit: refreshes recency of line 0
        cache.access(2)               # evicts line 1 (LRU), not line 0
        assert cache.access(0).hit


class TestReplayFastBranches:
    """The mirror-replay shortcuts (all-hit, duplicate-free scatter) must
    stay exact — including with duplicate sets inside one batch and
    across ``invalidate_all``."""

    @staticmethod
    def _pair(**kw):
        return (DirectMappedCache(num_lines=16, **kw),
                DirectMappedCache(num_lines=16, **kw))

    @staticmethod
    def _same(a, b):
        assert (a.stats.hits, a.stats.misses, a.stats.evictions) == (
            b.stats.hits, b.stats.misses, b.stats.evictions)
        assert a.resident_lines() == b.resident_lines()

    def test_all_hit_batch_with_duplicate_sets(self):
        scalar, batched = self._pair(classify_misses=False)
        warm = np.arange(8, dtype=np.int64)
        stream = np.array([0, 3, 0, 7, 3, 0], dtype=np.int64)  # repeats
        for cache in (scalar, batched):
            cache.access_many(warm)
        for address in stream.tolist():
            scalar.access(address)
        result = batched.access_many(stream, return_hits=True)
        assert result.hits.all()
        self._same(scalar, batched)

    def test_duplicate_free_batch_scatter_path(self):
        scalar, batched = self._pair(classify_misses=False)
        stream = np.array([5, 21, 3, 64, 40, 9], dtype=np.int64)  # distinct sets
        for address in stream.tolist():
            scalar.access(address)
        batched.access_many(stream)
        self._same(scalar, batched)

    def test_duplicate_sets_with_misses_fall_back_exactly(self):
        scalar, batched = self._pair(classify_misses=False)
        stream = np.array([5, 21, 5, 21, 37, 5], dtype=np.int64)  # set 5 x4
        for address in stream.tolist():
            scalar.access(address)
        batched.access_many(stream)
        self._same(scalar, batched)

    def test_invalidate_all_between_batches(self):
        scalar, batched = self._pair(classify_misses=False)
        stream = np.arange(0, 32, 2, dtype=np.int64)
        for cache in (scalar, batched):
            cache.access_many(stream) if cache is batched else [
                cache.access(a) for a in stream.tolist()]
            cache.invalidate_all()
        assert batched.resident_lines() == set()
        for address in stream.tolist():
            scalar.access(address)
        batched.access_many(stream)
        self._same(scalar, batched)
