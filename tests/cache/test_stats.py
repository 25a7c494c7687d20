"""Tests for cache statistics and the three-C miss classifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import stats as stats_module
from repro.cache.stats import (
    MISS_KIND_CODES,
    CacheStats,
    MissClassifier,
    MissKind,
)


class TestCacheStats:
    def test_ratios_empty(self):
        stats = CacheStats()
        assert stats.miss_ratio == 0.0
        assert stats.hit_ratio == 0.0

    def test_record_and_ratios(self):
        stats = CacheStats()
        stats.record(hit=True, write=False, kind=None)
        stats.record(hit=False, write=True, kind=MissKind.CONFLICT)
        assert stats.accesses == 2
        assert stats.hits == 1 and stats.misses == 1
        assert stats.reads == 1 and stats.writes == 1
        assert stats.hit_ratio == 0.5
        assert stats.conflict_misses == 1
        assert stats.compulsory_misses == 0

    def test_reset(self):
        stats = CacheStats()
        stats.record(hit=False, write=False, kind=MissKind.CAPACITY)
        stats.evictions = 3
        stats.reset()
        assert stats.accesses == 0
        assert stats.evictions == 0
        assert stats.capacity_misses == 0


class TestMissClassifier:
    def test_first_touch_is_compulsory(self):
        clf = MissClassifier(capacity_lines=2)
        assert clf.classify(0, real_hit=False) is MissKind.COMPULSORY

    def test_hit_returns_none(self):
        clf = MissClassifier(capacity_lines=2)
        clf.classify(0, real_hit=False)
        assert clf.classify(0, real_hit=True) is None

    def test_conflict_when_shadow_hits(self):
        clf = MissClassifier(capacity_lines=2)
        clf.classify(0, real_hit=False)
        clf.classify(1, real_hit=False)
        # 0 still fits in a 2-line fully-associative cache: a real miss on
        # it is a mapping conflict.
        assert clf.classify(0, real_hit=False) is MissKind.CONFLICT

    def test_capacity_when_shadow_evicted(self):
        clf = MissClassifier(capacity_lines=2)
        for line in (0, 1, 2):
            clf.classify(line, real_hit=False)
        # 0 was evicted from the 2-line shadow by 1, 2.
        assert clf.classify(0, real_hit=False) is MissKind.CAPACITY

    def test_shadow_is_lru_not_fifo(self):
        clf = MissClassifier(capacity_lines=2)
        clf.classify(0, real_hit=False)
        clf.classify(1, real_hit=False)
        clf.classify(0, real_hit=True)   # refresh 0
        clf.classify(2, real_hit=False)  # evicts 1, not 0
        assert clf.classify(0, real_hit=False) is MissKind.CONFLICT
        assert clf.classify(1, real_hit=False) is MissKind.CAPACITY

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            MissClassifier(0)

    def test_reset_forgets_history(self):
        clf = MissClassifier(capacity_lines=2)
        clf.classify(0, real_hit=False)
        clf.reset()
        assert clf.classify(0, real_hit=False) is MissKind.COMPULSORY


def _feed(draws):
    """Lines with real-hit flags a cache could produce: a line can only
    hit after it was fed once."""
    fed, lines, hits = set(), [], []
    for line, hit in draws:
        lines.append(line)
        hits.append(hit and line in fed)
        fed.add(line)
    return lines, hits


feeds = st.lists(st.tuples(st.integers(0, 24), st.booleans()), max_size=80)


class TestClassifyBatch:
    """The batch form labels exactly what the per-access form labels,
    across alternating segments and chunk boundaries."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10), st.lists(feeds, min_size=1, max_size=4))
    def test_alternating_forms_match_per_access(self, capacity, segments):
        lines, hits = _feed([d for segment in segments for d in segment])
        reference = MissClassifier(capacity)
        expected = [reference.classify(line, hit)
                    for line, hit in zip(lines, hits)]
        expected = [0 if kind is None else MISS_KIND_CODES[kind]
                    for kind in expected]
        mixed = MissClassifier(capacity)
        got, start = [], 0
        for index, segment in enumerate(segments):
            part = slice(start, start + len(segment))
            start += len(segment)
            if index % 2:
                got += [0 if kind is None else MISS_KIND_CODES[kind]
                        for kind in (mixed.classify(line, hit) for line, hit
                                     in zip(lines[part], hits[part]))]
            else:
                got += mixed.classify_batch(
                    np.array(lines[part], dtype=np.int64),
                    np.array(hits[part], dtype=bool)).tolist()
        assert got == expected

    def test_chunks_carry_the_shadow_and_seen_lines(self, monkeypatch):
        rng = np.random.default_rng(5)
        lines, hits = _feed(zip(rng.integers(0, 30, 400).tolist(),
                                (rng.random(400) < 0.3).tolist()))
        lines = np.array(lines, dtype=np.int64)
        hits = np.array(hits, dtype=bool)
        whole = MissClassifier(8).classify_batch(lines, hits)
        monkeypatch.setattr(stats_module, "CLASSIFY_CHUNK", 7)
        chunked = MissClassifier(8).classify_batch(lines, hits)
        np.testing.assert_array_equal(whole, chunked)
        kinds = np.bincount(whole, minlength=4)
        assert kinds[MISS_KIND_CODES[MissKind.COMPULSORY]] == 30
        assert kinds[MISS_KIND_CODES[MissKind.CAPACITY]] > 0
