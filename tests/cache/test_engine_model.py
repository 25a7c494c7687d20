"""The set-associative engine against an independent model, and its cost.

The model below shares no code with :mod:`repro.cache.set_assoc`: every
set is an explicit way array plus a recency list (least recent first),
fills take the lowest free way, LRU re-appends on a hit, LRU and FIFO
evict the list's head, and random draws a way index from its own
``random.Random``.  Hypothesis drives both through reads, writes and
``invalidate_line`` over small geometries and every policy; per access
the hit, the victim line and the writeback must agree, and so must the
resident lines at the end.  The batched engines (every backend) are held
to the same model.

The complexity guards time two cases whose cost used to grow with the
set count or the associativity; each bound sits at least six times
above the current cost and below the old one.
"""

from __future__ import annotations

import random
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    DirectMappedCache,
    FullyAssociativeCache,
    SetAssociativeCache,
)
from repro.cache.replacement import make_policy
from repro.experiments.ablations import ASSOC_STRIDES, ASSOC_VECTOR_LENGTH
from repro.trace.patterns import strided
from repro.trace.records import Trace
from repro.trace.replay import replay


class AnySetsCache(SetAssociativeCache):
    """The engine with modulo indexing over any set count (1-4 here)."""

    _require_pow2_sets = False


class ModelCache:
    """Explicit way arrays and recency lists; one line == one word."""

    def __init__(self, num_sets, num_ways, policy, seed, write_allocate):
        self.num_sets = num_sets
        self.num_ways = num_ways
        self.policy = policy
        self.write_allocate = write_allocate
        self.ways = [[None] * num_ways for _ in range(num_sets)]
        self.recency = [[] for _ in range(num_sets)]
        self.dirty = set()
        self.rng = random.Random(seed)

    def access(self, line, write):
        """``(hit, victim line or None, writeback)``."""
        ways = self.ways[line % self.num_sets]
        recency = self.recency[line % self.num_sets]
        if line in ways:
            if self.policy == "lru":
                recency.remove(line)
                recency.append(line)
            if write:
                self.dirty.add(line)
            return True, None, False
        if write and not self.write_allocate:
            return False, None, False
        victim, writeback = None, False
        if None in ways:
            way = ways.index(None)
        else:
            if self.policy == "random":
                way = self.rng.randrange(self.num_ways)
                victim = ways[way]
            else:
                victim = recency[0]
                way = ways.index(victim)
            recency.remove(victim)
            writeback = victim in self.dirty
            self.dirty.discard(victim)
        ways[way] = line
        recency.append(line)
        if write:
            self.dirty.add(line)
        return False, victim, writeback

    def invalidate(self, line):
        ways = self.ways[line % self.num_sets]
        if line not in ways:
            return False
        ways[ways.index(line)] = None
        self.recency[line % self.num_sets].remove(line)
        was_dirty = line in self.dirty
        self.dirty.discard(line)
        return was_dirty

    def resident_lines(self):
        return {line for ways in self.ways for line in ways
                if line is not None}


@st.composite
def scenarios(draw):
    """A geometry and an operation list over twice its capacity in lines,
    so sets fill, hit and evict."""
    num_sets = draw(st.integers(min_value=1, max_value=4))
    num_ways = draw(st.integers(min_value=1, max_value=8))
    geometry = (
        num_sets, num_ways,
        draw(st.sampled_from(["lru", "fifo", "random"])),
        draw(st.integers(min_value=0, max_value=2**16)),   # random seed
        draw(st.booleans()),                               # write-allocate
    )
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["read", "read", "write", "invalidate"]),
                  st.integers(min_value=0,
                              max_value=2 * num_sets * num_ways)),
        min_size=20, max_size=150,
    ))
    return geometry, ops


def _pair(geometry, classify_misses=True):
    num_sets, num_ways, policy, seed, write_allocate = geometry
    kwargs = {"seed": seed} if policy == "random" else {}
    cache = AnySetsCache(
        num_sets, num_ways,
        policy=make_policy(policy, num_sets, num_ways, **kwargs),
        classify_misses=classify_misses,
        write_allocate=write_allocate,
    )
    return cache, ModelCache(num_sets, num_ways, policy, seed,
                             write_allocate)


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_access_path_matches_model(scenario):
    geometry, ops = scenario
    cache, model = _pair(geometry)
    for op, line in ops:
        if op == "invalidate":
            assert cache.invalidate_line(line) == model.invalidate(line)
            continue
        result = cache.access(line, write=op == "write")
        assert (result.hit, result.victim_line, result.writeback) == \
            model.access(line, op == "write")
    assert cache.resident_lines() == model.resident_lines()


@settings(max_examples=150, deadline=None)
@given(scenarios(),
       st.lists(st.sampled_from(["scalar", "numpy", "compiled"]),
                min_size=1, max_size=4))
def test_batched_paths_match_model(scenario, backends):
    """Runs between invalidations replay as one ``access_many`` batch,
    each on the next backend in turn, so holes left by
    ``invalidate_line`` and state left by one engine reach the others."""
    geometry, ops = scenario
    cache, model = _pair(geometry, classify_misses=False)
    evictions = batches = 0
    run: list[tuple[str, int]] = []
    for op, line in ops + [("invalidate", -1)]:
        if op != "invalidate":
            run.append((op, line))
            continue
        if run:
            lines = np.array([entry[1] for entry in run], dtype=np.int64)
            writes = np.array([entry[0] == "write" for entry in run])
            batch = cache.access_many(
                lines, writes, return_hits=True,
                backend=backends[batches % len(backends)],
            )
            batches += 1
            expected = [model.access(int(x), bool(w))
                        for x, w in zip(lines, writes)]
            assert batch.hits.tolist() == [e[0] for e in expected]
            evictions += sum(e[1] is not None for e in expected)
            run = []
        if line >= 0:
            assert cache.invalidate_line(line) == model.invalidate(line)
    assert cache.stats.evictions == evictions
    assert cache.resident_lines() == model.resident_lines()


def test_compiled_replay_fills_holes_first():
    """The kernel fills a hole left by ``invalidate_line``; the next
    scalar fill must then take the set's remaining free way, not the
    filled hole, or the two lines would share a way."""
    cache = SetAssociativeCache(num_sets=1, num_ways=4,
                                classify_misses=False)
    for line in (0, 1, 2):
        cache.access(line)
    cache.invalidate_line(0)
    cache.access_many([3], backend="compiled")
    cache.access(4)
    batch = cache.access_many([1, 2, 3, 4], return_hits=True,
                              backend="compiled")
    assert batch.hits.tolist() == [True] * 4


def test_build_and_reset_do_not_scale_with_sets():
    start = time.process_time()
    for _ in range(5):
        DirectMappedCache(num_lines=2**20).reset()
    assert time.process_time() - start < 1.5


def test_fully_associative_replay_does_not_scale_with_ways():
    """The trace of the associativity ablation: 24 576 references."""
    trace = Trace(description="stride spectrum")
    for i, stride in enumerate(ASSOC_STRIDES):
        trace.extend(strided(i * (1 << 20), stride, ASSOC_VECTOR_LENGTH,
                             sweeps=2))
    cache = FullyAssociativeCache(num_lines=8192)
    start = time.process_time()
    result = replay(trace, cache)
    elapsed = time.process_time() - start
    assert (result.stats.hits, result.stats.conflict_misses) == (12288, 0)
    assert elapsed < 1.0
