"""Set-associative cache (the general engine behind all organisations).

A cache with ``num_sets`` sets of ``num_ways`` ways.  Direct-mapped and
fully-associative caches are the two degenerate corners (``num_ways == 1``
and ``num_sets == 1``) and are provided as thin subclasses in their own
modules; the prime-mapped cache overrides only the set-index function.

Tags are stored as *full line addresses*.  For conventional power-of-two
indexing that is exactly equivalent to storing the architectural tag field
(index is a bit-slice, so line address == tag << c | index); for the prime
cache it is equivalent up to one disambiguation bit — see
:mod:`repro.cache.prime` for the accounting.

Residency is kept so that construction, :meth:`~repro.cache.base.Cache.reset`
and each access do the same Python work at any set count and
associativity:

* **Per-set state is built on first fill.**  A set gets its ``line -> way``
  dict when its first line is installed; dirty lines are one cache-wide
  set of line addresses.  A new or reset cache holds no per-set objects,
  so neither construction nor reset walks the sets, and the batched
  paths below walk only the sets that hold a line.
* **LRU/FIFO recency is the dict's insertion order.**  A fill appends its
  line, an LRU hit moves its line back to the end, and LRU and FIFO evict
  the first entry (:mod:`repro.cache.replacement`).  No recency stack is
  kept beside the dict.  Reaching the first entry skips the slots that
  deletions left at the front of the dict until its next resize compacts
  it, a C-level scan that grows with the associativity.
* **A fill takes the lowest free way.**  Without invalidations a set's
  lines hold ways ``0, 1, 2, ...``, so the free way is the set's line
  count; a set where :meth:`~SetAssociativeCache.invalidate_line` left a
  hole keeps a heap of its freed ways instead.  The rule is observable:
  the random policy draws victim *way indices* (and searches the set for
  the line in that way, its one O(ways) step), the column-associative
  cache counts hits by way, and the compiled kernels fill the lowest
  empty way, so every engine must agree on where each line sits.
* **Batched replay keeps a mirror of its own.**  The compiled kernels
  advance flattened numpy arrays across batches (per ``[set, way]``
  slot: resident line and dirty bit, plus a recency stamp in N-way
  caches; a :class:`~repro.cache.hierarchy.TwoLevelCache` replays both
  of its levels' mirrors in one pass); the dicts and the mirror are each
  rebuilt from the other only after the other side changed residency.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro import kernels
from repro.cache.base import Cache
from repro.cache.replacement import (
    FIFOPolicy,
    LRUPolicy,
    ReplacementPolicy,
    make_policy,
)

__all__ = ["ASSOC_SCAN_WAYS", "SetAssociativeCache"]

#: Most ways an N-way batch replays through :func:`repro.kernels.replay_assoc`,
#: which scans every way of the set on each access; above it the per-set
#: dict loop, whose cost does not grow with the ways, is faster.  Measured
#: on a 2-vCPU x86-64 host, generated C live: an unclassified stride-8
#: vector of 4096 words swept twice through a fully-associative cache,
#: k refs/s of the kernel against the dict loop, three runs each:
#: 512 ways 1159/770, 787/1025, 1097/997; 768 ways 763/530, 596/484,
#: 894/709; 1024 ways 536/647, 448/575, 654/618; 1536 ways 392/533,
#: 332/480; 2048 ways 351/596; 8192 ways 333/2186.
ASSOC_SCAN_WAYS = 768


class SetAssociativeCache(Cache):
    """N-way set-associative cache with a pluggable replacement policy.

    Args:
        num_sets: number of sets (power of two for the conventional cache;
            subclasses may relax this).
        num_ways: associativity.
        line_size_words: words per line (power of two).
        policy: a :class:`~repro.cache.replacement.ReplacementPolicy`
            instance, or a name (``"lru"``/``"fifo"``/``"random"``).

    Example:
        >>> cache = SetAssociativeCache(num_sets=4, num_ways=2)
        >>> cache.access(0).hit, cache.access(0).hit
        (False, True)
    """

    #: whether ``num_sets`` must be a power of two (the prime cache relaxes it)
    _require_pow2_sets = True

    def __init__(
        self,
        num_sets: int,
        num_ways: int,
        line_size_words: int = 1,
        *,
        policy: ReplacementPolicy | str = "lru",
        classify_misses: bool = True,
        write_allocate: bool = True,
    ) -> None:
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("num_sets and num_ways must be positive")
        if self._require_pow2_sets and num_sets & (num_sets - 1):
            raise ValueError(
                "num_sets must be a power of two for conventional indexing"
            )
        super().__init__(
            num_sets * num_ways,
            line_size_words,
            classify_misses=classify_misses,
            write_allocate=write_allocate,
        )
        self.num_sets = num_sets
        self.num_ways = num_ways
        if isinstance(policy, str):
            policy = make_policy(policy, num_sets, num_ways)
        if policy.num_sets != num_sets or policy.num_ways != num_ways:
            raise ValueError("policy geometry does not match the cache")
        self.policy = policy
        # set index -> {line: way}, oldest entry first; only filled sets
        self._sets: dict[int, dict[int, int]] = {}
        # dirty resident lines (a line lives in exactly one set)
        self._dirty: set[int] = set()
        # set index -> min-heap of ways invalidate_line freed below the
        # set's highest filled way; only sets with such holes appear
        self._holes: dict[int, list[int]] = {}
        # Batched replay keeps residency in a numpy mirror of the
        # flattened [set, way] slots (resident line, -1 empty, plus a
        # dirty bitmap, and for N-way caches the recency stamps the
        # kernel's victim choice reads) so whole batches never touch the
        # per-set dicts.  ``_mirror_ok`` marks the mirror as current;
        # ``_dicts_stale`` marks the dicts as behind the mirror (every
        # scalar-path reader syncs them back first).
        self._mirror: np.ndarray | None = None
        self._mirror_dirty: np.ndarray | None = None
        self._mirror_stamps: np.ndarray | None = None
        self._tick = 0              # next N-way stamp
        self._mirror_ok = False
        self._dicts_stale = False

    def set_of(self, line_address: int) -> int:
        """Conventional indexing: low bits of the line address."""
        return line_address % self.num_sets

    def _map_sets_batch(self, lines: np.ndarray) -> np.ndarray:
        if type(self).set_of is not SetAssociativeCache.set_of:
            # A subclass changed the index function without providing a
            # vectorised version: fall back to the per-element loop.
            return Cache._map_sets_batch(self, lines)
        if self.num_sets & (self.num_sets - 1) == 0:
            return lines & (self.num_sets - 1)
        return lines % self.num_sets

    def _load_mirror(self) -> np.ndarray:
        """Bring the residency mirror up to date; returns it.

        An N-way rebuild stamps each set's lines 1, 2, ... in dict order,
        so the minimum stamp is the dict's first entry, the policy's
        victim; the kernel's ticks continue above them.
        """
        ways = self.num_ways
        if self._mirror is None:
            size = self.num_sets * ways
            self._mirror = np.full(size, -1, dtype=np.int64)
            self._mirror_dirty = np.zeros(size, dtype=bool)
            if ways > 1:
                self._mirror_stamps = np.zeros(size, dtype=np.int64)
        if not self._mirror_ok:
            mirror, mirror_dirty = self._mirror, self._mirror_dirty
            mirror.fill(-1)
            mirror_dirty.fill(False)
            slots: list[int] = []
            resident_lines: list[int] = []
            positions: list[int] = []
            for set_index, resident in self._sets.items():
                base = set_index * ways
                for pos, (line, way) in enumerate(resident.items(), 1):
                    slots.append(base + way)
                    resident_lines.append(line)
                    positions.append(pos)
            mirror[slots] = resident_lines
            mirror_dirty[slots] = [line in self._dirty
                                   for line in resident_lines]
            if ways > 1:
                self._mirror_stamps.fill(0)
                self._mirror_stamps[slots] = positions
                self._tick = ways + 1
            self._mirror_ok = True
        return self._mirror

    def _sync_dicts(self) -> None:
        """Rebuild the per-set dicts from the mirror after batched replay
        left them behind (every scalar-path reader calls this first)."""
        if not self._dicts_stale:
            return
        self._dicts_stale = False
        mirror = self._mirror
        self._dirty = set(mirror[self._mirror_dirty].tolist())
        if self.num_ways == 1:
            resident = np.flatnonzero(mirror >= 0)
            self._sets = {
                set_index: {line: 0}
                for set_index, line in zip(resident.tolist(),
                                           mirror[resident].tolist())
            }
            return
        # Sorting a set's ways by stamp recovers its recency order:
        # untouched lines keep their small rebuild stamps, touched ones
        # carry the kernel's monotonic ticks above them.
        num_sets, num_ways = self.num_sets, self.num_ways
        grid = mirror.reshape(num_sets, num_ways)
        filled = np.flatnonzero((grid >= 0).any(axis=1))
        order = np.argsort(
            self._mirror_stamps.reshape(num_sets, num_ways)[filled],
            axis=1, kind="stable")
        self._sets = {
            set_index: {row[w]: w for w in ways if row[w] >= 0}
            for set_index, ways, row in zip(
                filled.tolist(), order.tolist(), grid[filled].tolist())
        }
        # A hole is an empty way below its set's highest filled way (the
        # kernels fill the lowest empty way, and a hierarchy's
        # back-invalidation empties a way anywhere in a set); a sorted
        # list is a valid heap.
        occupied = grid[filled] >= 0
        top = num_ways - 1 - np.argmax(occupied[:, ::-1], axis=1)
        gaps = ~occupied & (np.arange(num_ways) < top[:, None])
        rows = np.flatnonzero(gaps.any(axis=1))
        self._holes = {
            set_index: np.flatnonzero(gaps[row]).tolist()
            for row, set_index in zip(rows.tolist(), filled[rows].tolist())
        }

    def _replay_compiled(self, lines, sets, writes, want_hits: bool):
        lru = isinstance(self.policy, LRUPolicy)
        if not (lru or isinstance(self.policy, FIFOPolicy)):
            return None
        hits_arr = np.empty(lines.size, dtype=bool) if want_hits else None
        if self.num_ways == 1:
            # The kernel advances the numpy residency mirror in place, so
            # chunked streaming pays no per-call state rebuild; the dicts
            # go stale until a scalar-path reader syncs them back.
            h, m, e = kernels.replay_oneway(
                lines, sets, writes, self.write_allocate,
                self._load_mirror(), self._mirror_dirty, hits_arr,
            )
            if m or writes is not None:
                self._dicts_stale = True
            return h, m, e, hits_arr
        if (self.num_ways > ASSOC_SCAN_WAYS
                or not kernels.has_compiled_provider()):
            # Without generated C, or past the way scan's break-even
            # associativity, the per-set dict loop is the faster engine.
            return None
        mirror = self._load_mirror()      # (re)sets the tick on a rebuild
        h, m, e, self._tick = kernels.replay_assoc(
            lines, sets, writes, self.num_ways, self.write_allocate, lru,
            self._tick, mirror, self._mirror_stamps, self._mirror_dirty,
            hits_arr,
        )
        if lines.size:
            self._dicts_stale = True
        return h, m, e, hits_arr

    def _lookup(self, line_address: int, set_index: int) -> bool:
        if self._dicts_stale:
            self._sync_dicts()
        return line_address in self._sets.get(set_index, ())

    def _touch(self, line_address: int, set_index: int) -> None:
        if self._dicts_stale:
            self._sync_dicts()
        if self.num_ways > 1:
            self._mirror_ok = False     # the hit may reorder the set
        self.policy.on_hit(self._sets[set_index], line_address)

    def _mark_dirty(self, line_address: int, set_index: int) -> None:
        if self._dicts_stale:
            self._sync_dicts()
        self._mirror_ok = False
        self._dirty.add(line_address)

    def _fill(
        self, line_address: int, set_index: int, dirty: bool
    ) -> tuple[int | None, bool]:
        if self._dicts_stale:
            self._sync_dicts()
        self._mirror_ok = False
        resident = self._sets.get(set_index)
        if resident is None:
            resident = self._sets[set_index] = {}
        if len(resident) < self.num_ways:
            holes = self._holes.get(set_index) if self._holes else None
            if holes is None:
                way = len(resident)
            else:
                way = heapq.heappop(holes)
                if not holes:
                    del self._holes[set_index]
            victim, victim_dirty = None, False
        else:
            victim = self.policy.victim(resident)
            way = resident.pop(victim)
            victim_dirty = victim in self._dirty
            if victim_dirty:
                self._dirty.remove(victim)
        resident[line_address] = way
        if dirty:
            self._dirty.add(line_address)
        return victim, victim_dirty

    def invalidate_line(self, line_address: int) -> bool:
        """Remove one line if resident; returns whether it was dirty.

        The back-invalidation hook of inclusive hierarchies: when an
        outer level evicts a line, the inner level must drop its copy.
        The freed way is free again: unless it was the top way of a set
        without holes (or the set is now empty), it joins the set's heap
        of holes, which :meth:`_fill` hands out lowest first.
        """
        if self._dicts_stale:
            self._sync_dicts()
        set_index = self.set_of(line_address)
        resident = self._sets.get(set_index)
        if resident is None or line_address not in resident:
            return False
        self._mirror_ok = False
        way = resident.pop(line_address)
        if not resident:
            self._holes.pop(set_index, None)
        elif way != len(resident) or set_index in self._holes:
            heapq.heappush(self._holes.setdefault(set_index, []), way)
        was_dirty = line_address in self._dirty
        self._dirty.discard(line_address)
        return was_dirty

    def resident_lines(self) -> set[int]:
        if self._dicts_stale:
            self._sync_dicts()
        return {line for resident in self._sets.values() for line in resident}

    def invalidate_all(self) -> None:
        self._sets.clear()
        self._dirty.clear()
        self._holes.clear()
        self._dicts_stale = False
        self._mirror_ok = False
        self.policy.reset()

    def describe(self) -> str:
        """One-line human-readable geometry summary."""
        return (
            f"{type(self).__name__}(sets={self.num_sets}, ways={self.num_ways}, "
            f"line={self.line_size_words}w, lines={self.total_lines})"
        )
