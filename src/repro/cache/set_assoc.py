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
from repro.cache.stats import MissKind

__all__ = ["SetAssociativeCache"]

# template for the (classifier-less) batched replay's zero kind counts;
# copied per call so callers may own the returned dict
_ZERO_KINDS = {kind: 0 for kind in MissKind}


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
        # One-way batched replay keeps residency in a numpy mirror
        # (resident line per set, -1 empty, plus a dirty bitmap) so whole
        # batches never touch the per-set dicts.  ``_mirror_ok`` marks the
        # mirror as current; ``_dicts_stale`` marks the dicts as behind
        # the mirror (every scalar-path reader syncs them back first).
        self._mirror: np.ndarray | None = None
        self._mirror_dirty: np.ndarray | None = None
        self._mirror_ok = False
        self._dicts_stale = False
        # scratch for the replay's duplicate-set test (content carries no
        # meaning between calls; only same-call writes are read back)
        self._replay_scratch: np.ndarray | None = None

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
        """Bring the one-way residency mirror up to date; returns it."""
        if self._mirror is None:
            self._mirror = np.full(self.num_sets, -1, dtype=np.int64)
            self._mirror_dirty = np.zeros(self.num_sets, dtype=bool)
        if not self._mirror_ok:
            mirror, mirror_dirty = self._mirror, self._mirror_dirty
            mirror.fill(-1)
            mirror_dirty.fill(False)
            for set_index, resident in self._sets.items():
                for line in resident:
                    mirror[set_index] = line
                    mirror_dirty[set_index] = line in self._dirty
            self._mirror_ok = True
        return self._mirror

    def _sync_dicts(self) -> None:
        """Rebuild the per-set dicts from the mirror after batched replay
        left them behind (every scalar-path reader calls this first)."""
        if not self._dicts_stale:
            return
        self._dicts_stale = False
        mirror = self._mirror
        resident = np.flatnonzero(mirror >= 0)
        self._sets = {
            set_index: {line: 0}
            for set_index, line in zip(resident.tolist(),
                                       mirror[resident].tolist())
        }
        self._dirty = set(mirror[self._mirror_dirty].tolist())

    def _replay_premapped_arrays(self, lines, sets, want_hits: bool,
                                 backend: str):
        # Read-only one-way replay in closed form: with a single way and
        # no classifier, the set's content before access i is simply the
        # line of the most recent earlier access to the same set (every
        # access, hit or miss, leaves its own line resident).  A stable
        # sort by set index makes that predecessor the previous element
        # of each sort group, so the whole hit bitmap is one comparison,
        # evaluated against the numpy residency mirror — no dict traffic.
        if (
            self.num_ways != 1
            or self._classifier is not None
            or not isinstance(self.policy, (LRUPolicy, FIFOPolicy))
        ):
            return None
        n = lines.size
        kind_counts = dict(_ZERO_KINDS)
        if n == 0:
            return 0, 0, 0, kind_counts, np.empty(0, dtype=bool)
        mirror = self._load_mirror()
        prev_unsorted = mirror[sets]
        hits_vs_mirror = lines == prev_unsorted
        if hits_vs_mirror.all():
            # Every access matches current residency, so the sequential
            # replay is all hits even with repeated sets (a repeat keeps
            # re-installing the very same line) and no state changes —
            # the steady-state sweep case, settled with no sort at all.
            return (n, 0, 0, kind_counts,
                    hits_vs_mirror if want_hits else None)
        if self._replay_scratch is None:
            self._replay_scratch = np.empty(self.num_sets, dtype=np.intp)
        scratch = self._replay_scratch
        idx = np.arange(n)
        scratch[sets] = idx
        if bool((scratch[sets] == idx).all()):
            # No set repeats inside the batch (scatter-then-gather read
            # every index back unchanged), so each access's predecessor is
            # the mirror itself and the replay needs no sort at all.
            hits = hits_vs_mirror
            hit_count = int(np.count_nonzero(hits))
            miss = ~hits
            evictions = int(np.count_nonzero(miss & (prev_unsorted >= 0)))
            mirror[sets] = lines
            self._mirror_dirty[sets[miss]] = False
            self._dicts_stale = True
            return (hit_count, n - hit_count, evictions, kind_counts,
                    hits if want_hits else None)
        order = np.argsort(sets, kind="stable")
        sorted_sets = sets[order]
        sorted_lines = lines[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=first[1:])
        prev = np.empty(n, dtype=np.int64)
        prev[1:] = sorted_lines[:-1]
        prev[first] = mirror[sorted_sets[first]]
        hits_sorted = sorted_lines == prev
        hit_count = int(np.count_nonzero(hits_sorted))
        miss_count = n - hit_count
        evictions = int(np.count_nonzero(~hits_sorted & (prev >= 0)))
        hits = None
        if want_hits:
            hits = np.empty(n, dtype=bool)
            hits[order] = hits_sorted
        if miss_count:
            # The last access of each sort group leaves its line resident;
            # a set's dirty mark survives only if the whole group hit
            # (reads never dirty, and every miss installs a clean line).
            last = np.empty(n, dtype=bool)
            last[-1] = True
            last[:-1] = first[1:]
            group_missed = np.logical_or.reduceat(
                ~hits_sorted, np.flatnonzero(first)
            )
            touched = sorted_sets[last]
            mirror[touched] = sorted_lines[last]
            self._mirror_dirty[touched[group_missed]] = False
            self._dicts_stale = True
        return hit_count, miss_count, evictions, kind_counts, hits

    def _kernel_set_mode(self) -> tuple[int, int] | None:
        """``(set_mode, set_param)`` for :mod:`repro.kernels`, or ``None``
        when the subclass changed the index function without providing a
        kernel form (the prime cache overrides this with the Mersenne
        mode)."""
        if type(self).set_of is not SetAssociativeCache.set_of:
            return None
        if self.num_sets & (self.num_sets - 1) == 0:
            return kernels.SET_MODE_MASK, self.num_sets - 1
        return kernels.SET_MODE_MOD, self.num_sets

    def _replay_compiled(self, lines, writes, want_hits: bool):
        mode = self._kernel_set_mode()
        lru = isinstance(self.policy, LRUPolicy)
        if (
            mode is None
            or self._classifier is not None
            or not (lru or isinstance(self.policy, FIFOPolicy))
        ):
            return None
        set_mode, set_param = mode
        hits_arr = np.empty(lines.size, dtype=bool) if want_hits else None
        if self.num_ways == 1:
            # The kernel advances the numpy residency mirror in place, so
            # chunked streaming pays no per-call state rebuild; the dicts
            # go stale exactly as after the closed-form numpy replay.
            current = self._load_mirror()
            h, m, e = kernels.replay_oneway(
                lines, writes, set_mode, set_param, self.write_allocate,
                current, self._mirror_dirty, hits_arr,
            )
            if m or writes is not None:
                self._dicts_stale = True
            return h, m, e, hits_arr
        # N-way: flatten the filled sets into [set, way] arrays (stamp =
        # position in the set's dict + 1, so the minimum stamp is the
        # first entry == the policy victim), run the kernel, then rebuild
        # the dicts of every set that holds a line afterwards.
        num_sets, num_ways = self.num_sets, self.num_ways
        tags = np.full(num_sets * num_ways, -1, dtype=np.int64)
        stamps = np.zeros(num_sets * num_ways, dtype=np.int64)
        dirty = np.zeros(num_sets * num_ways, dtype=np.uint8)
        slots: list[int] = []
        resident_lines: list[int] = []
        positions: list[int] = []
        for set_index, resident in self._sets.items():
            base = set_index * num_ways
            for pos, (line, way) in enumerate(resident.items(), 1):
                slots.append(base + way)
                resident_lines.append(line)
                positions.append(pos)
        tags[slots] = resident_lines
        stamps[slots] = positions
        dirty[slots] = [line in self._dirty for line in resident_lines]
        h, m, e, _ = kernels.replay_assoc(
            lines, writes, set_mode, set_param, num_ways,
            self.write_allocate, lru, num_ways + 1,
            tags, stamps, dirty, hits_arr,
        )
        # Sorting a set's ways by stamp recovers its recency order:
        # untouched lines keep their small build stamps, touched ones
        # carry the kernel's monotonic ticks above them.
        grid = tags.reshape(num_sets, num_ways)
        filled = np.flatnonzero((grid >= 0).any(axis=1))
        order = np.argsort(
            stamps.reshape(num_sets, num_ways)[filled], axis=1, kind="stable"
        )
        self._sets = {
            set_index: {row[w]: w for w in ways if row[w] >= 0}
            for set_index, ways, row in zip(
                filled.tolist(), order.tolist(), grid[filled].tolist()
            )
        }
        self._dirty = set(tags[dirty != 0].tolist())
        # The kernel also fills the lowest empty way, so a freed way is
        # still a hole exactly when the kernel left it empty.
        holes = {}
        for set_index, heap in self._holes.items():
            free = sorted(w for w in heap if grid[set_index, w] < 0)
            if free:
                holes[set_index] = free
        self._holes = holes
        return h, m, e, hits_arr

    def _replay_premapped(self, lines, sets, writes, hits_out, kinds_out):
        # Direct-mapped fast path: with one way, no classifier and a
        # deterministic (state-inert at 1 way) replacement policy, the
        # whole access state machine collapses to "is the set's current
        # line this line" — run it over plain lists drawn from the numpy
        # mirror, which it leaves current like the other one-way paths.
        if (
            self.num_ways != 1
            or self._classifier is not None
            or kinds_out is not None
            or not isinstance(self.policy, (LRUPolicy, FIFOPolicy))
        ):
            self._sync_dicts()
            return super()._replay_premapped(
                lines, sets, writes, hits_out, kinds_out
            )
        mirror = self._load_mirror()
        current = mirror.tolist()
        dirty = self._mirror_dirty.tolist()
        hit_count = miss_count = evictions = 0
        write_allocate = self.write_allocate
        append = hits_out.append if hits_out is not None else None
        for i in range(len(lines)):
            line = lines[i]
            set_index = sets[i]
            write = writes is not None and writes[i]
            if current[set_index] == line:
                hit_count += 1
                if write:
                    dirty[set_index] = True
                if append is not None:
                    append(True)
            else:
                miss_count += 1
                if not write or write_allocate:
                    if current[set_index] >= 0:
                        evictions += 1
                    current[set_index] = line
                    dirty[set_index] = write
                if append is not None:
                    append(False)
        touched = list(set(sets))
        mirror[touched] = [current[s] for s in touched]
        self._mirror_dirty[touched] = [dirty[s] for s in touched]
        self._dicts_stale = True
        return hit_count, miss_count, evictions, dict(_ZERO_KINDS)

    def _lookup(self, line_address: int, set_index: int) -> bool:
        if self._dicts_stale:
            self._sync_dicts()
        return line_address in self._sets.get(set_index, ())

    def _touch(self, line_address: int, set_index: int) -> None:
        if self._dicts_stale:
            self._sync_dicts()
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
