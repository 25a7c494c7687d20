"""Two-level (L1/L2) inclusive cache hierarchy.

The 1992 paper models a single cache level; this composes two of the
repo's set-associative engines into an inclusive hierarchy so the CC
machine can price a modern L1/L2 miss-penalty composition:

* **L1 hit** — free (level 1 service).
* **L1 miss, L2 hit** — the line is promoted into L1 and the access
  costs :attr:`l2_hit_time` stall cycles (level 2 service; memory
  banks are never touched).
* **both miss** — full memory service (level 0); on allocation the
  line fills L2 *then* L1.

Inclusion is enforced: every L1-resident line is L2-resident.  When L2
evicts a line, the copy is back-invalidated out of L1 (and its L1
dirtiness folded into the writeback); when L1 evicts a dirty line, the
write falls back into L2, whose copy inclusion guarantees.  A property
test and the ``cache-zoo`` oracle sweep the invariant
``l1.resident_lines() <= l2.resident_lines()`` after arbitrary access
mixes.

The hierarchy is a regular organisation: its residency hooks route each
access through both levels (L1 probe, then L2 probe and promotion, or a
fill of L2 then L1), so the generic :meth:`~repro.cache.base.Cache.access`
is its scalar reference.  Batches replay on
:func:`repro.kernels.replay_two_level`, one pass through both levels
over the per-slot mirrors the two :class:`SetAssociativeCache` levels
keep across batches.  A level with random replacement, or with more
ways than :data:`~repro.cache.set_assoc.ASSOC_SCAN_WAYS` (generated C)
or :data:`PYTHON_FORM_WAYS` (the pure-Python provider), sends batches
through the hook loop instead.  The per-level counters ``l1_hits`` and
``l2_hits`` partition ``stats.hits``; the CC machine reads the change
in ``l2_hits`` to price an access that L2 served.

Write semantics match :class:`repro.cache.base.Cache`: a write miss on
a no-allocate hierarchy bypasses both levels and the classifier
entirely.  A store dirties the line's L1 copy; the dirt migrates to the
L2 copy when L1 evicts the line.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.cache.base import Cache
from repro.cache.replacement import FIFOPolicy, LRUPolicy
from repro.cache.set_assoc import ASSOC_SCAN_WAYS, SetAssociativeCache

__all__ = ["PYTHON_FORM_WAYS", "TwoLevelCache"]

#: Most ways a level may have for batches to replay through the
#: pure-Python form of :func:`repro.kernels.replay_two_level` on a host
#: without generated C; past it the hook loop, whose fills do not scan the
#: set, is faster.  Measured on a 2-vCPU x86-64 host, provider
#: ``reference``: random and cyclic stride-3 traces over twice the L2
#: capacity in 4 K-reference batches, unclassified, k refs/s of the
#: Python form against the hook loop, four alternating runs each:
#: 1+1 ways 805/1230/1394/911 vs 288/492/468/535; 2+4 ways
#: 753/624/784/774 vs 518/422/576/572; 4+8 ways 741/668/675/734 vs
#: 573/590/591/577; 8+8 ways 677/452/561/572 vs 441/533/423/462;
#: 8+16 ways 483/486/421/338 vs 383/542/410/425; 16+16 ways
#: 367/330/348/331 vs 478/370/390/434.
PYTHON_FORM_WAYS = 8


class TwoLevelCache(Cache):
    """Inclusive L1/L2 hierarchy over two set-associative levels.

    Args:
        l1_sets / l1_ways: geometry of the inner level.
        l2_sets / l2_ways: geometry of the outer level; total L2
            capacity must cover L1 (inclusion needs the room).
        l2_hit_time: stall cycles the CC machine charges for an access
            served from L2 (a full miss costs the machine's ``t_m``).

    Example:
        >>> cache = TwoLevelCache(l1_sets=2, l2_sets=8,
        ...                       classify_misses=False)
        >>> cache.access(0).hit, cache.access(2).hit
        (False, False)
        >>> cache.access(0).hit   # evicted from L1 only, served by L2
        True
        >>> cache.l1_hits, cache.l2_hits
        (0, 1)
    """

    def __init__(
        self,
        l1_sets: int,
        l2_sets: int,
        line_size_words: int = 1,
        *,
        l1_ways: int = 1,
        l2_ways: int = 1,
        l2_hit_time: int = 4,
        l1_policy: str = "lru",
        l2_policy: str = "lru",
        classify_misses: bool = True,
        write_allocate: bool = True,
    ) -> None:
        if l2_hit_time < 0:
            raise ValueError("l2_hit_time must be non-negative")
        l1 = SetAssociativeCache(
            num_sets=l1_sets, num_ways=l1_ways, policy=l1_policy,
            classify_misses=False, write_allocate=True,
        )
        l2 = SetAssociativeCache(
            num_sets=l2_sets, num_ways=l2_ways, policy=l2_policy,
            classify_misses=False, write_allocate=True,
        )
        if l2.total_lines < l1.total_lines:
            raise ValueError(
                "L2 capacity must be at least L1 capacity for inclusion"
            )
        # hierarchy capacity == L2 capacity (inclusion), which is what
        # the three-C classifier's capacity shadow must use
        super().__init__(
            l2.total_lines,
            line_size_words,
            classify_misses=classify_misses,
            write_allocate=write_allocate,
        )
        self.l1 = l1
        self.l2 = l2
        self.l2_hit_time = l2_hit_time
        #: per-level service counters (l1_hits + l2_hits == stats.hits)
        self.l1_hits = 0
        self.l2_hits = 0

    def set_of(self, line_address: int) -> int:
        """The L1 set index (the hierarchy's front door)."""
        return self.l1.set_of(line_address)

    def _map_sets_batch(self, lines: np.ndarray) -> np.ndarray:
        return self.l1._map_sets_batch(lines)

    # -- residency hooks: the generic ``access`` routes through both levels

    def _lookup(self, line_address: int, set_index: int) -> bool:
        if self.l1._lookup(line_address, set_index):
            return True
        return self.l2._lookup(line_address, self.l2.set_of(line_address))

    def _touch(self, line_address: int, set_index: int) -> None:
        """A hit: refresh L1, or refresh L2 and promote the line."""
        l1, l2 = self.l1, self.l2
        if l1._lookup(line_address, set_index):
            self.l1_hits += 1
            l1._touch(line_address, set_index)
        else:
            self.l2_hits += 1
            l2._touch(line_address, l2.set_of(line_address))
            self._promote(line_address, set_index, dirty=False)

    def _mark_dirty(self, line_address: int, set_index: int) -> None:
        # a hit has just left the line in L1
        self.l1._mark_dirty(line_address, set_index)

    def _fill(self, line_address: int, set_index: int, dirty: bool):
        """A full miss: fill L2, then promote into L1."""
        victim, victim_dirty = self.l2._fill(
            line_address, self.l2.set_of(line_address), dirty=False)
        if victim is not None:
            # inclusion: the L2 victim leaves the hierarchy, taking any L1
            # copy (and its dirtiness) with it
            victim_dirty |= self.l1.invalidate_line(victim)
        self._promote(line_address, set_index, dirty=dirty)
        return victim, victim_dirty

    def _promote(self, line: int, s1: int, *, dirty: bool) -> None:
        """Install the (L2-resident) line into L1; a dirty L1 victim's
        write falls back into the L2 copy inclusion guarantees."""
        v1, v1_dirty = self.l1._fill(line, s1, dirty=dirty)
        if v1 is not None and v1_dirty:
            sv = self.l2.set_of(v1)
            if self.l2._lookup(v1, sv):
                self.l2._mark_dirty(v1, sv)

    def _replay_compiled(self, lines, sets, writes, want_hits: bool):
        max_ways = (ASSOC_SCAN_WAYS if kernels.has_compiled_provider()
                    else PYTHON_FORM_WAYS)
        levels = []
        for level in (self.l1, self.l2):
            lru = isinstance(level.policy, LRUPolicy)
            if (level.num_ways > max_ways
                    or not (lru or isinstance(level.policy, FIFOPolicy))):
                return None
            mirror = level._load_mirror()  # (re)sets the tick on a rebuild
            levels.append((level.num_ways, lru, level._tick, mirror,
                           level._mirror_stamps, level._mirror_dirty))
        hits_arr = np.empty(lines.size, dtype=bool) if want_hits else None
        h, m, e, l2_hits, self.l1._tick, self.l2._tick = (
            kernels.replay_two_level(lines, sets, writes, self.write_allocate,
                                     *levels, hits_arr))
        if lines.size:
            self.l1._dicts_stale = self.l2._dicts_stale = True
        self.l1_hits += h - l2_hits
        self.l2_hits += l2_hits
        return h, m, e, hits_arr

    def resident_lines(self) -> set[int]:
        return self.l2.resident_lines() | self.l1.resident_lines()

    def invalidate_all(self) -> None:
        self.l1.invalidate_all()
        self.l2.invalidate_all()

    def reset(self) -> None:
        super().reset()
        self.l1_hits = 0
        self.l2_hits = 0

    def describe(self) -> str:
        return (
            f"{type(self).__name__}(l1={self.l1.num_sets}x{self.l1.num_ways},"
            f" l2={self.l2.num_sets}x{self.l2.num_ways},"
            f" t_l2={self.l2_hit_time}, line={self.line_size_words}w)"
        )
