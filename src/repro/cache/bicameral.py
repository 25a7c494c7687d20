"""Bicameral cache: split vector/scalar halves with independent geometry.

A modern answer (arXiv 2407.15440) to the same pathology the 1992 paper
attacks: vector sweeps and scalar working sets fight for the same sets
in a unified cache, so the design *partitions* the storage instead —
one half (its own sets, ways, policy) serves scalar references, the
other serves vector references, and neither can evict the other's
lines.  Here the routing oracle is explicit: callers register the word
address ranges that hold vector data with :meth:`mark_vector`; every
unmarked reference routes to the scalar half (real hardware routes on
instruction type, which the trace does not carry).

The vector half may itself use any index mapping — in particular the
paper's prime mapping, giving "bicameral isolation + Mersenne
conflict-freedom" as a single organisation to race against the plain
prime cache on the figure sweeps (the ``zoo-bicameral-vs-prime`` job).

Composite geometry: the cache exposes one combined set-index space,
scalar sets ``[0, scalar_sets)`` and vector sets offset by
``scalar_sets``, so the generic batched replay, statistics, and
classifier machinery of :class:`repro.cache.base.Cache` apply
unchanged.  The compiled replay partitions a batch by the routing mask
and delegates each half's subsequence to that half's own
``access_many`` — legal because the halves share no state, so any
interleaving of the two subsequences replays identically.
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import Cache
from repro.cache.prime import PrimeMappedCache
from repro.cache.set_assoc import SetAssociativeCache

__all__ = ["BicameralCache"]


class BicameralCache(Cache):
    """Split-half cache: scalar sets + vector sets, routed by address range.

    Args:
        scalar_sets: sets in the scalar half (power of two).
        scalar_ways: associativity of the scalar half.
        vector_c: geometry of the vector half — with
            ``vector_mapping="prime"`` the half is a
            :class:`PrimeMappedCache` of ``2**vector_c - 1`` sets; with
            ``"direct"`` it is a conventional half of ``2**vector_c``
            sets.
        vector_ways: associativity of the vector half.
        vector_mapping: ``"prime"`` or ``"direct"``.

    Example:
        >>> cache = BicameralCache(scalar_sets=4, vector_c=3,
        ...                        classify_misses=False)
        >>> cache.mark_vector(100, 200)
        >>> cache.access(100).set_index >= 4   # routed to the vector half
        True
        >>> cache.access(0).set_index < 4      # unmarked: scalar half
        True
    """

    def __init__(
        self,
        scalar_sets: int,
        vector_c: int,
        line_size_words: int = 1,
        *,
        scalar_ways: int = 1,
        vector_ways: int = 1,
        vector_mapping: str = "prime",
        scalar_policy: str = "lru",
        classify_misses: bool = True,
        write_allocate: bool = True,
    ) -> None:
        if vector_mapping not in ("prime", "direct"):
            raise ValueError(
                f"vector_mapping must be 'prime' or 'direct', "
                f"got {vector_mapping!r}"
            )
        # the halves simulate at line granularity (they are fed line
        # addresses); the composite cache owns the word->line shift
        scalar = SetAssociativeCache(
            num_sets=scalar_sets,
            num_ways=scalar_ways,
            policy=scalar_policy,
            classify_misses=False,
            write_allocate=write_allocate,
        )
        if vector_mapping == "prime":
            vector: SetAssociativeCache = PrimeMappedCache(
                c=vector_c,
                ways=vector_ways,
                classify_misses=False,
                write_allocate=write_allocate,
            )
        else:
            vector = SetAssociativeCache(
                num_sets=2 ** vector_c,
                num_ways=vector_ways,
                classify_misses=False,
                write_allocate=write_allocate,
            )
        super().__init__(
            scalar.total_lines + vector.total_lines,
            line_size_words,
            classify_misses=classify_misses,
            write_allocate=write_allocate,
        )
        self.scalar = scalar
        self.vector = vector
        self.vector_mapping = vector_mapping
        #: first set index of the vector half in the combined index space
        self.boundary = scalar.num_sets
        # sorted, merged, half-open line-address ranges routed to the
        # vector half, flattened [lo0, hi0, lo1, hi1, ...] so membership
        # is one searchsorted (odd insertion slot = inside a range)
        self._vector_bounds = np.empty(0, dtype=np.int64)

    # -- routing -------------------------------------------------------------

    def mark_vector(self, lo_word: int, hi_word: int) -> None:
        """Route word addresses in ``[lo_word, hi_word)`` to the vector half.

        Ranges may be registered in any order and may overlap; they are
        merged.  Routing must be configured before the addresses are
        referenced — re-routing a resident line would strand it.
        """
        if not 0 <= lo_word < hi_word:
            raise ValueError("need 0 <= lo_word < hi_word")
        lo_line = lo_word >> self._offset_bits
        hi_line = (hi_word + self.line_size_words - 1) >> self._offset_bits
        ranges = self._vector_bounds.reshape(-1, 2).tolist()
        ranges.append([lo_line, hi_line])
        ranges.sort()
        merged = [ranges[0]]
        for lo, hi in ranges[1:]:
            if lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        self._vector_bounds = np.asarray(merged, dtype=np.int64).reshape(-1)

    def _is_vector_line(self, line_address: int) -> bool:
        slot = int(np.searchsorted(self._vector_bounds, line_address,
                                   side="right"))
        return bool(slot & 1)

    def vector_mask(self, addresses) -> np.ndarray:
        """Per-word-address routing mask: ``True`` where the reference is
        served by the vector half (for per-half metric splits)."""
        addrs = np.asarray(addresses, dtype=np.int64)
        lines = addrs >> self._offset_bits if self._offset_bits else addrs
        return self._line_vector_mask(lines)

    def _line_vector_mask(self, lines: np.ndarray) -> np.ndarray:
        slots = np.searchsorted(self._vector_bounds, lines, side="right")
        return (slots & 1).astype(bool)

    # -- index mapping -------------------------------------------------------

    def set_of(self, line_address: int) -> int:
        if self._is_vector_line(line_address):
            return self.boundary + self.vector.set_of(line_address)
        return self.scalar.set_of(line_address)

    def _map_sets_batch(self, lines: np.ndarray) -> np.ndarray:
        mask = self._line_vector_mask(lines)
        sets = np.empty(lines.size, dtype=np.int64)
        scalar_side = ~mask
        if scalar_side.any():
            sets[scalar_side] = self.scalar._map_sets_batch(
                lines[scalar_side])
        if mask.any():
            sets[mask] = self.boundary + self.vector._map_sets_batch(
                lines[mask])
        return sets

    # -- residency: route on which half owns the combined set index ----------

    def _half(self, set_index: int) -> tuple[SetAssociativeCache, int]:
        if set_index < self.boundary:
            return self.scalar, set_index
        return self.vector, set_index - self.boundary

    def _lookup(self, line_address: int, set_index: int) -> bool:
        half, local = self._half(set_index)
        return half._lookup(line_address, local)

    def _touch(self, line_address: int, set_index: int) -> None:
        half, local = self._half(set_index)
        half._touch(line_address, local)

    def _mark_dirty(self, line_address: int, set_index: int) -> None:
        half, local = self._half(set_index)
        half._mark_dirty(line_address, local)

    def _fill(
        self, line_address: int, set_index: int, dirty: bool
    ) -> tuple[int | None, bool]:
        half, local = self._half(set_index)
        return half._fill(line_address, local, dirty)

    def resident_lines(self) -> set[int]:
        return self.scalar.resident_lines() | self.vector.resident_lines()

    def invalidate_all(self) -> None:
        self.scalar.invalidate_all()
        self.vector.invalidate_all()

    # -- compiled replay: one kernel call per half --------------------------

    def _replay_compiled(self, lines, sets, writes, want_hits: bool):
        # Split the batch by half and hand each subsequence to that half's
        # own compiled replay.  The halves share no state, so replaying
        # them one after the other is bit-for-bit the interleaved
        # sequential replay.  The halves' own ``stats`` see only batches
        # routed this way — per-half metrics come from
        # :meth:`vector_mask` instead.  The halves are unclassified; the
        # composite's classifier labels the whole batch afterwards.
        mask = sets >= self.boundary
        hit_count = miss_count = evictions = 0
        hits_arr = np.empty(lines.size, dtype=bool) if want_hits else None
        for half, side in ((self.scalar, ~mask), (self.vector, mask)):
            if not side.any():
                continue
            batch = half.access_many(
                lines[side], None if writes is None else writes[side],
                return_hits=want_hits, backend="compiled")
            hit_count += batch.delta.hits
            miss_count += batch.delta.misses
            evictions += batch.delta.evictions
            if want_hits:
                hits_arr[side] = batch.hits
        return hit_count, miss_count, evictions, hits_arr

    def describe(self) -> str:
        return (
            f"{type(self).__name__}(scalar={self.scalar.num_sets}x"
            f"{self.scalar.num_ways}, vector={self.vector.num_sets}x"
            f"{self.vector.num_ways} {self.vector_mapping}, "
            f"line={self.line_size_words}w)"
        )
