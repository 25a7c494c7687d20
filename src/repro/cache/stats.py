"""Cache access statistics and three-C miss classification.

The paper's argument hinges on the miss taxonomy of Hennessy & Patterson:
*compulsory* (first touch), *capacity* (working set exceeds the cache), and
*conflict* (mapping collisions — the self- and cross-interference misses
blocking cannot remove).  Every cache model in :mod:`repro.cache` feeds a
:class:`CacheStats`, and can optionally run a fully-associative LRU shadow
of equal capacity to split misses into the three classes:

* a miss that the shadow also takes on a never-seen line is **compulsory**;
* a miss that the shadow also takes on a previously-seen line is
  **capacity** (even infinite associativity would have evicted it);
* a miss the shadow would have *hit* is **conflict** — the class the
  prime-mapped design attacks.

The shadow answers a reference in one of two ways.  The per-access
:meth:`MissClassifier.classify` of the scalar reference keeps it as an
``OrderedDict``; :meth:`MissClassifier.classify_batch` labels the misses
of a whole batch from one pass of :func:`repro.kernels.stack_hits`
(Mattson stack distances: a line is in a ``C``-line LRU shadow exactly
when fewer than ``C`` distinct lines were referenced since its last use).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro import kernels

__all__ = [
    "CLASSIFY_CHUNK",
    "MISS_KIND_CODES",
    "CacheStats",
    "MissClassifier",
    "MissKind",
]


class MissKind(enum.Enum):
    """Three-C classification of a cache miss."""

    COMPULSORY = "compulsory"
    CAPACITY = "capacity"
    CONFLICT = "conflict"


#: Lines per :func:`repro.kernels.stack_hits` call of
#: :meth:`MissClassifier.classify_batch`.  The generated-C form allocates
#: a hash table and a Fenwick tree over the shadow plus the chunk, so
#: 64 K lines bound that scratch to a few MB whatever the batch size.
CLASSIFY_CHUNK = 1 << 16

#: Integer codes of the per-access miss-kind arrays; code ``0`` means "no
#: kind" (a hit, an unclassified miss, or a bypassed write miss).
MISS_KIND_CODES: dict[MissKind, int] = {
    MissKind.COMPULSORY: 1,
    MissKind.CAPACITY: 2,
    MissKind.CONFLICT: 3,
}


@dataclass
class CacheStats:
    """Running counters for one cache instance.

    All counts are in *accesses* (one per element reference), with misses
    broken out by :class:`MissKind` when the owning cache has a classifier.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    reads: int = 0
    writes: int = 0
    evictions: int = 0
    miss_kinds: dict[MissKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in MissKind}
    )

    @property
    def miss_ratio(self) -> float:
        """Misses per access; 0.0 before any access."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_ratio(self) -> float:
        """Hits per access; 0.0 before any access."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def conflict_misses(self) -> int:
        """Misses classified as conflicts (0 when unclassified)."""
        return self.miss_kinds[MissKind.CONFLICT]

    @property
    def compulsory_misses(self) -> int:
        """Misses classified as compulsory (0 when unclassified)."""
        return self.miss_kinds[MissKind.COMPULSORY]

    @property
    def capacity_misses(self) -> int:
        """Misses classified as capacity (0 when unclassified)."""
        return self.miss_kinds[MissKind.CAPACITY]

    def record(self, hit: bool, write: bool, kind: MissKind | None) -> None:
        """Account one access."""
        self.accesses += 1
        if write:
            self.writes += 1
        else:
            self.reads += 1
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            if kind is not None:
                self.miss_kinds[kind] += 1

    def reset(self) -> None:
        """Zero every counter (used between experiment phases)."""
        self.accesses = self.hits = self.misses = 0
        self.reads = self.writes = self.evictions = 0
        for kind in MissKind:
            self.miss_kinds[kind] = 0


class MissClassifier:
    """Fully-associative LRU shadow used to label misses with a three-C kind.

    Args:
        capacity_lines: total lines of the cache being shadowed; the shadow
            has the same capacity but infinite associativity, which is what
            separates conflict misses from capacity misses.

    The shadow's recency order lives in two forms, each rebuilt from the
    other when it falls behind: the ``OrderedDict`` that :meth:`classify`
    updates, and the oldest-first ``recent`` array that
    :meth:`classify_batch` hands to :func:`repro.kernels.stack_hits`.
    The set of lines ever seen is shared by both.
    """

    def __init__(self, capacity_lines: int) -> None:
        if capacity_lines <= 0:
            raise ValueError("shadow capacity must be positive")
        self.capacity_lines = capacity_lines
        self._lru: OrderedDict[int, None] = OrderedDict()
        self._ever_seen: set[int] = set()
        self._recent = np.empty(0, dtype=np.int64)
        # which forms of the recency order are current
        self._lru_ok = True
        self._recent_ok = True

    def classify(self, line_address: int, real_hit: bool) -> MissKind | None:
        """Update the shadow with this reference and classify a real miss.

        Must be called for *every* access (hits included) so the shadow's
        recency state tracks the reference stream.  Returns ``None`` for a
        real hit, otherwise the :class:`MissKind` of the miss.
        """
        if not self._lru_ok:
            self._lru = OrderedDict.fromkeys(self._recent.tolist())
            self._lru_ok = True
        self._recent_ok = False
        shadow_hit = line_address in self._lru
        if shadow_hit:
            self._lru.move_to_end(line_address)
        else:
            self._lru[line_address] = None
            if len(self._lru) > self.capacity_lines:
                self._lru.popitem(last=False)
        first_touch = line_address not in self._ever_seen
        self._ever_seen.add(line_address)

        if real_hit:
            return None
        if first_touch:
            return MissKind.COMPULSORY
        if shadow_hit:
            return MissKind.CONFLICT
        return MissKind.CAPACITY

    def classify_batch(self, lines: np.ndarray, hits: np.ndarray) -> np.ndarray:
        """:meth:`classify` over a batch; returns ``uint8`` kind codes.

        ``lines`` are the line addresses of accesses that feed the shadow
        (every access that hits or allocates), ``hits`` their real
        outcomes.  Each code is ``0`` for a hit, else the
        :data:`MISS_KIND_CODES` value of the miss: compulsory on a first
        touch, conflict on a shadow hit, capacity otherwise.
        """
        if not self._recent_ok:
            self._recent = np.fromiter(self._lru, dtype=np.int64,
                                       count=len(self._lru))
            self._recent_ok = True
        self._lru_ok = False
        if lines.size <= CLASSIFY_CHUNK:
            return self._classify_chunk(lines, hits)
        return np.concatenate([
            self._classify_chunk(lines[start:start + CLASSIFY_CHUNK],
                                 hits[start:start + CLASSIFY_CHUNK])
            for start in range(0, lines.size, CLASSIFY_CHUNK)])

    def _classify_chunk(self, lines: np.ndarray,
                        hits: np.ndarray) -> np.ndarray:
        cold = np.empty(lines.size, dtype=bool)
        shadow, self._recent = kernels.stack_hits(
            lines, self._recent, self.capacity_lines, cold)
        codes = np.where(shadow, np.uint8(MISS_KIND_CODES[MissKind.CONFLICT]),
                         np.uint8(MISS_KIND_CODES[MissKind.CAPACITY]))
        codes[hits] = 0
        # A first touch is a miss on a line with no use in the shadow's
        # history or earlier in the chunk (so each line once) that the
        # ever-seen set does not hold either.
        candidates = np.flatnonzero(cold & ~hits)
        candidate_lines = lines[candidates].tolist()
        seen = self._ever_seen
        known = np.fromiter(map(seen.__contains__, candidate_lines),
                            dtype=bool, count=len(candidate_lines))
        seen.update(candidate_lines)
        codes[candidates[~known]] = MISS_KIND_CODES[MissKind.COMPULSORY]
        return codes

    def reset(self) -> None:
        """Forget all shadow state."""
        self._lru.clear()
        self._ever_seen.clear()
        self._recent = np.empty(0, dtype=np.int64)
        self._lru_ok = self._recent_ok = True
