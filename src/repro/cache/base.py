"""Common machinery for all cache organisations.

Every cache in this package is a *tag-only* functional simulator: it tracks
which memory lines are resident and where, producing hit/miss outcomes and
statistics; it does not store data payloads (the workloads keep their data
in numpy, the caches decide how many cycles the machine stalls).

Addresses are **word-granular** non-negative integers.  The paper fixes the
line size at one double-precision word (Section 2.2), which every model
here defaults to, but all of them accept any power-of-two
``line_size_words`` so the line-size ablation of Section 2.2 can be run.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.cache.stats import (
    MISS_KIND_CODES,
    CacheStats,
    MissClassifier,
    MissKind,
)

__all__ = ["AccessResult", "BatchResult", "Cache", "MISS_KIND_CODES"]


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access.

    Attributes:
        hit: whether the referenced line was resident.
        line_address: the (line-granular) address referenced.
        set_index: which set/line slot the reference mapped to.
        victim_line: line evicted to make room, or ``None``.
        miss_kind: three-C class of the miss (``None`` on hits or when the
            owning cache was built without a classifier).
        writeback: ``True`` when the evicted line was dirty.
    """

    hit: bool
    line_address: int
    set_index: int
    victim_line: int | None = None
    miss_kind: MissKind | None = None
    writeback: bool = False


@dataclass(frozen=True)
class BatchResult:
    """Aggregate outcome of one :meth:`Cache.access_many` call.

    Attributes:
        delta: statistics contributed by this batch alone (the cache's own
            :attr:`Cache.stats` is updated by the same amounts).
        hits: per-access hit bitmap (``bool`` array), or ``None`` unless
            requested with ``return_hits=True``.
        miss_kinds: per-access three-C codes (``uint8`` array, values from
            :data:`MISS_KIND_CODES`, ``0`` for hits/unclassified), or
            ``None`` unless requested with ``return_kinds=True``.
    """

    delta: CacheStats
    hits: np.ndarray | None = None
    miss_kinds: np.ndarray | None = None

    @property
    def hit_ratio(self) -> float:
        """Hits per access within this batch; 0.0 for an empty batch."""
        return self.delta.hit_ratio


def _is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


class Cache(ABC):
    """Abstract cache: address mapping + residency tracking + statistics.

    Args:
        total_lines: capacity in lines.
        line_size_words: words per line; must be a power of two.
        classify_misses: run the fully-associative LRU shadow that labels
            every miss compulsory/capacity/conflict.  The scalar
            :meth:`access` updates it per access; :meth:`access_many`
            on the compiled backend replays the batch through the same
            residency engine as an unclassified cache and then labels
            its misses from one stack-distance pass
            (:meth:`~repro.cache.stats.MissClassifier.classify_batch`).
            Either way it keeps a set of all lines ever touched; disable
            it for very long traces where only hit ratios matter.
        write_allocate: whether a write miss fills the line (the paper's
            machine model assumes writes are buffered and never stall, but
            the cache contents still matter for later reads).
    """

    def __init__(
        self,
        total_lines: int,
        line_size_words: int = 1,
        *,
        classify_misses: bool = True,
        write_allocate: bool = True,
    ) -> None:
        if total_lines <= 0:
            raise ValueError("total_lines must be positive")
        if not _is_power_of_two(line_size_words):
            raise ValueError("line_size_words must be a power of two")
        self.total_lines = total_lines
        self.line_size_words = line_size_words
        self.write_allocate = write_allocate
        self.stats = CacheStats()
        self._classifier = MissClassifier(total_lines) if classify_misses else None
        self._offset_bits = line_size_words.bit_length() - 1

    # -- address helpers ---------------------------------------------------

    def line_of(self, word_address: int) -> int:
        """Map a word address to its line address."""
        if word_address < 0:
            raise ValueError("addresses must be non-negative")
        return word_address >> self._offset_bits

    @abstractmethod
    def set_of(self, line_address: int) -> int:
        """Map a line address to its set (or line slot) index."""

    # -- residency (implemented per organisation) ---------------------------

    @abstractmethod
    def _lookup(self, line_address: int, set_index: int) -> bool:
        """Whether the line is resident (must not disturb replacement state)."""

    @abstractmethod
    def _touch(self, line_address: int, set_index: int) -> None:
        """Record a hit for replacement bookkeeping."""

    @abstractmethod
    def _fill(
        self, line_address: int, set_index: int, dirty: bool
    ) -> tuple[int | None, bool]:
        """Install the line; return ``(victim_line or None, victim_was_dirty)``."""

    @abstractmethod
    def _mark_dirty(self, line_address: int, set_index: int) -> None:
        """Mark a resident line dirty (write hit)."""

    @abstractmethod
    def resident_lines(self) -> set[int]:
        """Snapshot of every resident line address (for tests/analysis)."""

    @abstractmethod
    def invalidate_all(self) -> None:
        """Empty the cache (statistics are kept; use ``stats.reset()`` too)."""

    # -- the public access path ---------------------------------------------

    @property
    def classifies_misses(self) -> bool:
        """Whether this cache runs the three-C miss classifier."""
        return self._classifier is not None

    def access(self, word_address: int, *, write: bool = False) -> AccessResult:
        """Reference one word; update residency, replacement and statistics.

        A write miss on a no-allocate cache bypasses the cache entirely
        (the store goes straight to memory), so it neither installs the
        line nor feeds the classifier shadow — otherwise a later read miss
        to the same line would be classified conflict/capacity instead of
        compulsory.  Such a miss carries ``miss_kind=None``.
        """
        line = self.line_of(word_address)
        set_index = self.set_of(line)
        hit = self._lookup(line, set_index)
        allocate = not write or self.write_allocate

        kind: MissKind | None = None
        if self._classifier is not None and (hit or allocate):
            kind = self._classifier.classify(line, hit)

        victim: int | None = None
        writeback = False
        if hit:
            self._touch(line, set_index)
            if write:
                self._mark_dirty(line, set_index)
        elif allocate:
            victim, writeback = self._fill(line, set_index, dirty=write)
            if victim is not None:
                self.stats.evictions += 1

        self.stats.record(hit, write, kind)
        return AccessResult(hit, line, set_index, victim, kind, writeback)

    # -- the batched access path --------------------------------------------

    def _map_sets_batch(self, lines: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`set_of` over a line-address array.

        The generic fallback loops over :meth:`set_of`; subclasses with an
        arithmetic index function override this with array expressions
        (shift/mask for power-of-two indexing, a modulo for the prime
        cache).  Every batched engine, kernels included, indexes through
        this one mapping.
        """
        set_of = self.set_of
        return np.fromiter(
            (set_of(line) for line in lines.tolist()),
            dtype=np.int64,
            count=lines.size,
        )

    def _replay_compiled(self, lines, sets, writes, want_hits: bool):
        """Replay a pre-mapped batch's residency through :mod:`repro.kernels`.

        ``lines``/``sets`` are int64 arrays, ``writes`` a bool array or
        ``None``.  Returns ``(hits, misses, evictions, hits_array or
        None)``, or ``None`` when this organisation has no kernel form
        (random replacement, an N-way cache without generated C or above
        :data:`~repro.cache.set_assoc.ASSOC_SCAN_WAYS` ways), in which
        case :meth:`access_many` runs the :meth:`_replay_premapped` loop.
        Only consulted for ``backend="compiled"``; a miss classifier, if
        any, labels the batch afterwards from the hit array.
        """
        return None

    def _replay_premapped(self, lines, sets, writes, hits_out, kinds_out,
                          classify):
        """Sequential residency loop over pre-mapped line/set lists.

        ``lines``/``sets`` are plain Python lists (one entry per access);
        ``writes`` is a bool list or ``None`` for a read-only batch;
        ``hits_out``/``kinds_out`` are output lists to append per-access
        outcomes to, or ``None``; ``classify`` is the classifier's
        per-access :meth:`~repro.cache.stats.MissClassifier.classify`, or
        ``None`` to leave the batch unlabelled.  Returns ``(hits, misses,
        evictions, kind_counts)``.  Must replay *exactly* the
        :meth:`access` state machine — the property tests cross-check the
        two bit-for-bit.
        """
        lookup, touch, fill = self._lookup, self._touch, self._fill
        mark_dirty = self._mark_dirty
        write_allocate = self.write_allocate
        kind_codes = MISS_KIND_CODES
        hit_count = miss_count = evictions = 0
        kind_counts = {kind: 0 for kind in MissKind}
        for i in range(len(lines)):
            line = lines[i]
            set_index = sets[i]
            write = writes is not None and writes[i]
            hit = lookup(line, set_index)
            allocate = not write or write_allocate
            kind = None
            if classify is not None and (hit or allocate):
                kind = classify(line, hit)
            if hit:
                hit_count += 1
                touch(line, set_index)
                if write:
                    mark_dirty(line, set_index)
            else:
                miss_count += 1
                if kind is not None:
                    kind_counts[kind] += 1
                if allocate:
                    victim, _ = fill(line, set_index, dirty=write)
                    if victim is not None:
                        evictions += 1
            if hits_out is not None:
                hits_out.append(hit)
            if kinds_out is not None:
                kinds_out.append(0 if kind is None else kind_codes[kind])
        return hit_count, miss_count, evictions, kind_counts

    def _replay_labelled(self, lines, sets, writes, writes_list,
                         return_hits: bool, return_kinds: bool):
        """The compiled backend's replay: residency, then miss labels.

        The batch's residency runs on :meth:`_replay_compiled` (else the
        :meth:`_replay_premapped` loop), exactly as for an unclassified
        cache; a classifier then labels the accesses that hit or
        allocate in one :meth:`~repro.cache.stats.MissClassifier.classify_batch`
        pass over the hit array.  Returns ``(hits, misses, evictions,
        kind_counts, hits array or None, kind codes or None)``.
        """
        classifier = self._classifier
        want_hits = return_hits or classifier is not None
        compiled = self._replay_compiled(lines, sets, writes, want_hits)
        if compiled is None:
            hits_list = [] if want_hits else None
            hit_count, miss_count, evictions, _ = self._replay_premapped(
                lines.tolist(), sets.tolist(), writes_list, hits_list, None,
                None)
            hits = np.asarray(hits_list, dtype=bool) if want_hits else None
        else:
            hit_count, miss_count, evictions, hits = compiled
        kind_counts = {kind: 0 for kind in MissKind}
        kinds = None
        if classifier is not None:
            if writes is None or self.write_allocate:
                kinds = classifier.classify_batch(lines, hits)
            else:
                # a no-allocate store miss bypasses the cache and the shadow
                fed = hits | ~writes
                kinds = np.zeros(lines.size, dtype=np.uint8)
                kinds[fed] = classifier.classify_batch(lines[fed], hits[fed])
            counts = np.bincount(kinds, minlength=len(MISS_KIND_CODES) + 1)
            kind_counts = {kind: int(counts[code])
                           for kind, code in MISS_KIND_CODES.items()}
        elif return_kinds:
            kinds = np.zeros(lines.size, dtype=np.uint8)
        return (hit_count, miss_count, evictions, kind_counts,
                hits if return_hits else None, kinds)

    def _replay_scalar(self, addresses, writes, hits_out, kinds_out) -> None:
        """Batch fallback through :meth:`access`, for subclasses that
        customise the scalar path (their per-access side effects must be
        preserved)."""
        access = self.access
        kind_codes = MISS_KIND_CODES
        for i, address in enumerate(addresses):
            result = access(
                address, write=writes is not None and writes[i]
            )
            if hits_out is not None:
                hits_out.append(result.hit)
            if kinds_out is not None:
                kinds_out.append(
                    0 if result.miss_kind is None
                    else kind_codes[result.miss_kind]
                )

    def access_many(
        self,
        addresses,
        writes=None,
        *,
        return_hits: bool = False,
        return_kinds: bool = False,
        backend: str | None = None,
    ) -> BatchResult:
        """Reference a whole address array; the trace-replay fast path.

        Equivalence with the scalar :meth:`access` state machine — per
        access, per statistic, per resident line — is swept by the
        ``cache-batch`` oracle of :mod:`repro.verify` in addition to the
        Hypothesis property tests.

        Semantically identical to calling :meth:`access` once per element
        (same statistics, including the three-C split, same final
        residency and replacement state) but without per-access
        ``AccessResult`` allocation, and with the line/set mapping
        computed vectorised over the whole batch.

        Args:
            addresses: 1-D array-like of non-negative word addresses.
            writes: optional bool array-like of the same shape marking
                stores; ``None`` means a read-only batch.
            return_hits: also return the per-access hit bitmap.
            return_kinds: also return per-access miss-kind codes
                (:data:`MISS_KIND_CODES`; all zeros without a classifier).
            backend: ``"scalar"`` replays through the generic per-access
                state machine, classifier included; ``"compiled"``
                replays residency through :mod:`repro.kernels` when the
                organisation has a kernel form (else through the state
                machine's residency loop) and labels misses with one
                stack-distance pass (:meth:`_replay_labelled`).  ``None``
                takes :func:`repro.kernels.default_backend`.  Both are
                bit-for-bit equivalent.

        Returns:
            A :class:`BatchResult` with this batch's stats delta.
        """
        backend = kernels.resolve_backend(backend)
        addrs = np.asarray(addresses, dtype=np.int64)
        if addrs.ndim != 1:
            raise ValueError("addresses must be one-dimensional")
        n = addrs.size
        if n and int(addrs.min()) < 0:
            raise ValueError("addresses must be non-negative")
        writes_arr = None
        writes_list = None
        writes_total = 0
        if writes is not None:
            writes_arr = np.ascontiguousarray(writes, dtype=bool)
            if writes_arr.shape != addrs.shape:
                raise ValueError("writes must match addresses in shape")
            writes_total = int(writes_arr.sum())
            if writes_total:
                writes_list = writes_arr.tolist()
        hits_out = [] if return_hits else None
        kinds_out = [] if return_kinds else None

        if type(self).access is not Cache.access:
            # The subclass customises the scalar path (e.g. rehash-probe
            # counting); replay through it so those semantics hold, and
            # take the delta from the stats it maintains itself.
            before = (
                self.stats.hits, self.stats.misses, self.stats.evictions,
                dict(self.stats.miss_kinds),
            )
            self._replay_scalar(addrs.tolist(), writes_list, hits_out, kinds_out)
            hit_count = self.stats.hits - before[0]
            miss_count = self.stats.misses - before[1]
            evictions = self.stats.evictions - before[2]
            kind_counts = {
                kind: self.stats.miss_kinds[kind] - before[3][kind]
                for kind in MissKind
            }
        else:
            lines = addrs >> self._offset_bits if self._offset_bits else addrs
            sets = self._map_sets_batch(lines)
            if backend == "compiled":
                (hit_count, miss_count, evictions, kind_counts, hits_out,
                 kinds_out) = self._replay_labelled(
                    lines, sets, writes_arr if writes_total else None,
                    writes_list, return_hits, return_kinds)
            else:
                classify = (None if self._classifier is None
                            else self._classifier.classify)
                hit_count, miss_count, evictions, kind_counts = (
                    self._replay_premapped(
                        lines.tolist(), sets.tolist(), writes_list,
                        hits_out, kinds_out, classify,
                    )
                )
            stats = self.stats
            stats.accesses += n
            stats.hits += hit_count
            stats.misses += miss_count
            stats.reads += n - writes_total
            stats.writes += writes_total
            stats.evictions += evictions
            if any(kind_counts.values()):
                for kind, count in kind_counts.items():
                    stats.miss_kinds[kind] += count

        delta = CacheStats(
            accesses=n,
            hits=hit_count,
            misses=miss_count,
            reads=n - writes_total,
            writes=writes_total,
            evictions=evictions,
            miss_kinds=kind_counts,
        )
        return BatchResult(
            delta,
            np.asarray(hits_out, dtype=bool) if return_hits else None,
            np.asarray(kinds_out, dtype=np.uint8) if return_kinds else None,
        )

    def contains(self, word_address: int) -> bool:
        """Whether the word's line is resident (no state change)."""
        line = self.line_of(word_address)
        return self._lookup(line, self.set_of(line))

    def run_trace(self, addresses, *, write: bool = False) -> CacheStats:
        """Access every word address in ``addresses``; return the stats object."""
        for address in addresses:
            self.access(int(address), write=write)
        return self.stats

    def reset(self) -> None:
        """Invalidate contents and zero statistics and classifier state."""
        self.invalidate_all()
        self.stats.reset()
        if self._classifier is not None:
            self._classifier.reset()
