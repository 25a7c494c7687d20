"""Alternative index mappings: the other ways out of power-of-two folding.

The prime modulus is not the only proposal for de-pathologising a
direct-mapped cache's index function.  Two contemporaneous alternatives
are implemented here so the benchmarks can rank all three:

* :class:`XorMappedCache` — *hash* the index by XOR-folding higher address
  bits into it (the ingredient of Seznec's skewed-associative caches).
  Free in hardware (a row of XOR gates) and effective for many stride
  families, but XOR is linear over GF(2): strides that are multiples of
  ``2^c`` still collapse — the fold permutes *within* the index space and
  cannot create more distinct indexes than the bits that vary.
* :class:`ColumnAssociativeCache` — Agarwal's hash-rehash/column-
  associative scheme: a direct-mapped array probed twice, the second time
  at the bit-flipped index, with a swap so the hot line migrates to the
  primary slot.  Equivalent to cheap 2-way associativity: it doubles the
  folded footprint of a strided sweep, no more.

Both keep power-of-two geometry and simple hardware, and both leave
residual strided conflicts the Mersenne modulus removes — quantified in
``benchmarks/bench_ablation_mappings.py``.
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import Cache
from repro.cache.set_assoc import SetAssociativeCache

__all__ = ["XorMappedCache", "ColumnAssociativeCache"]


class XorMappedCache(SetAssociativeCache):
    """Direct-mapped cache with an XOR-folded index.

    Index = XOR of the line address's consecutive ``c``-bit fields — the
    classic bit-hash.  Same storage and lookup as direct-mapped; only the
    decoder input changes.

    Args:
        num_lines: capacity; must be a power of two.
        fold_fields: how many ``c``-bit fields above the index to fold in
            (1 is the common "tag-low XOR index" hash).

    Example:
        >>> cache = XorMappedCache(num_lines=64)
        >>> # stride 64: the pure-index bits are constant but the folded
        >>> # tag bits vary, so the sweep spreads instead of pinning set 0
        >>> len({cache.set_of(i * 64) for i in range(64)})
        64
    """

    def __init__(
        self,
        num_lines: int,
        line_size_words: int = 1,
        *,
        fold_fields: int = 1,
        classify_misses: bool = True,
        write_allocate: bool = True,
    ) -> None:
        if fold_fields < 1:
            raise ValueError("fold_fields must be at least 1")
        super().__init__(
            num_sets=num_lines,
            num_ways=1,
            line_size_words=line_size_words,
            policy="lru",
            classify_misses=classify_misses,
            write_allocate=write_allocate,
        )
        self.fold_fields = fold_fields
        self._index_bits = num_lines.bit_length() - 1

    def set_of(self, line_address: int) -> int:
        index = line_address & (self.num_sets - 1)
        for field in range(1, self.fold_fields + 1):
            index ^= (line_address >> (field * self._index_bits)) \
                & (self.num_sets - 1)
        return index

    def _map_sets_batch(self, lines: np.ndarray) -> np.ndarray:
        if type(self).set_of is not XorMappedCache.set_of:
            return Cache._map_sets_batch(self, lines)
        mask = self.num_sets - 1
        index = lines & mask
        for field in range(1, self.fold_fields + 1):
            index ^= (lines >> (field * self._index_bits)) & mask
        return index


class ColumnAssociativeCache(SetAssociativeCache):
    """Hash-rehash / column-associative cache (Agarwal).

    A direct-mapped array where a primary miss probes the *rehash*
    location — the index with its top bit flipped — before going to
    memory.  Functionally this makes each index pair ``{i, i ^ top}`` a
    2-entry set; the hardware pays a second sequential probe instead of a
    parallel comparator, which this model charges via
    :attr:`rehash_probes` so the timing can be costed separately.

    Example:
        >>> cache = ColumnAssociativeCache(num_lines=64)
        >>> cache.access(0).hit; cache.access(64).hit   # both land in pair 0
        False
        False
        >>> cache.access(0).hit and cache.access(64).hit  # both resident
        True
    """

    def __init__(
        self,
        num_lines: int,
        line_size_words: int = 1,
        *,
        classify_misses: bool = True,
        write_allocate: bool = True,
    ) -> None:
        if num_lines < 2:
            raise ValueError("column associativity needs at least 2 lines")
        super().__init__(
            num_sets=num_lines // 2,
            num_ways=2,
            line_size_words=line_size_words,
            policy="lru",
            classify_misses=classify_misses,
            write_allocate=write_allocate,
        )
        #: hits that needed the second (rehash) probe — each costs an
        #: extra cycle in a real implementation
        self.rehash_probes = 0
        self._pair_bits = (num_lines // 2).bit_length() - 1

    def set_of(self, line_address: int) -> int:
        # the primary and rehash indexes differ in the top index bit, so
        # the pair {i, i ^ top} is one 2-way set keyed by the low bits
        return line_address & (self.num_sets - 1)

    def access(self, word_address: int, *, write: bool = False):
        line = self.line_of(word_address)
        set_index = self.set_of(line)
        resident = self._sets.get(set_index)
        if resident is not None and resident.get(line) == 1:
            # resident in the rehash slot: the first probe missed
            self.rehash_probes += 1
        return super().access(word_address, write=write)
