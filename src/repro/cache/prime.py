"""The prime-mapped cache — the paper's contribution.

A direct-mapped cache with ``2^c - 1`` lines (a Mersenne prime) instead of
``2^c``.  Line address ``A`` maps to cache line ``A mod (2^c - 1)``.

Why this wins (Section 2.3): a stride-``s`` vector sweep revisits a cache
line only after ``(2^c - 1) / gcd(2^c - 1, s)`` elements.  With a prime
modulus that gcd is 1 for *every* stride except multiples of the modulus
itself, so a vector of length up to ``2^c - 1`` is self-interference-free
for essentially all strides — including the power-of-two strides of FFT and
the ``P`` and ``P + 1`` strides of matrix row/diagonal walks that are
pathological for power-of-two caches.

Why it is still fast: the index is computed by the end-around-carry adder
datapath of :mod:`repro.core.address_gen` in parallel with normal address
arithmetic, and lookup (tag compare, data read) is untouched direct-mapped
hardware.  This module wires the two together and also exposes the static
mapping for the analytical model and the conflict-free blocking helpers.

Tag width accounting: with prime indexing the index is no longer a
bit-slice of the address, so (tag-field, index) pairs are ambiguous for two
of the ``2^c`` possible index-field values.  One extra stored tag bit
restores uniqueness; :attr:`PrimeMappedCache.tag_overhead_bits` reports it.
The simulator simply stores full line addresses, which is equivalent.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cache.base import Cache
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.mersenne import MersenneModulus

__all__ = ["PrimeMappedCache"]


class PrimeMappedCache(SetAssociativeCache):
    """Direct-mapped cache indexed modulo a Mersenne prime ``2^c - 1``.

    Args:
        c: Mersenne exponent; the cache holds ``2^c - 1`` lines.  The
            modulus must be prime for the conflict-freedom guarantees
            (pass ``allow_composite=True`` to experiment with composite
            Mersenne moduli and watch the guarantees break).
        line_size_words: words per line (power of two).
        ways: associativity; the paper's design is direct-mapped
            (``ways=1``) but the mapping composes with associativity, which
            the ablation studies exercise.

    Example:
        >>> cache = PrimeMappedCache(c=5)       # 31 lines
        >>> cache.total_lines
        31
        >>> # stride 8 (2^3) sweeps all 31 lines before wrapping:
        >>> hits = [cache.access(8 * i).hit for i in range(31)]
        >>> any(hits)
        False
        >>> [cache.access(8 * i).hit for i in range(31)] == [True] * 31
        True
    """

    _require_pow2_sets = False

    def __init__(
        self,
        c: int,
        line_size_words: int = 1,
        *,
        ways: int = 1,
        allow_composite: bool = False,
        classify_misses: bool = True,
        write_allocate: bool = True,
    ) -> None:
        modulus = MersenneModulus(c)
        if not modulus.is_prime and not allow_composite:
            raise ValueError(
                f"2^{c} - 1 = {modulus.value} is not a Mersenne prime; "
                "pass allow_composite=True to experiment anyway"
            )
        self.modulus = modulus
        super().__init__(
            num_sets=modulus.value,
            num_ways=ways,
            line_size_words=line_size_words,
            policy="lru",
            classify_misses=classify_misses,
            write_allocate=write_allocate,
        )

    @property
    def c(self) -> int:
        """The Mersenne exponent (index field width in bits)."""
        return self.modulus.c

    @property
    def tag_overhead_bits(self) -> int:
        """Extra stored tag bits versus a direct-mapped cache of ``2^c`` lines.

        One bit disambiguates the two index-field values (``0`` and
        ``2^c - 1``) that fold to the same prime index under a shared tag
        field.
        """
        return 1

    def set_of(self, line_address: int) -> int:
        """Prime mapping: fold the line address modulo ``2^c - 1``."""
        return self.modulus.reduce(line_address)

    def _map_sets_batch(self, lines: np.ndarray) -> np.ndarray:
        """Vectorised Mersenne folding over a whole line-address array.

        The end-around-carry fold of :func:`repro.core.mersenne.fold`
        (repeatedly add the low ``c`` bits to the rest, then collapse the
        all-ones alias of zero) computes exactly ``lines mod (2^c - 1)``
        — that congruence is the whole point of the design — so the
        batched form is a single vectorised modulo.
        """
        if type(self).set_of is not PrimeMappedCache.set_of:
            return Cache._map_sets_batch(self, lines)
        return lines % self.modulus.value

    def lines_touched_by_stride(self, stride: int) -> int:
        """Distinct cache lines a long stride-``stride`` word sweep visits.

        ``stride`` is in *words*; the mapping operates on line addresses,
        so the word stride is converted to line geometry first.  When the
        stride is a whole number of lines the answer is the classic
        ``(2^c - 1) / gcd(2^c - 1, stride / line_size_words)`` — full
        capacity for every stride that is not a multiple of the modulus,
        the heart of the conflict-freedom argument.  A fractional line
        stride advances ``stride / g`` lines every ``line_size_words / g``
        elements (``g = gcd(stride, line_size_words)``), visiting several
        line-offset phases per period; the count below enumerates the
        phases exactly (for a base-aligned sweep).  The ``prime-geometry``
        oracle of :mod:`repro.verify` sweeps this count against direct
        enumeration of the visited line slots.
        """
        if stride == 0:
            return 1
        word_stride = abs(stride)
        g = math.gcd(word_stride, self.line_size_words)
        line_stride = word_stride // g
        period = self.line_size_words // g
        value = self.modulus.value
        d = math.gcd(value, line_stride)
        phases = {
            (k * line_stride // period) % d for k in range(period)
        }
        return len(phases) * (value // d)
