"""Random / hashed-index cache: a seeded hash of the line address picks
the set.

Where the paper's prime modulus *removes* strided conflicts by number
theory, randomised indexing *spreads* them statistically: a good hash
makes every line land in an (effectively) uniform random set, so no
stride family is pathological — but random placement buys its own
collisions.  Filling ``B`` distinct lines into ``S`` sets collides by
the birthday paradox: the expected number of lines that share a set
with at least one other line is ``B * (1 - (1 - 1/S)**(B-1))``, which
is *nonzero even when B <= S* — the price of randomisation over the
conflict-free prime mapping.  :mod:`repro.analytical.hashed` carries
the closed forms; the ``cache-zoo`` oracle holds this simulator to
them, exactly per seed and statistically across seeds.

The hash is a splitmix64-style finalizer (xor-shift / odd-constant
multiply avalanche rounds) of the line address XOR a seed word.  It is
deterministic, seedable, and vectorises to a handful of uint64 numpy
ops in :meth:`HashedIndexCache._map_sets_batch`, whose ``sets`` array
feeds the compiled replay kernels of :class:`SetAssociativeCache`
unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import Cache
from repro.cache.replacement import ReplacementPolicy
from repro.cache.set_assoc import SetAssociativeCache

__all__ = ["HashedIndexCache", "hash_lines", "hash_sets"]

_M64 = (1 << 64) - 1
#: splitmix64 constants: the golden-gamma increment and the two
#: avalanche multipliers of the finalizer.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def hash_lines(lines: np.ndarray, seed: int) -> np.ndarray:
    """splitmix64-finalize ``lines ^ seed``; returns a ``uint64`` array.

    The scalar :meth:`HashedIndexCache.set_of` and every batched replay
    reduce this same function, so the analytical collision model can
    reproduce the simulator's placement bit-for-bit.
    """
    z = np.asarray(lines, dtype=np.int64).astype(np.uint64)
    z ^= np.uint64(seed & _M64)
    z += np.uint64(_GAMMA)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def hash_sets(lines: np.ndarray, seed: int, num_sets: int) -> np.ndarray:
    """Vectorised hashed set mapping: ``hash_lines(lines, seed) % num_sets``."""
    return (hash_lines(lines, seed) % np.uint64(num_sets)).astype(np.int64)


class HashedIndexCache(SetAssociativeCache):
    """Set-associative cache whose index is a seeded hash of the line.

    Args:
        num_sets: number of sets (any positive count — the hash reduces
            modulo ``num_sets``, so no power-of-two constraint applies).
        num_ways: associativity.
        seed: hash seed; different seeds give statistically independent
            placements of the same trace (the collision study sweeps it).

    Example:
        >>> cache = HashedIndexCache(num_sets=64, num_ways=1, seed=7)
        >>> # stride 64 pins set 0 on a conventional direct-mapped cache;
        >>> # the hash spreads it over most of the index space
        >>> len({cache.set_of(i * 64) for i in range(64)}) > 32
        True
    """

    _require_pow2_sets = False

    def __init__(
        self,
        num_sets: int,
        num_ways: int = 1,
        line_size_words: int = 1,
        *,
        seed: int = 0,
        policy: ReplacementPolicy | str = "lru",
        classify_misses: bool = True,
        write_allocate: bool = True,
    ) -> None:
        super().__init__(
            num_sets=num_sets,
            num_ways=num_ways,
            line_size_words=line_size_words,
            policy=policy,
            classify_misses=classify_misses,
            write_allocate=write_allocate,
        )
        self.seed = seed
        self._seed_word = seed & _M64

    def set_of(self, line_address: int) -> int:
        """Hashed indexing: splitmix64 finalizer of ``line ^ seed``."""
        z = (line_address ^ self._seed_word) & _M64
        z = (z + _GAMMA) & _M64
        z ^= z >> 30
        z = (z * _MIX1) & _M64
        z ^= z >> 27
        z = (z * _MIX2) & _M64
        z ^= z >> 31
        return z % self.num_sets

    def _map_sets_batch(self, lines: np.ndarray) -> np.ndarray:
        if type(self).set_of is not HashedIndexCache.set_of:
            return Cache._map_sets_batch(self, lines)
        return hash_sets(lines, self._seed_word, self.num_sets)

    def describe(self) -> str:
        return (
            f"{type(self).__name__}(sets={self.num_sets}, "
            f"ways={self.num_ways}, seed={self.seed}, "
            f"line={self.line_size_words}w)"
        )
