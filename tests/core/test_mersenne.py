"""Unit and property tests for Mersenne-number arithmetic."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mersenne import (
    MERSENNE_EXPONENTS,
    MersenneModulus,
    canonical,
    eac_add,
    fold,
    is_mersenne_exponent,
    nearest_mersenne_exponent,
)

EXPONENTS = st.sampled_from([2, 3, 5, 7, 13, 17])


def test_supported_exponents_yield_primes():
    for c in MERSENNE_EXPONENTS:
        value = 2**c - 1
        for d in range(2, int(math.isqrt(value)) + 1):
            assert value % d != 0, f"2^{c}-1 = {value} divisible by {d}"


def test_is_mersenne_exponent():
    assert is_mersenne_exponent(5)
    assert not is_mersenne_exponent(4)  # 15 = 3 * 5
    assert not is_mersenne_exponent(11)  # 2047 = 23 * 89


def test_nearest_mersenne_exponent():
    assert nearest_mersenne_exponent(13) == 13
    assert nearest_mersenne_exponent(16) == 13
    assert nearest_mersenne_exponent(12) == 7
    assert nearest_mersenne_exponent(2) == 2


def test_nearest_mersenne_exponent_too_small():
    with pytest.raises(ValueError):
        nearest_mersenne_exponent(1)


@given(EXPONENTS, st.integers(min_value=0, max_value=2**40))
def test_fold_equals_modulo(c, x):
    assert fold(x, c) == x % (2**c - 1)


@given(EXPONENTS, st.integers(min_value=0), st.integers(min_value=0))
def test_eac_add_is_modular_addition(c, a, b):
    mask = (1 << c) - 1
    a, b = a % (mask + 1), b % (mask + 1)
    assert canonical(eac_add(a, b, c), c) == (a + b) % mask


def test_eac_add_rejects_wide_operands():
    with pytest.raises(ValueError):
        eac_add(32, 0, 5)


def test_eac_add_all_ones_plus_all_ones():
    # mask + mask folds to mask again (the alias of zero), canonical -> 0.
    assert canonical(eac_add(31, 31, 5), 5) == 0


def test_canonical_collapses_alias_only():
    assert canonical(31, 5) == 0
    assert canonical(30, 5) == 30
    assert canonical(0, 5) == 0


def test_canonical_rejects_wide_value():
    with pytest.raises(ValueError):
        canonical(32, 5)


def test_fold_rejects_negative():
    with pytest.raises(ValueError):
        fold(-1, 5)


class TestMersenneModulus:
    def test_value_and_primality(self):
        assert MersenneModulus(5).value == 31
        assert MersenneModulus(5).is_prime
        assert not MersenneModulus(4).is_prime

    def test_rejects_tiny_exponent(self):
        with pytest.raises(ValueError):
            MersenneModulus(1)

    @given(EXPONENTS, st.integers(min_value=0, max_value=2**40),
           st.integers(min_value=0, max_value=2**40))
    def test_add(self, c, a, b):
        m = MersenneModulus(c)
        assert m.add(a, b) == (a + b) % m.value

    @given(EXPONENTS, st.integers(min_value=0, max_value=2**40),
           st.integers(min_value=0, max_value=2**40))
    def test_sub(self, c, a, b):
        m = MersenneModulus(c)
        assert m.sub(a, b) == (a - b) % m.value

    @given(EXPONENTS, st.integers(min_value=0, max_value=2**20),
           st.integers(min_value=0, max_value=2**20))
    def test_mul(self, c, a, b):
        m = MersenneModulus(c)
        assert m.mul(a, b) == (a * b) % m.value

    @given(EXPONENTS, st.integers(min_value=-(2**30), max_value=2**30))
    def test_convert_stride(self, c, stride):
        m = MersenneModulus(c)
        assert m.convert_stride(stride) == stride % m.value

    @given(EXPONENTS, st.integers(min_value=0, max_value=2**60))
    def test_fold_chunks_reassemble(self, c, x):
        m = MersenneModulus(c)
        chunks = m.fold_chunks(x)
        assert sum(chunk << (i * c) for i, chunk in enumerate(chunks)) == x
        assert all(0 <= chunk <= m.value for chunk in chunks)

    def test_fold_chunks_zero(self):
        assert MersenneModulus(5).fold_chunks(0) == [0]

    def test_reduce_results_are_canonical(self):
        m = MersenneModulus(5)
        # 31 and 62 are both congruent to 0
        assert m.reduce(31) == 0
        assert m.reduce(62) == 0

    # one example walks up to 2^17 - 1 residues, which can outrun
    # Hypothesis's default 200 ms deadline on a slow host
    @settings(deadline=None)
    @given(EXPONENTS, st.integers(min_value=1, max_value=2**20))
    def test_stride_wraps_cover_all_lines_when_coprime(self, c, stride):
        """A stride coprime to the modulus visits every residue: the
        conflict-freedom property underpinning the whole design."""
        m = MersenneModulus(c)
        if math.gcd(stride, m.value) != 1:
            return
        seen = set()
        index = 0
        for _ in range(m.value):
            seen.add(index)
            index = m.add(index, stride)
        assert len(seen) == m.value
