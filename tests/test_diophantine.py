"""Canonical seed decomposition, gear sequences, structural primality."""

import math
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis.strategies import integers

from gearsieve import diophantine
from gearsieve.diophantine import (
    canonical_seed,
    gear_sequence,
    is_prime_candidate,
    structural_is_prime,
)
from gearsieve.engine import MAX_PRIME_N, MAX_WINDOW_END

MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime_mr(n):
    """Deterministic Miller-Rabin with the first 12 prime bases.

    These bases have no strong liar below 3.3e24, far past MAX_PRIME_N.
    Shares nothing with the gear test: no trial division beyond the bases.
    """
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n):
    while not _is_prime_mr(n):
        n += 1
    return n


def _prev_prime(n):
    while not _is_prime_mr(n):
        n -= 1
    return n


def _sieve_primes(limit):
    """Test-local primality oracle: plain boolean sieve up to limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return flags


def test_seed_small_values():
    # n = 2 n0 + 3 m0 with n0 the unique choice in {0, 1, 2}
    s = canonical_seed(6)
    assert (s.n0, s.m0) == (0, 2)
    s = canonical_seed(7)
    assert (s.n0, s.m0) == (2, 1)
    s = canonical_seed(11)
    assert (s.n0, s.m0) == (1, 3)
    s = canonical_seed(25)
    assert (s.n0, s.m0) == (2, 7)
    s = canonical_seed(37)
    assert (s.n0, s.m0) == (2, 11)


def test_seed_residue_table():
    # the offset n0 depends only on n mod 3: 0 -> 0, 1 -> 2, 2 -> 1
    for n in range(4, 400):
        s = canonical_seed(n)
        assert s.n0 == {0: 0, 1: 2, 2: 1}[n % 3]


@given(integers(min_value=4, max_value=10**12))
def test_seed_roundtrip(n):
    s = canonical_seed(n)
    assert 2 * s.n0 + 3 * s.m0 == n
    assert s.n0 in (0, 1, 2)
    assert s.m0 >= 0


def test_seed_m0_is_maximal():
    # no decomposition with a larger m exists within the offset range
    for n in range(4, 300):
        s = canonical_seed(n)
        rest = n - 3 * (s.m0 + 1)
        representable = rest >= 0 and rest % 2 == 0 and rest // 2 <= 2
        assert not representable


def test_seed_rejects_small_n():
    with pytest.raises(ValueError):
        canonical_seed(3)
    with pytest.raises(ValueError):
        canonical_seed(0)


def test_candidate_matches_coprimality():
    # candidates are exactly the integers coprime to 6
    for n in range(5, 2000):
        s = canonical_seed(n)
        assert is_prime_candidate(s) == (math.gcd(n, 6) == 1)


def test_gear_sequence_structure():
    s = canonical_seed(97)  # n0 = 2, m0 = 31
    gears = gear_sequence(s)
    assert gears[0].n_k == s.n0 and gears[0].m_k == s.m0
    for g in gears:
        assert 2 * g.n_k + 3 * g.m_k == 97
        assert g.m_k % 2 == 1 and g.m_k >= 3
    ms = [g.m_k for g in gears]
    assert ms == list(range(s.m0, 2, -2))


def test_gear_sequence_rejects_even_m0():
    s = canonical_seed(6)  # m0 = 2, even
    with pytest.raises(ValueError):
        gear_sequence(s)


def test_gear_sequence_stops_at_the_largest_basis_bound():
    # isqrt(MAX_WINDOW_END) = 31622 bounds every supported basis; past it
    # the seed is refused before any gear is built (n = 10^12 would ask
    # for about 1.7e11 gears)
    top = math.isqrt(MAX_WINDOW_END)
    assert len(gear_sequence(canonical_seed(3 * (top - 1) + 2))) == (top - 1) // 2
    began = time.perf_counter()
    for n in (3 * (top + 1) + 2, 10**12):
        with pytest.raises(ValueError, match=f"gear sequence supports m0 up to {top}"):
            gear_sequence(canonical_seed(n))
    assert time.perf_counter() - began < 1.0


def test_structural_primality_examples():
    assert structural_is_prime(5)
    assert structural_is_prime(7)
    assert structural_is_prime(97)
    assert not structural_is_prime(25)
    assert not structural_is_prime(49)
    assert not structural_is_prime(91)  # 7 * 13
    assert not structural_is_prime(9)
    assert not structural_is_prime(15)


def test_structural_primality_rejects_multiples_of_two_and_three():
    for n in (4, 6, 8, 9, 12, 21, 27, 100):
        assert not structural_is_prime(n)


def test_structural_matches_sieve_oracle():
    limit = 20000
    flags = _sieve_primes(limit)
    for n in range(5, limit + 1):
        if math.gcd(n, 6) != 1:
            continue
        assert structural_is_prime(n) == bool(flags[n]), n


def test_structural_rejects_tiny_n():
    with pytest.raises(ValueError):
        structural_is_prime(3)


@given(integers(min_value=5, max_value=10**6))
def test_structural_agrees_with_factor_search(n):
    if math.gcd(n, 6) != 1:
        return
    has_factor = any(n % d == 0 for d in range(5, math.isqrt(n) + 1, 2))
    assert structural_is_prime(n) == (not has_factor)


@settings(max_examples=60, deadline=None)
@given(integers(min_value=4, max_value=MAX_PRIME_N))
def test_structural_agrees_with_miller_rabin(n):
    assert structural_is_prime(n) == _is_prime_mr(n)


@settings(max_examples=40, deadline=None)
@given(integers(min_value=4, max_value=10**13), integers(min_value=3, max_value=10**6))
def test_structural_agrees_with_miller_rabin_on_hard_inputs(x, q):
    # primes and products of neighbouring primes walk every modulus
    q = _next_prime(q)
    for n in (_next_prime(x), q * _next_prime(q + 1)):
        assert structural_is_prime(n) == _is_prime_mr(n), n


def test_structural_at_the_bound():
    # both walk every modulus; q*q meets its factor at the very last one
    assert structural_is_prime(_prev_prime(MAX_PRIME_N))
    q = _prev_prime(math.isqrt(MAX_PRIME_N))
    assert not structural_is_prime(q * q)
    with pytest.raises(ValueError):
        structural_is_prime(MAX_PRIME_N + 1)


def _ramp_blocks(start, block, count):
    """The first count blocks of the walk, as (first, last) odd moduli.

    Block 0 holds min(start, block) moduli from 3; each later block holds
    four times as many as the one before, capped at block.
    """
    blocks, lo, width = [], 3, min(start, block)
    for _ in range(count):
        blocks.append((lo, lo + 2 * (width - 1)))
        lo += 2 * width
        width = min(4 * width, block)
    return blocks


def _check_block_edges(start, block):
    """Inputs that meet their factor on either side of each block edge.

    With a block ending at modulus a and the next starting at a + 2, and
    q1 <= a < a + 2 <= q2 the nearest primes, q1^2 and q2^2 meet their
    factor at the last modulus, isqrt(n), and q1 * q2 and q2 * q3 put
    isqrt(n) just above an edge prime. q * r, with r a prime far above
    every edge, has q as its only factor below isqrt(n), for q the first
    and the last prime modulus of each block: a walk that skips or
    repeats the wrong modulus at an edge calls it prime. The next prime
    above each product walks every modulus up to its root.
    """
    blocks = _ramp_blocks(start, block, 5)
    far = _next_prime(10**6)
    cases = []
    for (_, a), (b, _) in zip(blocks, blocks[1:]):
        q1, q2 = _prev_prime(a), _next_prime(b)
        q3 = _next_prime(q2 + 1)
        cases += [q1 * q1, q2 * q2, q1 * q2, q2 * q3]
    for first, last in blocks:
        cases += [_next_prime(first) * far, _prev_prime(last) * far]
    cases += [_next_prime(n) for n in cases]
    with mock.patch.multiple(diophantine, _RAMP_START=start, _PRIME_BLOCK=block):
        for n in cases:
            assert structural_is_prime(n) == _is_prime_mr(n), n


@pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 7, diophantine._PRIME_BLOCK])
def test_structural_block_edges(block):
    # at the default ramp start: a flat walk for the small blocks, the
    # ramp 64, 256, 1024, 4096, 4096 at the default block
    _check_block_edges(diophantine._RAMP_START, block)


@pytest.mark.parametrize("start, block", [(1, 16), (2, 7), (3, 48)])
def test_structural_ramp_edges_at_small_sizes(start, block):
    # ramps 1, 4, 16, 16, 16; 2, 7, 7, 7, 7; 3, 12, 48, 48, 48
    _check_block_edges(start, block)
