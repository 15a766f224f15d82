"""goldbach_count against its own odd-only sieve, at random even E up to 10^8.

The reference is a sieve of Eratosthenes over the odd integers below
10^8, crossed off by slices (an index array would hold several hundred
MB), sharing nothing with the mask walk behind goldbach_count. It checks
both the count and the list of first members. E = 10^9 keeps only its
published count (tests/test_oracle.py): its sieve would hold 500 MB.
"""

import random

import numpy as np
import pytest

from gearsieve.engine import goldbach_count

LIMIT = 10**8
# 2*3*5*...*19 has the most small prime factors below 10^8, each of which
# knocks out one residue class instead of two; 10^8 counts 291,400.
_RNG = random.Random(19)
EVENS = sorted({9_699_690, LIMIT, *(2 * _RNG.randrange(4, LIMIT // 2 + 1) for _ in range(3))})


@pytest.fixture(scope="module")
def odd_prime_flags():
    """flags[i] is True exactly when 2i + 1 is prime, for 2i + 1 < LIMIT."""
    flags = np.ones(LIMIT // 2, dtype=bool)
    flags[0] = False  # 1
    for i in range(1, (int(LIMIT**0.5) + 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = False
    return flags


def test_reference_sieve_counts_the_primes_below_limit(odd_prime_flags):
    # pi(10^8) = 5,761,455, less the even prime 2
    assert int(np.count_nonzero(odd_prime_flags)) == 5_761_455 - 1


@pytest.mark.parametrize("even", EVENS)
def test_goldbach_count_matches_reference_sieve(odd_prime_flags, even):
    # first members n = 2i + 1 in [3, E/2]; the partner E - n is 2j + 1
    # with j = E/2 - 1 - i, so its flags run backwards from E/2 - 2
    half = even // 2
    top = (half - 1) // 2
    first = odd_prime_flags[1 : top + 1]
    partner = odd_prime_flags[half - 2 : half - 2 - top : -1]
    both = first & partner
    result = goldbach_count(even, survivors=True)
    assert result.count == int(np.count_nonzero(both))
    assert np.array_equal(result.survivors, 2 * np.flatnonzero(both) + 3)
    if even == LIMIT:
        assert result.count == 291_400
