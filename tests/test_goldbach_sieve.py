"""goldbach_count against its own odd-only sieves, at random even E up to 10^9.

Up to 10^8 the reference is a sieve of Eratosthenes over the odd integers
below 10^8, crossed off by slices (an index array would hold several
hundred MB), sharing nothing with the mask walk behind goldbach_count. It
checks both the count and the list of first members. Above 10^8 a whole
sieve would hold up to 500 MB, so a two-sided segmented sieve counts the
pairs of one seeded E in [5 * 10^8, 10^9] in O(B + sqrt(E)) memory: each
segment of first members p is sieved with its mirror E - p, and the two
are ANDed. Its base primes come from its own small sieve. It streams the
p into a sha256 digest too, which checks the list of first members at
that E, and at the E where goldbach_count's wheel lanes cross a block.

The certified twin starts of the largest window, [7, 31621^2), are checked
the same way: a segmented sieve of the classes 6k + 5 and 6k + 7 streams
every twin start into a digest of the survivors `scan` certifies.
"""

import hashlib
import math
import random

import numpy as np
import pytest

from gearsieve.constellations import TWINS
from gearsieve.engine import SieveBasis, Window, certify, composite_signal, goldbach_count

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


def _reference_pairs(flags, even):
    """both[i] is True exactly when 2i + 3 and even - 2i - 3 are prime.

    First members n = 2i + 1 in [3, E/2]; the partner E - n is 2j + 1
    with j = E/2 - 1 - i, so its flags run backwards from E/2 - 2.
    """
    half = even // 2
    top = (half - 1) // 2
    return flags[1 : top + 1] & flags[half - 2 : half - 2 - top : -1]


@pytest.mark.parametrize("even", EVENS)
def test_goldbach_count_matches_reference_sieve(odd_prime_flags, even):
    both = _reference_pairs(odd_prime_flags, even)
    result = goldbach_count(even, survivors=True)
    assert result.count == int(np.count_nonzero(both))
    assert np.array_equal(result.survivors, 2 * np.flatnonzero(both) + 3)
    if even == LIMIT:
        assert result.count == 291_400


# Odd integers per segment of the two-sided sieve: 8 MB per side, about
# 30 segments at 10^9.
_SEGMENT = 1 << 23
_TOP_E = 2 * random.Random(21).randrange(25 * 10**7, 5 * 10**8 + 1)


def _odd_primes_upto(limit):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)[1:]


def _odd_segment(start, count, base):
    """flags[i] is True exactly when start + 2i is prime (start odd, >= 3).

    Each base prime p with p^2 below the segment's end crosses off its
    odd multiples from max(p^2, the first one >= start), so p itself
    stays.
    """
    flags = np.ones(count, dtype=bool)
    base = base[base * base < start + 2 * count]
    first = np.maximum(base * base, -(-start // base) * base)
    first += base * (first % 2 == 0)
    for p, i in zip(base.tolist(), ((first - start) // 2).tolist()):
        flags[i::p] = False
    return flags


def _segmented_goldbach(even, segment=_SEGMENT):
    """Odd primes p in [3, even/2] with even - p prime, a segment at a time.

    Returns their count and the sha256 of the ascending p as int64 bytes.
    The mirror of first members lo, lo + 2, ..., lo + 2(c - 1) is the odd
    run from even - lo - 2(c - 1) up to even - lo, read backwards.
    """
    base = _odd_primes_upto(math.isqrt(even))
    total = (even // 2 - 3) // 2 + 1
    count, digest = 0, hashlib.sha256()
    for i in range(0, total, segment):
        c = min(segment, total - i)
        lo = 3 + 2 * i
        first = _odd_segment(lo, c, base)
        mirror = _odd_segment(even - lo - 2 * (c - 1), c, base)
        ps = lo + 2 * np.flatnonzero(first & mirror[::-1]).astype(np.int64)
        count += ps.size
        digest.update(ps.tobytes())
    return count, digest.hexdigest()


def _digest(values):
    return hashlib.sha256(np.asarray(values, dtype=np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize("even", [8, 9_699_690, LIMIT])
def test_segmented_sieve_matches_reference_sieve(odd_prime_flags, even):
    # short segments, so that many segment edges fall inside the range
    both = _reference_pairs(odd_prime_flags, even)
    want = (int(np.count_nonzero(both)), _digest(2 * np.flatnonzero(both) + 3))
    assert _segmented_goldbach(even, 1 << 16) == want


def _longest_live_lane(even):
    """Entries in the longest lane goldbach_count strides on the 15 wheel.

    Lane c holds the first members 3 + 2c + 30t, t < ceil((count - c)/15),
    and is strided unless 3 or 5 divides a member there.
    """
    count = (even // 2 - 3) // 2 + 1
    lanes = [c for c in range(15) if all((3 + 2 * c - h) % q for q in (3, 5) for h in (0, even))]
    return max(-(-(count - c) // 15) for c in lanes)


# Near E = 60 * 2^19 the lanes of the 15 wheel, which the count rule picks
# up to E = 10^8, pass 2^19 entries, and near E = 60 * 2^20 they pass
# 2^20, one block of the core. Just below 2^20 the longest live lane ends
# one entry short of its block, at 2^20 it fills the block, and just above
# its last block holds one entry. With 15 | E, 8 of the 15 lanes are
# strided; with 3 and 5 both not dividing E, only 3 are.
BLOCK_EDGE_EVENS = [
    (31_457_280, 1 << 19),  # 15 | E
    (31_457_282, 1 << 19),
    (31_457_294, (1 << 19) + 1),
    (31_457_310, (1 << 19) + 1),  # 15 | E
    (62_914_454, (1 << 20) - 1),
    (62_914_470, (1 << 20) - 1),  # 15 | E
    (62_914_560, 1 << 20),  # 15 | E
    (62_914_562, 1 << 20),
    (62_914_574, (1 << 20) + 1),
    (LIMIT, 1_666_667),  # the top point_queries query
]


@pytest.mark.parametrize("even, longest", BLOCK_EDGE_EVENS)
def test_goldbach_at_wheel_lane_block_edges(even, longest):
    assert _longest_live_lane(even) == longest
    count, digest = _segmented_goldbach(even)
    assert goldbach_count(even).count == count
    assert _digest(goldbach_count(even, survivors=True).survivors) == digest


@pytest.fixture(scope="module")
def top_pairs():
    """One sieve pass at the top E, shared by its count and list checks."""
    assert 5 * 10**8 <= _TOP_E <= 10**9
    return _segmented_goldbach(_TOP_E)


def test_goldbach_count_at_the_top_of_the_domain(top_pairs):
    # a basis prime above sqrt(10^8) only acts here
    assert goldbach_count(_TOP_E).count == top_pairs[0]


def test_goldbach_survivors_at_the_top_of_the_domain(top_pairs):
    # every first member, not only their number, streamed into one digest
    result = goldbach_count(_TOP_E, survivors=True)
    assert (result.count, _digest(result.survivors)) == top_pairs


def _segmented_twins(m0, segment=1 << 22):
    """Twin starts p with m0 < p and p + 2 < m0^2, a segment at a time.

    Above 3 a twin pair is (6k + 5, 6k + 7), so each segment marks a run
    of k where a prime q from 5 to m0 divides either member: q | 6k + a
    exactly when k = -a / 6 mod q. Every member lies above m0, so no q
    crosses itself off. Returns the count of p and the sha256 of the
    ascending p as int64 bytes. A segment of 2^22 k is one 4 MB row, 40
    of them at m0 = 31621.
    """
    base = _odd_primes_upto(m0)[1:].tolist()
    inverses = [pow(6, -1, q) for q in base]
    k_lo, k_end = (m0 - 5) // 6 + 1, (m0 * m0 - 2) // 6
    count, digest = 0, hashlib.sha256()
    for lo in range(k_lo, k_end, segment):
        both = np.ones(min(segment, k_end - lo), dtype=bool)
        for a in (5, 7):
            for q, inverse in zip(base, inverses):
                both[-(a + 6 * lo) * inverse % q :: q] = False
        ps = 6 * (lo + np.flatnonzero(both).astype(np.int64)) + 5
        count += ps.size
        digest.update(ps.tobytes())
    return count, digest.hexdigest()


@pytest.mark.parametrize("m0", [5, 7, 101, 301])
def test_segmented_twins_match_a_whole_sieve(m0):
    # short segments, so that many segment edges fall inside the range
    ps = _odd_primes_upto(m0 * m0)
    starts = ps[:-1][(np.diff(ps) == 2) & (ps[:-1] > m0)]
    assert _segmented_twins(m0, 64) == (starts.size, _digest(starts))


def test_certified_twins_at_the_top_of_the_domain():
    # the literal signal kills every member that is a basis prime, so the
    # certified starts are the twin starts above m0 in the largest window
    m0 = 31621
    trace = composite_signal(SieveBasis(m0), Window.for_capacity(m0), TWINS, mode="mask")
    result = certify(trace, survivors=True)
    assert (result.count, _digest(result.survivors)) == _segmented_twins(m0)
