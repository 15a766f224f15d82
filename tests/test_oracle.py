"""The classical oracle against brute-force trial division.

The oracle sieves the 8 lanes 30k + c with gcd(c, 30) = 1 in chunks of
lane indices, each chunk starting from the lane's tile for 7, 11 and 13
(period 1001 indices, 30030 in value), and checks first members below 31
by trial division. The draws cover each part: anchors from 5 to 29, so
members equal 5, 7, 11 or 13; spans of 30 and more, so a member sits one
or more indices along in its lane; the chunk size patched down to 1, 7
and 64 indices, so chunk edges fall inside every lane; and windows around
value 30030, where every lane's tile wraps.
"""

import math
from unittest import mock

from hypothesis import example, given, settings
from hypothesis.strategies import integers, sampled_from, sets

from gearsieve import engine, oracle, primes
from gearsieve.constellations import TWINS, Constellation
from gearsieve.engine import (
    Window,
    build_basis,
    certify,
    classical_oracle_count,
    composite_signal,
    first_candidate_above,
    goldbach_count,
)
from gearsieve.primes import is_prime_trial

CHUNKS = (1, 7, 64, oracle._ORACLE_CHUNK)
END_MAX = 5000
PRIME_FLAGS = [is_prime_trial(v) for v in range(70_001)]


def _brute_count(window, offsets):
    """All n in [anchor, end - span), even ones too, with every n + h prime."""
    return sum(
        1
        for n in range(window.anchor, window.end - offsets[-1])
        if all(PRIME_FLAGS[n + h] for h in offsets)
    )


def _oracle(window, constellation, chunk):
    with mock.patch.object(oracle, "_ORACLE_CHUNK", chunk):
        return classical_oracle_count(window, constellation)


def _check(anchor, end, offsets, chunk):
    window = Window(anchor, end)
    constellation = Constellation("drawn", (0, *sorted(offsets)))
    expected = _brute_count(window, constellation.offsets)
    assert _oracle(window, constellation, chunk) == expected


@settings(max_examples=200, deadline=None)
@given(
    integers(min_value=0, max_value=(END_MAX - 8) // 6),
    sampled_from((5, 7)),
    integers(min_value=0, max_value=END_MAX),
    sets(integers(min_value=1, max_value=40), max_size=4),
    sampled_from(CHUNKS),
)
@example(0, 7, 120, {2, 6, 8}, oracle._ORACLE_CHUNK)  # Window(7, 128): isqrt(127) < 13
@example(0, 5, 20, {2}, 1)  # Window(5, 26): (5, 7), (11, 13), (17, 19)
@example(0, 7, 160, {1}, 7)  # an odd offset
@example(0, 5, 100, {2, 4}, 64)  # (3, 5, 7) lies below every anchor
@example(5, 5, 2000, {32}, 7)  # span 32: the second member one index along
@example(5, 5, 2000, {2, 36}, 1)  # (0, 2, 36)
def test_oracle_matches_trial_division(sixes, residue, end_seed, offsets, chunk):
    anchor = 6 * sixes + residue
    _check(anchor, anchor + 1 + end_seed % (END_MAX - anchor), offsets, chunk)


@settings(max_examples=150, deadline=None)
@given(
    sampled_from((5, 7, 11, 13, 17, 19, 23, 25, 29)),
    integers(min_value=1, max_value=400),
    sets(integers(min_value=1, max_value=40), max_size=3),
    sampled_from(CHUNKS),
)
@example(5, 3, {2}, 1)  # (5, 7) alone
@example(5, 40, {2, 6}, 7)  # (5, 7, 11), (7, 11, 13), (11, 13, 17)
@example(5, 60, {6, 8}, 64)  # (5, 11, 13)
@example(7, 100, {4, 6}, 1)  # (7, 11, 13)
def test_oracle_small_first_members(anchor, length, offsets, chunk):
    # first members below 31 take the oracle's direct check
    _check(anchor, anchor + length, offsets, chunk)


@settings(max_examples=60, deadline=None)
@given(
    integers(min_value=4834, max_value=4999),
    sampled_from((5, 7)),
    integers(min_value=30060, max_value=31000),
    sampled_from(((2,), (2, 6), (4,), (6, 12), (2, 32))),
    sampled_from((1, 7, 64)),
)
@example(4999, 5, 30100, (2,), 1)  # Window(29999, 30100)
def test_oracle_across_the_tile_wrap(sixes, residue, end, offsets, chunk):
    # 30030 = 30 * 1001: each lane's tile wraps between values 30000 + c
    # and 30030 + c, both inside every drawn window
    _check(6 * sixes + residue, end, offsets, chunk)


def test_oracle_over_many_tile_periods():
    # values up to 70001 wrap every lane's tile twice
    window = Window(5, 70001)
    for constellation in (TWINS, Constellation("triple", (0, 2, 6)),
                          Constellation("quint", (0, 2, 6, 8, 12))):
        expected = _brute_count(window, constellation.offsets)
        for chunk in (64, 1000, oracle._ORACLE_CHUNK):
            assert _oracle(window, constellation, chunk) == expected


def test_oracle_ignores_a_faulty_prime_table():
    # 7 is presieved by the oracle's tile and 101 is strided; a table
    # missing both feeds the signal path a basis with holes.
    real = primes.primes_upto

    def faulty(n):
        table = real(n)
        return table[(table != 7) & (table != 101)]

    window = Window(first_candidate_above(149), 149 * 149)
    expected = _brute_count(window, TWINS.offsets)
    with mock.patch.object(primes, "primes_upto", faulty), mock.patch.object(
        engine, "primes_upto", faulty
    ):
        signal = certify(composite_signal(build_basis(149), window, TWINS)).count
        assert signal != expected  # the fault is real on the signal path
        assert classical_oracle_count(window, TWINS) == expected


# Twin prime pairs below 10^k (OEIS A007508) and primes below 10^8
# (OEIS A006880), as published.
PI2 = {3: 35, 4: 205, 5: 1224, 6: 8169, 7: 58980, 8: 440312, 9: 3424506}
PI_1E8 = 5761455


def test_published_counts():
    # a third oracle: both sieves must reproduce the published counts.
    # (3, 5) and the primes 2 and 3 lie below every anchor.
    for k, want in PI2.items():
        end = 10**k
        assert classical_oracle_count(Window(5, end), TWINS) + 1 == want
        if k > 8:
            continue
        m0 = math.isqrt(end - 1) + 1
        m0 += 1 - m0 % 2
        trace = composite_signal(
            build_basis(m0), Window(5, end), TWINS, count_self_hits=False, mode="mask"
        )
        assert certify(trace).count + 1 == want
    primes_only = Constellation("prime", (0,))
    assert classical_oracle_count(Window(5, 10**8), primes_only) + 2 == PI_1E8


# Goldbach partitions r(10^k): the n <= 10^k/2 with n and 10^k - n both
# prime, for k = 1..9 (OEIS A065577), as published.
GOLDBACH_R = (2, 6, 28, 127, 810, 5402, 38807, 291400, 2274205)


def test_published_goldbach_counts():
    for k, want in enumerate(GOLDBACH_R, start=1):
        assert goldbach_count(10**k).count == want
    assert len(goldbach_count(10**6, survivors=True).survivors) == GOLDBACH_R[5]
