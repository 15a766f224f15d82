"""The classical oracle against brute-force trial division.

The oracle sieves odd values in chunks that start from a presieve tile of
period 30030. The chunk size is drawn too (patched down to a few odd
values), which puts chunk edges inside small windows; two fixed windows
cross the tile's wrap.
"""

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


@settings(max_examples=200, deadline=None)
@given(
    integers(min_value=0, max_value=(END_MAX - 8) // 6),
    sampled_from((5, 7)),
    integers(min_value=0, max_value=END_MAX),
    sets(integers(min_value=1, max_value=30), max_size=4),
    sampled_from(CHUNKS),
)
@example(0, 7, 120, {2, 6, 8}, oracle._ORACLE_CHUNK)  # Window(7, 128): isqrt(127) < 13
@example(0, 5, 20, {2}, 1)  # Window(5, 26): (5, 7), (11, 13), (17, 19)
@example(0, 7, 160, {1}, 7)  # an odd offset
@example(0, 5, 100, {2, 4}, 64)  # (3, 5, 7) lies below every anchor
def test_oracle_matches_trial_division(sixes, residue, end_seed, offsets, chunk):
    anchor = 6 * sixes + residue
    window = Window(anchor, anchor + 1 + end_seed % (END_MAX - anchor))
    constellation = Constellation("drawn", (0, *sorted(offsets)))
    expected = _brute_count(window, constellation.offsets)
    assert _oracle(window, constellation, chunk) == expected


def test_oracle_across_the_tile_wrap():
    # index 15015 (value 30031) is where the presieve tile repeats
    cases = [(Window(29999, 30100), CHUNKS), (Window(5, 70001), (64, 1000))]
    patterns = (TWINS, Constellation("triple", (0, 2, 6)), Constellation("quint", (0, 2, 6, 8, 12)))
    for window, chunks in cases:
        for constellation in patterns:
            expected = _brute_count(window, constellation.offsets)
            for chunk in chunks:
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
