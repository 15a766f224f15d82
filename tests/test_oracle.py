"""The classical oracle against brute-force trial division, on both wheels.

The oracle sieves one admissible first lane W k + c0 at a time on a wheel
of modulus W = 30 or 210, in chunks of first-lane indices. Each chunk
starts from the lane's tile (7, 11 and 13 for W = 30, period 30030 in
value; 11, 13 and 17 for W = 210, period 510510), and first members below
31 are checked by trial division. Every check runs under both wheels, the
choice patched like the chunk size, since the oracle's own rule takes the
30 wheel for every window this small. The draws cover each part: anchors
from 5 to 29, so members equal 5, 7, 11 or 13; spans of 30 and more, so a
member sits one or more indices along from its first member; the chunk
size patched down to 1, 7 and 64 indices, so chunk edges fall inside
every lane; and windows around values 30030 and 510510, where each tile
wraps.
"""

import ast
import functools
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis.strategies import integers, sampled_from, sets

from gearsieve import engine, oracle, primes
from gearsieve.constellations import TWINS, Constellation
from gearsieve.engine import (
    SieveBasis,
    Window,
    certify,
    classical_oracle_count,
    composite_signal,
    first_candidate_above,
    goldbach_count,
)
from gearsieve.primes import is_prime_trial

CHUNKS = (1, 7, 64, oracle._ORACLE_CHUNK)
MODULI = tuple(oracle._WHEELS)
END_MAX = 5000
PRIME_FLAGS = [is_prime_trial(v) for v in range(70_001)]
# Values 510510 + c, where every lane's tile of the 210 wheel wraps.
WIDE_WRAP = math.prod((210, *oracle._WHEELS[210]))


def _brute_count(window, offsets, is_prime=PRIME_FLAGS.__getitem__):
    """All n in [anchor, end - span), even ones too, with every n + h prime."""
    return sum(
        1
        for n in range(window.anchor, window.end - offsets[-1])
        if all(is_prime(n + h) for h in offsets)
    )


def _oracle(window, constellation, chunk, modulus):
    with mock.patch.object(oracle, "_ORACLE_CHUNK", chunk), mock.patch.object(
        oracle, "_wheel_modulus", lambda lane, primes, offsets: modulus
    ):
        return classical_oracle_count(window, constellation)


def _check(anchor, end, offsets, chunk, is_prime=PRIME_FLAGS.__getitem__):
    window = Window(anchor, end)
    constellation = Constellation("drawn", (0, *sorted(offsets)))
    expected = _brute_count(window, constellation.offsets, is_prime)
    for modulus in MODULI:
        assert _oracle(window, constellation, chunk, modulus) == expected, modulus


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
    # 30030 = 30 * 1001: each lane's tile of the 30 wheel wraps between
    # values 30000 + c and 30030 + c, both inside every drawn window
    _check(6 * sixes + residue, end, offsets, chunk)


@settings(max_examples=60, deadline=None)
@given(
    integers(min_value=-120, max_value=-1),
    sampled_from((1, 5)),
    integers(min_value=WIDE_WRAP + 250, max_value=WIDE_WRAP + 900),
    sampled_from(((2,), (2, 6), (4,), (6, 12), (2, 212), (2, 6, 8))),
    sampled_from(CHUNKS),
)
@example(-35, 5, WIDE_WRAP + 300, (2,), 1)  # Window(510305, 510810)
def test_oracle_across_the_wide_tile_wrap(sixes, residue, end, offsets, chunk):
    # 510510 = 210 * 2431: each lane's tile of the 210 wheel wraps between
    # values 510300 + c and 510510 + c, both inside every drawn window.
    # Members are checked by trial division as they come, not from a table.
    _check(WIDE_WRAP + 6 * sixes + residue, end, offsets, chunk,
           functools.cache(is_prime_trial))


def test_oracle_over_many_tile_periods():
    # values up to 70001 wrap every tile of the 30 wheel twice, and put
    # chunk edges at many tile phases of both wheels
    window = Window(5, 70001)
    for constellation in (TWINS, Constellation("triple", (0, 2, 6)),
                          Constellation("quint", (0, 2, 6, 8, 12))):
        expected = _brute_count(window, constellation.offsets)
        for chunk in (64, 1000, oracle._ORACLE_CHUNK):
            for modulus in MODULI:
                assert _oracle(window, constellation, chunk, modulus) == expected


def test_oracle_peak_memory():
    # One row of at most _ORACLE_CHUNK flags is alive at a time, so the
    # peak stays below six rows of 2^20 flags, one per lane of the 30
    # wheel that holds a twin member.
    tracemalloc.start()
    try:
        assert classical_oracle_count(Window(5, 10**8), TWINS) + 1 == PI2[8]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_oracle_imports_only_math_and_numpy():
    # The oracle is independent only while it shares no code with the
    # package: an import of anything else, even inside a function, fails.
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"__future__", "math", "numpy"}, imported


def test_oracle_ignores_a_faulty_prime_table():
    # The oracle sieves its own primes. 7 is a wheel prime of the 210 wheel
    # and a tile prime of the 30 wheel, 13 a tile prime of both, and 101 is
    # strided by both; a table missing all three feeds the signal path a
    # basis with holes.
    real = primes.primes_upto

    def faulty(n):
        table = real(n)
        return table[~np.isin(table, (7, 13, 101))]

    window = Window(first_candidate_above(149), 149 * 149)
    expected = _brute_count(window, TWINS.offsets)
    with mock.patch.object(primes, "primes_upto", faulty), mock.patch.object(
        engine, "primes_upto", faulty
    ):
        signal = certify(composite_signal(SieveBasis(149), window, TWINS)).count
        assert signal != expected  # the fault is real on the signal path
        for modulus in MODULI:
            assert _oracle(window, TWINS, oracle._ORACLE_CHUNK, modulus) == expected


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
            SieveBasis(m0), Window(5, end), TWINS, count_self_hits=False, mode="mask"
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


class _Chosen(Exception):
    """Raised by the wheel spy, so that no window is sieved."""


def _chosen_wheel(window, constellation):
    """The wheel the oracle picks for a window, read before it sieves."""
    chosen = []
    pick = oracle._wheel_modulus

    def spy(*args):
        chosen.append(pick(*args))
        raise _Chosen

    with mock.patch.object(oracle, "_wheel_modulus", spy), pytest.raises(_Chosen):
        classical_oracle_count(window, constellation)
    return chosen[0]


def test_wheel_rule_keeps_every_benchmark_window():
    # large_window's oracle windows: strict windows near m0 = 1e4 take the
    # 210 wheel, and both table1 windows near m0 = 4e3 the 30 wheel
    reference = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"
    pools = json.loads(reference.read_text())["large_window"]["full"]
    triple = Constellation("tuple_0_2_6", (0, 2, 6))
    for key, constellation in (("twins", TWINS), ("triple", triple)):
        for m0 in map(int, pools[key]):
            window = Window(first_candidate_above(m0), m0 * m0)
            assert _chosen_wheel(window, constellation) == 210, (key, m0)
    for m0 in map(int, pools["table1"]):
        for window in (Window(first_candidate_above(m0), m0 * m0), Window(7, m0 * m0 + 2)):
            assert _chosen_wheel(window, TWINS) == 30, m0


def test_wheel_rule_weighs_the_first_lanes():
    # at 4e7 (231 first members per 210-lane and base prime), (0, 2, 6)
    # was 9.2 ms on the 30 wheel against 7.7 ms on the 210 wheel, and twins
    # 9.3 against 9.8 ms (README crossover table)
    triple = Constellation("tuple_0_2_6", (0, 2, 6))
    assert _chosen_wheel(Window(5, 4 * 10**7), triple) == 210
    assert _chosen_wheel(Window(5, 4 * 10**7), TWINS) == 30
    # twins cross at 4 * 68 = 272, (0, 2, 6) at 3 * 68 = 204
    for constellation, crossing in ((TWINS, 272), (triple, 204)):
        offsets = constellation.offsets
        assert oracle._wheel_modulus(crossing * 1000, 1000, offsets) == 210
        assert oracle._wheel_modulus(crossing * 1000 - 1, 1000, offsets) == 30
