"""Differential tests of the striding core against independent oracles.

The core strides fixed blocks, so the block size is drawn too (patched
down to a few bytes' worth of entries), which puts block edges inside
windows small enough for the classical oracle.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis.strategies import booleans, integers, sampled_from, sets

from gearsieve import engine
from gearsieve.constellations import TWINS, Constellation, is_admissible
from gearsieve.engine import (
    Window,
    build_basis,
    certify,
    classical_oracle_count,
    composite_signal,
    first_candidate_above,
    goldbach_count,
    proper_signal,
)
from gearsieve.errors import InvariantError

# Block sizes must keep every block a whole number of bytes of positions.
BLOCK_SIZES = (8, 16, 64, engine._BLOCK)
# Both wheels the count path can choose, forced on windows of any size.
WHEELS = ((3, 5), (3, 5, 7))
GOLDBACH_LIMIT = 20_000


def _prime_flags(limit):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


PRIME_FLAGS = _prime_flags(GOLDBACH_LIMIT)


def _brute_values(anchor, count, primes, offsets, count_self_hits):
    n = anchor + 2 * np.arange(count)[:, None] + np.array(offsets)
    values = np.zeros(count, dtype=np.int64)
    for p in primes.tolist():
        values += ((n % p == 0) & (count_self_hits | (n != p))).sum(axis=1)
    return values


def _window_case(draw_offsets, anchor_seed, m0_half, length_seed):
    """An admissible constellation and a window [anchor, end) with end <= m0^2."""
    constellation = Constellation("drawn", (0, *sorted(draw_offsets)))
    assume(is_admissible(constellation).admissible)
    m0 = 2 * m0_half + 1
    sixes = anchor_seed % max(1, (m0 * m0 - 7) // 6)
    anchor = 6 * sixes + (5 if anchor_seed % 2 == 0 else 7)
    end = anchor + 1 + length_seed % (m0 * m0 - anchor)
    return constellation, build_basis(m0), Window(anchor, end)


@settings(max_examples=150, deadline=None)
@given(
    sets(sampled_from(range(2, 27, 2)), max_size=3),
    integers(min_value=0, max_value=15_000),
    integers(min_value=1, max_value=149),
    integers(min_value=0, max_value=10**6),
    integers(min_value=1, max_value=17),
    sampled_from(("counts", "mask")),
    booleans(),
    sampled_from(BLOCK_SIZES),
)
def test_certified_count_matches_classical_oracle(
    offsets, anchor_seed, m0_half, length_seed, segments, mode, count_self_hits, block
):
    constellation, basis, window = _window_case(offsets, anchor_seed, m0_half, length_seed)
    # a mask trace strides lazily, inside certify, so certify runs under the patch
    with mock.patch.object(engine, "_BLOCK", block):
        trace = composite_signal(
            basis, window, constellation, segments=segments,
            count_self_hits=count_self_hits, mode=mode,
        )
        got = certify(trace).count
    if count_self_hits:
        # a literal hit kills every member that is itself a basis prime,
        # so only tuples starting above m0 survive
        anchor = first_candidate_above(max(basis.m0, window.anchor - 1))
        want = 0
        if anchor < window.end:
            want = classical_oracle_count(Window(anchor, window.end), constellation)
    else:
        want = classical_oracle_count(window, constellation)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(
    sets(sampled_from(range(2, 27, 2)), max_size=3),
    integers(min_value=0, max_value=3_000),
    integers(min_value=1, max_value=60),
    integers(min_value=0, max_value=10**6),
    booleans(),
    sampled_from(BLOCK_SIZES),
)
def test_signal_matches_brute_force_and_modes_agree(
    offsets, anchor_seed, m0_half, length_seed, count_self_hits, block
):
    constellation, basis, window = _window_case(offsets, anchor_seed, m0_half, length_seed)
    with mock.patch.object(engine, "_BLOCK", block):
        counts = composite_signal(basis, window, constellation, count_self_hits=count_self_hits)
        mask = composite_signal(
            basis, window, constellation, count_self_hits=count_self_hits, mode="mask"
        )
        # mask bits are built on first use, so they are used under the patch
        mask_zeros = mask.zero_mask()
        survivors = certify(mask, survivors=True)
    want = _brute_values(
        window.anchor, window.positions, basis.primes, constellation.offsets, count_self_hits
    )
    assert counts.values.tolist() == want.tolist()
    # mask mode without self-hits skips each lane's self-hit and checks the
    # off-lane ones directly; this pins both to the whole-window truth
    assert np.array_equal(mask_zeros, counts.values == 0)
    assert survivors == certify(counts, survivors=True)
    if count_self_hits:
        derived = proper_signal(counts).values
        assert derived.tolist() == _brute_values(
            window.anchor, window.positions, basis.primes, constellation.offsets, False
        ).tolist()


@settings(max_examples=100, deadline=None)
@given(
    sets(sampled_from(range(2, 121, 2)), max_size=3),
    integers(min_value=0, max_value=2_000),
    integers(min_value=1, max_value=40),
    integers(min_value=1, max_value=3_000),
    booleans(),
    sampled_from(BLOCK_SIZES),
    sampled_from(WHEELS),
)
# m0 = 5: 7 is not in the basis, so the 105 wheel falls back to 15 lanes
@example(set(), 0, 2, 500, False, 8, (3, 5, 7))
@example({2}, 0, 2, 500, True, 16, (3, 5, 7))
# a member equal to 7 lies in a lane the 105 wheel drops; it is checked
# directly against the basis
@example({2}, 3, 10, 3_000, False, 8, (3, 5, 7))
@example({4}, 1, 10, 3_000, False, 64, (3, 5, 7))
@example({2, 6}, 0, 20, 3_000, False, 16, (3, 5, 7))
# members equal to 3, 5 and 7 without self-hits, on both wheels: off the
# lanes each is checked directly, and a lane member 7 skips its first hit
@example(set(), 1, 3, 200, False, 8, (3, 5))
@example(set(), 1, 3, 200, False, 8, (3, 5, 7))
@example({2}, 0, 5, 500, False, 16, (3, 5))
@example({2}, 0, 5, 500, False, 16, (3, 5, 7))
@example({4, 6}, 2, 12, 1_000, False, 8, (3, 5))
@example({4, 6}, 2, 12, 1_000, False, 8, (3, 5, 7))
def test_survivor_count_matches_brute_force(
    offsets, start_half, m0_half, count, count_self_hits, block, wheel
):
    # starts from 1 put the member 1 and small basis primes, so self-hits,
    # at the start of the walk
    offsets = (0, *sorted(offsets))
    start, primes = 2 * start_half + 1, build_basis(2 * m0_half + 1).primes
    want = np.flatnonzero(_brute_values(start, count, primes, offsets, count_self_hits) == 0)
    args = (start, count, primes, offsets, count_self_hits)
    with mock.patch.object(engine, "_BLOCK", block), \
            mock.patch.object(engine, "_count_wheel", lambda count, primes: wheel):
        counted = engine._survivor_count(*args)
        listed = engine._survivor_positions(*args)
    # both consumers of the one mask walk, on the same draw
    assert counted == want.size
    assert listed.dtype == np.int64
    assert listed.tolist() == want.tolist()


@settings(max_examples=80, deadline=None)
@given(
    sets(sampled_from(range(2, 27, 2)), max_size=3),
    integers(min_value=0, max_value=15_000),
    integers(min_value=1, max_value=149),
    integers(min_value=0, max_value=10**6),
    booleans(),
    sampled_from(BLOCK_SIZES),
    sampled_from(WHEELS),
)
def test_lazy_mask_count_matches_built_bits(
    offsets, anchor_seed, m0_half, length_seed, count_self_hits, block, wheel
):
    constellation, basis, window = _window_case(offsets, anchor_seed, m0_half, length_seed)
    with mock.patch.object(engine, "_BLOCK", block), \
            mock.patch.object(engine, "_count_wheel", lambda count, primes: wheel), \
            mock.patch.object(engine, "_survivor_positions", side_effect=AssertionError):
        lazy = composite_signal(
            basis, window, constellation, count_self_hits=count_self_hits, mode="mask"
        )
        counted = certify(lazy).count
    collected = []
    collect = engine._survivor_positions

    def spy(*args):
        collected.append(args)
        return collect(*args)

    with mock.patch.object(engine, "_BLOCK", block), \
            mock.patch.object(engine, "_survivor_positions", spy):
        bits = lazy.zero_bits
        assert np.array_equal(lazy.zero_bits, bits)
        # counted again from the cached positions, below in_range
        assert certify(lazy).count == counted
    assert len(collected) == 1  # strided once, then kept
    zeros = _brute_values(
        window.anchor, window.positions, basis.primes, constellation.offsets, count_self_hits
    ) == 0
    assert np.array_equal(bits, np.packbits(zeros))
    assert counted == int(np.count_nonzero(zeros[: window.in_range_positions(constellation.span)]))


@settings(max_examples=150, deadline=None)
@given(
    integers(min_value=4, max_value=GOLDBACH_LIMIT // 2),
    sampled_from(BLOCK_SIZES),
    sampled_from(WHEELS),
)
def test_goldbach_matches_brute_force(half, block, wheel):
    even = 2 * half
    n = np.arange(3, half + 1, 2)
    want = n[PRIME_FLAGS[n] & PRIME_FLAGS[even - n]]
    with mock.patch.object(engine, "_BLOCK", block), \
            mock.patch.object(engine, "_count_wheel", lambda count, primes: wheel):
        counted = goldbach_count(even)
        listed = goldbach_count(even, survivors=True)
    # the count path keeps no positions, so it is checked on its own
    assert counted.count == want.size
    assert counted.survivors is None
    assert len(listed.survivors) == want.size
    assert listed.survivors == tuple(want.tolist())


def test_goldbach_small_even_values_exhaustively():
    # every E up to 100 has members equal to 3, 5 or 7, some off the lanes
    for block in BLOCK_SIZES:
        for wheel in WHEELS:
            with mock.patch.object(engine, "_BLOCK", block), \
                    mock.patch.object(engine, "_count_wheel", lambda count, primes: wheel):
                for even in range(8, 101, 2):
                    n = np.arange(3, even // 2 + 1, 2)
                    want = n[PRIME_FLAGS[n] & PRIME_FLAGS[even - n]]
                    assert goldbach_count(even).count == want.size
                    assert goldbach_count(even, survivors=True).survivors == tuple(want.tolist())


def test_member_minus_p_is_rejected():
    # r = 4 has the members 9 and -11. The self-hit skip is exact only when
    # no member is -p, which no caller has, so the walk refuses one
    with pytest.raises(InvariantError):
        engine._survivor_count(1, 50, build_basis(11).primes, (0, -20), False)


def test_proper_mask_walk_makes_one_core_call():
    # the mask walk never recomputes a prefix through the counts path
    unreachable = mock.patch.object(engine, "signal_values", side_effect=AssertionError)
    basis, window = build_basis(31), Window(5, 31 * 31)
    with unreachable:
        counted = goldbach_count(1000)
        listed = goldbach_count(1000, survivors=True)
        proper = certify(
            composite_signal(basis, window, TWINS, count_self_hits=False, mode="mask"),
            survivors=True,
        )
        proper_count = certify(
            composite_signal(basis, window, TWINS, count_self_hits=False, mode="mask")
        ).count
    n = np.arange(3, 501, 2)
    want = n[PRIME_FLAGS[n] & PRIME_FLAGS[1000 - n]]
    assert counted.count == want.size
    assert listed.survivors == tuple(want.tolist())
    values = _brute_values(window.anchor, window.positions, basis.primes, TWINS.offsets, False)
    positions = np.flatnonzero(values[: window.in_range_positions(TWINS.span)] == 0)
    assert proper_count == proper.count == positions.size
    assert proper.survivors == tuple((window.anchor + 2 * positions).tolist())


def test_survivor_list_peak_memory_below_a_byte_per_position():
    # the survivors are a sparse set: about 1.2% of positions for twins
    # here, kept as int64, so no per-position mask may be built
    basis = build_basis(3001)
    window = Window.for_capacity(3001)
    tracemalloc.start()
    try:
        result = certify(composite_signal(basis, window, TWINS, mode="mask"), survivors=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.count == len(result.survivors) > 0
    assert peak < window.positions
