"""Differential tests of the striding core against independent oracles.

The core strides fixed blocks, so the block size is drawn too (patched
down to a few bytes' worth of entries), which puts block edges inside
windows small enough for the classical oracle.
"""

import ast
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis.strategies import booleans, integers, sampled_from, sets

from gearsieve import engine
from gearsieve.constellations import TWINS, Constellation, is_admissible
from gearsieve.engine import (
    SieveBasis,
    Window,
    certify,
    classical_oracle_count,
    composite_signal,
    first_candidate_above,
    goldbach_count,
    signal_sums,
    signal_values,
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
    # without self-hits, a member equal to +p or -p is not struck by p
    n = anchor + 2 * np.arange(count)[:, None] + np.array(offsets)
    values = np.zeros(count, dtype=np.int64)
    for p in primes.tolist():
        values += ((n % p == 0) & (count_self_hits | (np.abs(n) != p))).sum(axis=1)
    return values


def _window_case(draw_offsets, anchor_seed, m0_half, length_seed):
    """An admissible constellation and a window [anchor, end) with end <= m0^2."""
    constellation = Constellation("drawn", (0, *sorted(draw_offsets)))
    assume(is_admissible(constellation).admissible)
    m0 = 2 * m0_half + 1
    sixes = anchor_seed % max(1, (m0 * m0 - 7) // 6)
    anchor = 6 * sixes + (5 if anchor_seed % 2 == 0 else 7)
    end = anchor + 1 + length_seed % (m0 * m0 - anchor)
    return constellation, SieveBasis(m0), Window(anchor, end)


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
    listed = certify(counts, survivors=True)
    assert survivors.count == listed.count
    assert np.array_equal(survivors.survivors, listed.survivors)


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
    start, primes = 2 * start_half + 1, SieveBasis(2 * m0_half + 1).primes
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

    # every block size is a multiple of 8, so it is a packing step too
    with mock.patch.object(engine, "_BLOCK", block), \
            mock.patch.object(engine, "_PACK", block), \
            mock.patch.object(engine, "_survivor_positions", spy):
        bits = lazy.zero_bits
        assert np.array_equal(lazy.zero_bits, bits)
        # the trace keeps no positions: a count after the bits walks again
        assert certify(lazy).count == counted
    # each read of the bits walks the whole window once; the count lists none
    assert [args[1] for args in collected] == [window.positions] * 2
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
    assert listed.survivors.tolist() == want.tolist()


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
                    assert goldbach_count(even, survivors=True).survivors.tolist() == want.tolist()


def test_member_minus_p_is_rejected():
    # r = 4 has the members 9 and -11. The self-hit skip is exact only when
    # no member is -p, which no caller has, so the walk refuses one
    with pytest.raises(InvariantError):
        engine._survivor_count(1, 50, SieveBasis(11).primes, (0, -20), False)
    # r = 0 has the members 1 and -23; the 15 wheel's tile is 7*11*13*17,
    # so -23 is the only -p member and 23 a prime the core strides
    with pytest.raises(InvariantError):
        engine._survivor_count(1, 1, SieveBasis(31).primes, (0, -24), False)


def test_proper_mask_walk_makes_one_core_call():
    # the mask walk never recomputes a prefix through the counts path
    unreachable = mock.patch.object(engine, "signal_values", side_effect=AssertionError)
    basis, window = SieveBasis(31), Window(5, 31 * 31)
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
    assert listed.survivors.tolist() == want.tolist()
    values = _brute_values(window.anchor, window.positions, basis.primes, TWINS.offsets, False)
    positions = np.flatnonzero(values[: window.in_range_positions(TWINS.span)] == 0)
    assert proper_count == proper.count == positions.size
    assert proper.survivors.tolist() == (window.anchor + 2 * positions).tolist()


def test_survivor_list_peak_memory_below_a_byte_per_position():
    # the survivors are a sparse set: about 1.2% of positions for twins
    # here, kept as int64, so no per-position mask may be built
    basis = SieveBasis(3001)
    window = Window.for_capacity(3001)
    tracemalloc.start()
    try:
        result = certify(composite_signal(basis, window, TWINS, mode="mask"), survivors=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.count == len(result.survivors) > 0
    assert peak < window.positions


def test_survivor_list_costs_at_most_24_bytes_a_survivor():
    # the starts are one int64 array; a tuple of Python ints took 64 bytes
    # a survivor here
    basis, window = SieveBasis(10001), Window.for_capacity(10001)
    trace = composite_signal(basis, window, TWINS, mode="mask")
    tracemalloc.start()
    try:
        result = certify(trace, survivors=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.count == result.survivors.size == 440191
    assert peak <= 24 * result.count


def test_survivors_are_a_read_only_ascending_int64_array():
    basis, window = SieveBasis(101), Window.for_capacity(101)
    results = [
        certify(composite_signal(basis, window, TWINS, mode=mode), survivors=True)
        for mode in ("counts", "mask")
    ]
    results.append(goldbach_count(10**4, survivors=True))
    for result in results:
        starts = result.survivors
        assert starts.dtype == np.int64 and not starts.flags.writeable
        assert starts.size == result.count > 0
        assert np.all(np.diff(starts) > 0)
        with pytest.raises(ValueError):
            starts[0] = 0
    assert np.array_equal(results[0].survivors, results[1].survivors)


def _sums_oracle(basis, window, constellation, signal=_brute_values):
    """The streamed sums, taken from whole-window signals (brute force
    unless another signal function is given)."""
    args = (window.anchor, window.positions, basis.primes, constellation.offsets)
    literal = signal(*args, True).astype(np.int64)
    proper = signal(*args, False).astype(np.int64)
    in_range = window.in_range_positions(constellation.span)
    return engine.SignalSums(
        positions=window.positions,
        literal_sum=int(literal.sum()),
        literal_squares=int(literal @ literal),
        proper_sum=int(proper.sum()),
        proper_squares=int(proper @ proper),
        strict=int(np.count_nonzero(literal[:in_range] == 0)),
        inclusive=int(np.count_nonzero(proper == 0)),
    )


@settings(max_examples=100, deadline=None)
@given(
    sets(sampled_from(range(2, 27, 2)), max_size=3),
    integers(min_value=0, max_value=3_000),
    integers(min_value=1, max_value=60),
    integers(min_value=0, max_value=10**6),
    sampled_from(BLOCK_SIZES),
)
# anchor 5: the first members are basis primes, so the proper sums differ
# from the literal ones, and the self-hits straddle block edges
@example({2}, 0, 20, 10**6, 8)
@example({2, 6}, 0, 20, 10**6, 16)
@example({4, 6}, 0, 3, 10**6, 64)
# the member 17 + 6 = 23 of r = 6 is read from entry 9 of an 8-entry
# block's omega row, inside its reach
@example({2, 6}, 0, 20, 10**6, 8)
# reach 13 is longer than a block of 8; the self-hit 15 + 26 = 41 of
# r = 5 is read from entry 18 of the first row
@example({2, 26}, 0, 20, 10**6, 8)
# 19 positions: the last row holds 3 of them, and the window ends inside
# its reach
@example({2, 26}, 0, 20, 36, 8)
# 3 positions, fewer than the reach: the only row is 3 + 13 entries
@example({2, 26}, 0, 20, 4, 8)
def test_signal_sums_match_brute_force(offsets, anchor_seed, m0_half, length_seed, block):
    constellation, basis, window = _window_case(offsets, anchor_seed, m0_half, length_seed)
    with mock.patch.object(engine, "_BLOCK", block):
        sums = signal_sums(basis, window, constellation)
    assert sums == _sums_oracle(basis, window, constellation)


def test_signal_sums_take_the_wide_counter():
    # 16 offsets near 1e8 bound the signal above 255, so the core counts
    # in uint16 and the squares are summed in uint32
    constellation = Constellation(
        "sixteen", (0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42, 48, 50, 56, 62)
    )
    basis, window = SieveBasis(101), Window(10**8 + 1, 10**8 + 1_001)
    assert is_admissible(constellation).admissible
    assert engine._counter_dtype(window.anchor, window.positions, constellation.offsets) == np.uint16
    want = _sums_oracle(basis, window, constellation)
    for block in BLOCK_SIZES:
        with mock.patch.object(engine, "_BLOCK", block):
            assert signal_sums(basis, window, constellation) == want


def test_sum_of_squares_is_exact():
    # 2^19 + 3 squares of 255 sum to about 3.4e10, past a plain uint32 sum,
    # and the wide counter's squares of 65535 to about 2.3e15
    size = (1 << 19) + 3
    for top, dtype in ((255, np.uint16), (65535, np.uint32)):
        block = np.full(size, top * top, dtype=dtype)
        assert engine._sum_of_squares(block) == top * top * size
        assert engine._sum_of_squares(block[: (1 << 16) + 1]) == top * top * ((1 << 16) + 1)
        assert engine._sum_of_squares(block[:0]) == 0
    block = np.random.default_rng(24).integers(0, 256, size).astype(np.uint16) ** 2
    assert engine._sum_of_squares(block) == sum(block.tolist())


@pytest.mark.parametrize("offsets", [(0, 2), (0, 2, 6)])
@pytest.mark.parametrize("edge", [0, -1, 1])
def test_signal_sums_at_the_in_range_block_edge(offsets, edge):
    # in_range falls on a block edge (0), one entry before it (-1) or one
    # after it (+1), with that edge closing the first block or a later
    # one. The last position, 881 (881, 883 and 887 are prime), is a
    # literal zero past in_range, which strict must not count.
    constellation = Constellation("drawn", offsets)
    basis, window = SieveBasis(31), Window(7, 883)
    want = _sums_oracle(basis, window, constellation)
    assert _brute_values(881, 1, basis.primes, offsets, True)[0] == 0
    edge_at = window.in_range_positions(constellation.span) - edge
    first_factor = next(k for k in range(2, edge_at + 1) if edge_at % k == 0)
    for blocks in (1, first_factor):
        with mock.patch.object(engine, "_BLOCK", edge_at // blocks):
            assert signal_sums(basis, window, constellation) == want


@pytest.mark.parametrize(
    "offsets",
    [(0, 2), (0, 2, 6), (0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42, 48, 50, 56, 62)],
)
def test_signal_sums_make_one_omega_stride(offsets):
    # every offset reads the one offset-0 row, shifted by h/2, and every
    # counts-mode entry point makes that one core call
    calls = []
    stride = engine._stride_blocks

    def spy(*args, **kwargs):
        calls.append((args[3], kwargs.get("reach")))
        return stride(*args, **kwargs)

    constellation = Constellation("drawn", offsets)
    basis, window = SieveBasis(101), Window(5, 101 * 101)
    args = (window.anchor, window.positions, basis.primes, offsets)
    one_stride = [((0,), offsets[-1] // 2)]
    with mock.patch.object(engine, "_stride_blocks", spy):
        sums = signal_sums(basis, window, constellation)
        assert calls == one_stride
        calls.clear()
        values = signal_values(*args, count_self_hits=False)
        assert calls == one_stride
        calls.clear()
        trace = composite_signal(basis, window, constellation)
        assert calls == one_stride
    assert sums == _sums_oracle(basis, window, constellation)
    assert values.tolist() == _brute_values(*args, False).tolist()
    assert trace.values.tolist() == _brute_values(*args, True).tolist()


@settings(max_examples=100, deadline=None)
@given(
    sets(sampled_from(range(-60, 61, 2)), max_size=3),
    integers(min_value=-200, max_value=2_000),
    integers(min_value=1, max_value=40),
    integers(min_value=0, max_value=600),
    booleans(),
    sampled_from(BLOCK_SIZES),
)
# Goldbach's shape (0, -E): members from 1 - E up, some equal to -p
@example({-100}, 1, 10, 60, True, 8)
@example({-100}, 1, 10, 60, False, 8)
# the omega row starts at 1 - 60 and reaches 30 past each block of 8
@example({-60, 2}, 1, 5, 40, False, 8)
def test_signal_values_take_negative_even_offsets(
    offsets, start, m0_half, count, count_self_hits, block
):
    # the omega stride starts at the smallest member, so any even offsets
    # and any start, even or odd, give the brute-force signal
    offsets = (0, *sorted(offsets - {0}))
    primes = SieveBasis(2 * m0_half + 1).primes
    with mock.patch.object(engine, "_BLOCK", block):
        got = signal_values(start, count, primes, offsets, count_self_hits)
    want = _brute_values(start, count, primes, offsets, count_self_hits)
    assert got.tolist() == want.tolist()


def test_signal_values_reject_odd_offsets():
    # an odd offset is no shift of the omega row; no admissible tuple has one
    primes = SieveBasis(31).primes
    with mock.patch.object(engine, "_stride_blocks", side_effect=AssertionError):
        for offsets in ((0, 1), (0, 2, 5), (0, -3)):
            with pytest.raises(ValueError, match="even"):
                signal_values(7, 100, primes, offsets)


@pytest.mark.parametrize("count_self_hits", [True, False])
def test_zero_bits_pack_from_positions_without_a_mask(count_self_hits):
    basis, window = SieveBasis(4001), Window.for_capacity(4001)
    trace = composite_signal(
        basis, window, TWINS, count_self_hits=count_self_hits, mode="mask"
    )
    # the walk is measured elsewhere; only the packing is traced here
    positions = engine._survivor_positions(*trace._core_args(window.positions))
    with mock.patch.object(engine, "_survivor_positions", return_value=positions):
        tracemalloc.start()
        try:
            bits = trace.zero_bits
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert np.array_equal(bits, np.packbits(trace.zero_mask()))
    # the bits are an eighth of a byte per position; a whole-window bool
    # mask would be a byte
    assert peak < window.positions / 4


def _edge_lengths(block):
    """Lane lengths one short of a block, whole, one past, and two last
    blocks: one entry long and one entry short of whole."""
    return (block - 1, block, block + 1, 2 * block + 1, 3 * block - 1)


def _row_size_spy(sizes):
    """_stride_blocks, recording each row's length beside the one it must have."""
    stride = engine._stride_blocks

    def spy(start, count, primes, offsets, modulus, lanes, dtype, count_self_hits, reach=0):
        n_t = -(-count // modulus)
        core = stride(start, count, primes, offsets, modulus, lanes, dtype, count_self_hits, reach)
        for t_lo, i, row in core:
            sizes.append((row.size, min(engine._BLOCK, n_t - t_lo) + reach))
            yield t_lo, i, row

    return spy


@pytest.mark.parametrize("block", [8, 16, 64])
@pytest.mark.parametrize("shape", ["twins", "triplet", "goldbach"])
@pytest.mark.parametrize("count_self_hits", [True, False])
def test_mask_rows_hold_only_live_entries(block, shape, count_self_hits):
    # the last block of a lane strides and yields only the entries left in
    # it, and the walk still finds every brute-force survivor
    primes = SieveBasis(31).primes
    for n_t in _edge_lengths(block):
        # every lane n_t entries long, then only the first eight of 15
        for count in (15 * n_t, 15 * n_t - 7):
            if shape == "goldbach":
                # E = 4 count + 2 has count first members 3, 5, ... below
                # E/2, and every partner n - E lies below -31
                start, offsets = 3, (0, -(4 * count + 2))
            else:
                start, offsets = 5, {"twins": (0, 2), "triplet": (0, 2, 6)}[shape]
            args = (start, count, primes, offsets, count_self_hits)
            sizes = []
            with mock.patch.object(engine, "_BLOCK", block), \
                    mock.patch.object(engine, "_count_wheel", lambda count, primes: (3, 5)), \
                    mock.patch.object(engine, "_stride_blocks", _row_size_spy(sizes)):
                counted = engine._survivor_count(*args)
                listed = engine._survivor_positions(*args)
            want = np.flatnonzero(_brute_values(*args) == 0)
            assert counted == want.size
            assert listed.tolist() == want.tolist()
            assert sizes and all(got == live for got, live in sizes), (n_t, count)


@pytest.mark.parametrize("block", [8, 16, 64])
@pytest.mark.parametrize("offsets", [(0, 2), (0, 2, 6)])
def test_counts_rows_hold_live_entries_and_reach(block, offsets):
    # counts mode strides one lane of every position, with a reach of
    # (max h)/2 entries past each block; the last row keeps that reach
    constellation = Constellation("drawn", offsets)
    basis = SieveBasis(31)
    for count in _edge_lengths(block):
        window = Window(5, 5 + 2 * count)
        args = (window.anchor, count, basis.primes, offsets)
        sizes = []
        with mock.patch.object(engine, "_BLOCK", block), \
                mock.patch.object(engine, "_stride_blocks", _row_size_spy(sizes)):
            sums = signal_sums(basis, window, constellation)
            values = signal_values(*args)
        assert sums == _sums_oracle(basis, window, constellation)
        assert values.tolist() == _brute_values(*args, True).tolist()
        assert sizes and all(got == live for got, live in sizes), count


def _reference_rows(start, count, primes, offsets, modulus, lanes, dtype, count_self_hits, reach):
    """Every lane's whole row, zero-filled and then strided by every prime
    not dividing modulus, each hit counted (or flagged) once per member."""
    ps = [p for p in primes.tolist() if modulus % p != 0]
    # the tile primes: the smallest, while their product stays in the period
    tiled, period = 0, 1
    while tiled < len(ps) and period * ps[tiled] <= engine._TILE_PERIOD:
        period *= ps[tiled]
        tiled += 1
    n_t = -(-count // modulus)
    rows = []
    for c in lanes:
        row = np.zeros(n_t + reach, dtype=np.int64)
        t = np.arange(row.size)
        for k, p in enumerate(ps):
            for h in offsets:
                base = start + 2 * c + h
                row[-base * pow(2 * modulus, -1, p) % p :: p] += 1
                if not count_self_hits and k >= tiled:
                    # the member +p is not a hit of its own strided prime; a
                    # tile prime's self-hit stays, for the walk to check
                    row -= base + 2 * modulus * t == p
        rows.append(row.astype(dtype))
    return rows


def _check_rows(start, count, primes, offsets, modulus, lanes, dtype, count_self_hits, reach=0):
    args = (start, count, primes, offsets, modulus, lanes, dtype, count_self_hits, reach)
    want = _reference_rows(*args)
    seen = 0
    for t_lo, i, row in engine._stride_blocks(*args):
        assert row.dtype == dtype
        assert row.tolist() == want[i][t_lo : t_lo + row.size].tolist(), (t_lo, lanes[i])
        seen += row.size
    n_t = -(-count // modulus)
    blocks = -(-n_t // engine._BLOCK)
    assert seen == len(lanes) * (n_t + blocks * reach)


# Members from 3 up equal the tile primes of every tile: 3 to 13 for the
# counts lane, 7 to 17 on the 15 wheel, 11 to 19 on the 105 wheel.
TILE_STARTS = range(3, 24, 2)
# Blocks for the tile-row tests: three that split their rows, and one
# longer than every row there, as the engine's own block is.
TILE_ROW_BLOCKS = (8, 16, 64, 1 << 19)


@pytest.mark.parametrize("block", TILE_ROW_BLOCKS)
@pytest.mark.parametrize("count_self_hits", [True, False])
@pytest.mark.parametrize("m0", [5, 7, 61])
def test_counts_rows_start_from_the_tile(block, count_self_hits, m0):
    # the single counts lane: tile primes 3, 5, 7, 11 and 13 (fewer below
    # m0 = 13), the rest strided, rows reaching 1 or 3 entries past a block
    primes = SieveBasis(m0).primes
    with mock.patch.object(engine, "_BLOCK", block):
        for start in TILE_STARTS:
            for reach in (1, 3):
                _check_rows(start, 300, primes, (0,), 1, [0], np.uint8, count_self_hits, reach)


@pytest.mark.parametrize("block", TILE_ROW_BLOCKS)
@pytest.mark.parametrize("count_self_hits", [True, False])
@pytest.mark.parametrize("modulus", [15, 105])
@pytest.mark.parametrize("m0", [5, 7, 61])
def test_mask_rows_start_from_the_tile(block, count_self_hits, modulus, m0):
    # every lane of the 15 and 105 wheels, tile primes 7 to 17 or 11 to 19;
    # m0 = 5 leaves no tile prime, and m0 = 7 none on the 105 wheel
    primes = SieveBasis(m0).primes
    with mock.patch.object(engine, "_BLOCK", block):
        for start in TILE_STARTS:
            for offsets in ((0, 2), (0, 2, 6)):
                _check_rows(start, 40 * modulus - 3, primes, offsets, modulus,
                            list(range(modulus)), bool, count_self_hits)


def test_tile_periods():
    # the smallest strided primes whose product stays within the cap
    calls = []
    fill = engine._fill_from_tile

    def spy(view, tile, phase):
        calls.append(tile.size // 2)
        return fill(view, tile, phase)

    primes = SieveBasis(101).primes
    with mock.patch.object(engine, "_fill_from_tile", spy):
        for modulus, period in ((1, 3 * 5 * 7 * 11 * 13), (15, 7 * 11 * 13 * 17),
                                (105, 11 * 13 * 17 * 19)):
            calls.clear()
            list(engine._stride_blocks(7, 1000, primes, (0, 2), modulus, [1], bool, True))
            assert set(calls) == {period} and period <= engine._TILE_PERIOD


def test_inverses_match_pow():
    primes = SieveBasis(math.isqrt(engine.MAX_WINDOW_END) | 1).primes
    for modulus in (1, 15, 105):
        ps = primes[modulus % primes != 0]
        want = [pow(2 * modulus, -1, p) for p in ps.tolist()]
        assert engine._inverses(2 * modulus, ps).tolist() == want


def test_goldbach_matches_brute_force_for_every_small_even():
    # every E in [8, 4000]: members equal to the tile primes 7 to 17 lie in
    # the first rows of the 15 wheel's lanes, where the tile holds their
    # literal hits and the walk checks those positions directly
    for even in range(8, 4001, 2):
        n = np.arange(3, even // 2 + 1, 2)
        want = n[PRIME_FLAGS[n] & PRIME_FLAGS[even - n]]
        assert goldbach_count(even).count == want.size, even
        assert goldbach_count(even, survivors=True).survivors.tolist() == want.tolist(), even


@settings(max_examples=60, deadline=None)
@given(
    sets(sampled_from(range(2, 27, 2)), max_size=3),
    integers(min_value=0, max_value=10**6),
    integers(min_value=1, max_value=400),
    integers(min_value=1, max_value=400_000),
)
# 20 positions, values 5 to 43, against primes up to 61: 47, 53, 59 and
# 61 first divide a member past the window's last position
@example(set(), 0, 30, 40)
# one position (members 11, 13 and 17), shorter than every prime
@example({2, 6}, 1, 30, 1)
def test_signal_sums_match_signal_values(offsets, anchor_seed, m0_half, length):
    # windows far longer than the brute-force ones; the literal Σ S comes
    # from each (prime, offset) pair's closed-form count of hits
    constellation = Constellation("drawn", (0, *sorted(offsets)))
    assume(is_admissible(constellation).admissible)
    anchor = 6 * anchor_seed + 5
    basis, window = SieveBasis(2 * m0_half + 1), Window(anchor, anchor + length)
    assert signal_sums(basis, window, constellation) == _sums_oracle(
        basis, window, constellation, signal_values
    )


def test_no_augmented_assignment_to_a_stepped_slice():
    # x[a::p] += y updates the strided view in place and then copies it
    # back onto itself, a second strided pass; the view is updated alone
    # as `strided = x[a::p]; strided += y`.
    found = []
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript):
                if any(
                    isinstance(part, ast.Slice) and part.step is not None
                    for part in ast.walk(node.target.slice)
                ):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, (
        f"augmented assignment to a stepped slice at {', '.join(found)}: the copy-back "
        "is a second strided pass, 22% of the counts stride's time at m0 = 4077; "
        "write `strided = x[a::p]; strided += y`"
    )
