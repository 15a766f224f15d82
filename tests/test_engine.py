"""Windowed signal evaluation, certification, and the classical oracle."""

import json
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from gearsieve import engine
from gearsieve.constellations import COUSINS, SEXY, TWINS, Constellation
from gearsieve.engine import (
    MAX_WINDOW_END,
    SieveBasis,
    Window,
    certify,
    classical_oracle_count,
    composite_signal,
    first_candidate_above,
    goldbach_count,
    signal_values,
    torus_average,
)
from gearsieve.diophantine import CanonicalSeed, canonical_seed, gear_sequence, structural_is_prime
from gearsieve.harness import sweep_basis
from gearsieve.primes import odd_primes_upto


def _local_prime_set(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return {n for n in range(limit + 1) if flags[n]}


def _brute_signal(anchor, count, primes, offsets, count_self_hits):
    """Directly count divisor hits per position, one modulo at a time."""
    values = []
    for r in range(count):
        start = anchor + 2 * r
        hits = 0
        for p in primes:
            for h in offsets:
                member = start + h
                if member % p == 0 and (count_self_hits or member != p):
                    hits += 1
        values.append(hits)
    return values


def test_window_validation():
    with pytest.raises(ValueError):
        Window(8, 100)  # even anchor
    with pytest.raises(ValueError):
        Window(9, 100)  # divisible by three
    with pytest.raises(ValueError):
        Window(7, 7)  # empty
    with pytest.raises(ValueError):
        Window(1, 101 * 101)  # proper signal certified (1, 3): 211 twins, oracle 210
    with pytest.raises(ValueError):
        Window(-5, 101 * 101)  # proper signal certified 212 twins, oracle 213
    w = Window(7, 900)
    assert w.length == 893
    assert w.positions == 447
    assert w.value_at(0) == 7 and w.value_at(446) == 899


def test_window_for_capacity():
    w = Window.for_capacity(30)
    assert (w.anchor, w.end) == (7, 900)
    w = Window.for_capacity(101, anchor=11)
    assert (w.anchor, w.end) == (11, 10201)


def test_in_range_positions():
    w = Window(7, 900)
    assert w.in_range_positions(0) == 447
    assert w.in_range_positions(2) == 446
    # a span wider than the window leaves nothing in range
    assert w.in_range_positions(1000) == 0


def test_sieve_basis():
    basis = SieveBasis(29)
    assert list(basis.primes) == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert basis.m0 == 29
    with pytest.raises(ValueError):
        SieveBasis(30)
    with pytest.raises(ValueError):
        SieveBasis(1)


def test_a_basis_derives_its_primes_from_its_bound():
    # a hand-built prime list used to be stored unchecked: [3, 7] at m0 = 11
    # certified 14 twins over [7, 121) against 7, and a repeated 11 made
    # the literal signal sum 99 against 88
    basis = SieveBasis(11)
    assert basis.primes.tolist() == odd_primes_upto(11).tolist() == [3, 5, 7, 11]
    assert basis.primes is basis.primes and not basis.primes.flags.writeable
    with pytest.raises(ValueError):
        basis.primes[0] = 7
    for primes in ([3, 7], [3, 5, 7, 11, 11], [3, 5, 7, 9, 11]):
        with pytest.raises(TypeError):
            SieveBasis(m0=11, primes=np.array(primes, dtype=np.int64))
    for m0 in (-3, 1, 2, 10):
        with pytest.raises(ValueError, match="must be an odd integer >= 3"):
            SieveBasis(m0)


def test_basis_and_window_take_integers_only():
    # SieveBasis(11.5) used to build with primes [3, 5, 7, 11], and
    # Window.for_capacity(11.5) gave Window(7, 132.25)
    for bad in (11.0, 11.5, "11"):
        with pytest.raises(TypeError, match="m0 must be an integer"):
            SieveBasis(bad)
        with pytest.raises(TypeError, match="m0 must be an integer"):
            Window.for_capacity(bad)
        with pytest.raises(TypeError, match="anchor must be an integer"):
            Window(bad, 200)
        with pytest.raises(TypeError, match="end must be an integer"):
            Window(7, bad)
    # a numpy int passes and is stored as an int
    basis = SieveBasis(np.int64(11))
    assert type(basis.m0) is int and basis.primes.tolist() == [3, 5, 7, 11]
    for window in (Window.for_capacity(np.int64(11)), Window(np.int64(7), np.int64(121))):
        assert window == Window(7, 121)
        assert type(window.anchor) is int and type(window.end) is int
    # the diophantine entry points: structural_is_prime(97.0) and
    # canonical_seed(10.5) raised "tuple indices must be integers", and
    # gear_sequence(10.5) an AttributeError
    for call, message in ((canonical_seed, "n must be an integer"),
                          (structural_is_prime, "n must be an integer"),
                          (gear_sequence, "seed must be a CanonicalSeed")):
        for bad in (97.0, 10.5, "11"):
            with pytest.raises(TypeError, match=message):
                call(bad)
    with pytest.raises(TypeError, match="seed.m0 must be an integer"):
        gear_sequence(CanonicalSeed(n=37, n0=2, m0=11.0))
    seed = canonical_seed(np.int64(37))
    assert seed == canonical_seed(37) and type(seed.n) is int and type(seed.m0) is int
    assert structural_is_prime(np.int64(97)) is True and structural_is_prime(np.int64(91)) is False
    assert gear_sequence(seed) == gear_sequence(canonical_seed(37))


def test_certify_refuses_a_window_its_basis_does_not_cover():
    # every odd composite below (m0 + 2)^2 = 169 has a factor <= 11; at
    # end 170 the pair (167, 169) survives the basis, so the count read
    # 10 against the oracle's 9, and 5846 against 1221 at end 10^5
    basis = SieveBasis(11)
    for end in (170, 10**5):
        window = Window(first_candidate_above(11), end)
        for mode in ("counts", "mask"):
            trace = composite_signal(basis, window, TWINS, mode=mode)
            for listed in (False, True):
                with pytest.raises(ValueError, match=r"exceeds \(m0 \+ 2\)\^2 = 169"):
                    certify(trace, survivors=listed)
    window = Window(first_candidate_above(11), 169)
    assert certify(composite_signal(basis, window, TWINS)).count == 9
    assert classical_oracle_count(window, TWINS) == 9
    # an even sweep value m0 takes the basis m0 - 1 over [7, m0^2)
    trace = composite_signal(SieveBasis(29), Window.for_capacity(30), TWINS)
    assert certify(trace).count == classical_oracle_count(Window(31, 900), TWINS) == 30


def test_first_candidate_above():
    assert first_candidate_above(9) == 11
    assert first_candidate_above(30) == 31
    assert first_candidate_above(7) == 11
    assert first_candidate_above(31) == 35


def test_signal_matches_brute_force():
    primes = SieveBasis(9).primes  # 3, 5, 7
    for offsets in ((0, 2), (0, 4), (0, 6), (0, 2, 6)):
        got = signal_values(7, 40, primes, offsets)
        want = _brute_signal(7, 40, [3, 5, 7], offsets, True)
        assert got.tolist() == want


def test_signal_values_rejects_counts_past_window_cap():
    primes = SieveBasis(31).primes
    # rejected before any allocation or striding
    with mock.patch.object(engine, "_stride_blocks", side_effect=AssertionError):
        with pytest.raises(ValueError):
            signal_values(7, MAX_WINDOW_END // 2 + 1, primes, (0, 2))
        with pytest.raises(ValueError):
            signal_values(7, 6 * 10**8, primes, (0, 2))


def test_signal_proper_variant_matches_brute_force():
    primes = SieveBasis(13).primes
    got = signal_values(7, 60, primes, (0, 2), count_self_hits=False)
    want = _brute_signal(7, 60, [3, 5, 7, 11, 13], (0, 2), False)
    assert got.tolist() == want


def test_certified_twins_match_local_oracle():
    prime_set = _local_prime_set(1000)
    for m0 in (9, 15, 31):
        basis = SieveBasis(m0)
        window = Window.for_capacity(m0)
        trace = composite_signal(basis, window, TWINS)
        result = certify(trace, survivors=True)
        expected = [
            n
            for n in range(window.anchor, window.end - 2, 2)
            if n > m0 and n in prime_set and (n + 2) in prime_set
        ]
        assert result.survivors.tolist() == expected
        assert result.count == len(expected)


def test_lowest_anchor_matches_classical_oracle():
    # 5 is the smallest anchor a window accepts; (5, 7) counts on both sides
    window = Window(5, 101 * 101)
    trace = composite_signal(SieveBasis(101), window, TWINS, count_self_hits=False)
    assert certify(trace).count == classical_oracle_count(window, TWINS) == 209


def test_certify_against_classical_oracle():
    # anchoring above the basis bound keeps every member clear of the
    # basis primes, so literal certification equals true tuple counting
    for m0, constellation in ((15, TWINS), (21, SEXY), (31, COUSINS)):
        basis = SieveBasis(m0)
        window = Window(first_candidate_above(m0), m0 * m0)
        trace = composite_signal(basis, window, constellation)
        assert certify(trace).count == classical_oracle_count(window, constellation)


def test_reference_window_counts():
    # certified twin counts over [7, m0^2) for the standard ladder head
    for m0, expected in ((29, 30), (49, 66), (99, 197)):
        basis = SieveBasis(m0)
        window = Window(7, (m0 + 1) ** 2)
        trace = composite_signal(basis, window, TWINS)
        assert certify(trace).count == expected


def test_survivor_values_are_twin_starts():
    basis = SieveBasis(29)
    window = Window(7, 900)
    result = certify(composite_signal(basis, window, TWINS), survivors=True)
    assert result.count == 30
    assert result.survivors[:5].tolist() == [41, 59, 71, 101, 107]
    prime_set = _local_prime_set(1000)
    for start in result.survivors:
        assert start in prime_set and start + 2 in prime_set
        assert start > 29


def test_inclusive_zero_count_under_proper_variant():
    # positions whose members are all prime, even when a member is a basis
    # prime itself, survive once self-hits are excluded
    basis = SieveBasis(29)
    window = Window(7, 900)
    trace = composite_signal(basis, window, TWINS, count_self_hits=False)
    assert int(np.count_nonzero(trace.values == 0)) == 33
    # the three extra survivors have a member at or below the basis bound
    strict = certify(composite_signal(basis, window, TWINS)).count
    assert strict == 30


def test_partition_independence_counts():
    basis = SieveBasis(31)
    window = Window.for_capacity(31)
    reference = composite_signal(basis, window, TWINS, segments=1).values
    for segments in (3, 8, 17):
        values = composite_signal(basis, window, TWINS, segments=segments).values
        assert np.array_equal(values, reference)


def test_partition_independence_mask():
    basis = SieveBasis(31)
    window = Window.for_capacity(31)
    reference = composite_signal(basis, window, TWINS, mode="mask").zero_mask()
    for segments in (3, 8, 17):
        trace = composite_signal(basis, window, TWINS, segments=segments, mode="mask")
        assert np.array_equal(trace.zero_mask(), reference)


def test_mask_mode_agrees_with_counts_mode():
    basis = SieveBasis(99)
    window = Window.for_capacity(99)
    counts = composite_signal(basis, window, TWINS)
    mask = composite_signal(basis, window, TWINS, mode="mask", segments=5)
    assert np.array_equal(mask.zero_mask(), counts.values == 0)
    assert certify(mask).count == certify(counts).count


def test_proper_signal_matches_direct_proper_pass():
    basis = SieveBasis(29)
    window = Window(5, 900)
    direct = composite_signal(basis, window, TWINS, count_self_hits=False)
    assert not direct.count_self_hits
    want = _brute_signal(5, window.positions, basis.primes.tolist(), TWINS.offsets, False)
    assert direct.values.tolist() == want
    assert int(np.count_nonzero(direct.values == 0)) == 34  # (5, 7) joins the 33


def test_composite_signal_validation():
    basis = SieveBasis(9)
    window = Window(7, 100)
    with pytest.raises(ValueError):
        composite_signal(basis, window, Constellation("blocked", (0, 2, 4)))
    with pytest.raises(ValueError):
        composite_signal(basis, window, TWINS, segments=0)
    with pytest.raises(ValueError):
        composite_signal(basis, window, TWINS, mode="bits")
    with pytest.raises(ValueError):
        composite_signal(basis, Window(7, 2 * 10**9), TWINS)


def test_classical_oracle_small_windows():
    prime_set = _local_prime_set(12000)
    window = Window(11, 10000)
    for constellation in (TWINS, COUSINS, SEXY):
        expected = sum(
            1
            for n in range(11, 10000 - constellation.span, 2)
            if all(n + h in prime_set for h in constellation.offsets)
        )
        assert classical_oracle_count(window, constellation) == expected


def test_goldbach_examples():
    assert goldbach_count(8).count == 1
    assert goldbach_count(10).count == 2
    assert goldbach_count(100).count == 6
    result = goldbach_count(100, survivors=True)
    assert result.survivors.tolist() == [3, 11, 17, 29, 41, 47]


def test_goldbach_matches_exhaustive_small():
    prime_set = _local_prime_set(600)
    for even in range(8, 600, 2):
        expected = sum(
            1
            for n in range(3, even // 2 + 1, 2)
            if n in prime_set and (even - n) in prime_set
        )
        assert goldbach_count(even).count == expected, even


def test_goldbach_validation():
    with pytest.raises(ValueError):
        goldbach_count(7)
    with pytest.raises(ValueError):
        goldbach_count(6)


def test_goldbach_rejects_even_above_window_cap():
    # the counter sieves even_n / 4 positions, so it shares the window cap
    with pytest.raises(ValueError):
        goldbach_count(MAX_WINDOW_END + 2)


def test_torus_average_exact():
    assert torus_average((3,), TWINS) == Fraction(1, 3)
    assert torus_average((3, 5), TWINS) == Fraction(1, 5)
    assert torus_average((3, 5, 7), TWINS) == Fraction(1, 7)
    assert torus_average((3,), SEXY) == Fraction(2, 3)
    assert torus_average((5, 7), COUSINS) == Fraction(3, 7)


def test_torus_average_rejects_large_modulus():
    with pytest.raises(ValueError):
        torus_average((101, 103, 107, 109, 113), TWINS)


class _Chosen(Exception):
    """Raised by the wheel spy, so that no lane is strided."""


def _chosen_count_wheel(run):
    """The wheel `_count_wheel` picks for the mask walk that run() starts."""
    chosen = []
    pick = engine._count_wheel

    def spy(count, primes):
        chosen.append(pick(count, primes))
        raise _Chosen

    with mock.patch.object(engine, "_count_wheel", spy), pytest.raises(_Chosen):
        run()
    return chosen[0]


def test_count_wheel_keeps_every_benchmark_input():
    # large_window's scans (twins and (0, 2, 6) near m0 = 1e4, counted
    # over in_range) take the 105 wheel; point_queries' Goldbach range,
    # E from 1e6 to 1e8, takes the 15 wheel
    reference = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"
    pools = json.loads(reference.read_text())["large_window"]["full"]
    triple = Constellation("tuple_0_2_6", (0, 2, 6))
    for key, constellation in (("twins", TWINS), ("triple", triple)):
        for m0 in map(int, pools[key]):
            trace = composite_signal(
                sweep_basis(m0), Window.for_capacity(m0), constellation, mode="mask"
            )
            assert _chosen_count_wheel(lambda: certify(trace)) == (3, 5, 7), (key, m0)
    evens = {2 * round(10 ** (6 + i / 32) / 2) for i in range(65)}
    assert min(evens) == 10**6 and max(evens) == 10**8
    for even in sorted(evens):
        assert _chosen_count_wheel(lambda: goldbach_count(even)) == (3, 5), even
