"""Exact local survival calculus and the count-moment decomposition."""

import itertools
import math
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis.strategies import booleans, floats, integers, lists, sampled_from, sets

from gearsieve import correlation, exact
from gearsieve.constellations import COUSINS, SEXY, TWINS, Constellation, is_admissible, omega
from gearsieve.correlation import (
    EXACT_POSITION_LIMIT,
    _overlap_table,
    _sigma_off_direct_exact,
    _sigma_off_split_float,
    _tables_at_multiples,
    asymptotic_report,
    crt_average,
    fano_theoretical,
    mean_field,
    paley_zygmund_bound,
    tau,
    tau_numerators,
    tau_table,
    universal_average,
    variance_decomposition,
    weighted_product_sum,
)
from gearsieve.engine import MAX_TAU_P, MAX_WINDOW_END, SieveBasis, Window
from gearsieve.exact import exact_float_sum
from gearsieve.primes import odd_primes_upto

TRIPLE = Constellation("triple", (0, 2, 6))


def test_tau_twin_values_p5():
    want = [
        (0, Fraction(3, 5), "C"),
        (1, Fraction(2, 5), "B"),
        (2, Fraction(1, 5), "A"),
        (3, Fraction(1, 5), "A"),
        (4, Fraction(2, 5), "B"),
    ]
    rows = tau_table(TWINS, 5)
    assert [(r.d, r.tau, r.case_label) for r in rows] == want


def test_tau_twin_case_values_general():
    # for twins and p >= 5: C = (p-2)/p, B = (p-3)/p, A = (p-4)/p
    for p in (5, 7, 11, 13, 37):
        for row in tau_table(TWINS, p):
            expected = {
                "C": Fraction(p - 2, p),
                "B": Fraction(p - 3, p),
                "A": Fraction(p - 4, p),
            }[row.case_label]
            assert row.tau == expected


def test_tau_brute_force_agreement():
    # count surviving start residues directly on the torus
    for constellation in (TWINS, SEXY, TRIPLE):
        for p in (3, 5, 7, 11):
            for d in range(p):
                alive = 0
                for n in range(p):
                    first = all((n + h) % p != 0 for h in constellation.offsets)
                    second = all(
                        (n + 2 * d + h) % p != 0 for h in constellation.offsets
                    )
                    if first and second:
                        alive += 1
                assert tau(constellation, p, d).tau == Fraction(alive, p)


def test_tau_blocking_at_three():
    # twins mod 3: pairs at distance d survive only when 3 divides d
    for d in range(60):
        value = tau(TWINS, 3, d).tau
        if d % 3 == 0:
            assert value == Fraction(1, 3)
        else:
            assert value == 0
            assert tau(TWINS, 3, d).case_label == "BLOCKED"


def test_tau_rejects_prime_past_cap(monkeypatch):
    # checked before the prime-table lookup and before any row or table is
    # built, for every prime of a list before the first is looked up
    def unreachable(*args):
        raise AssertionError("the tau cap was not checked first")

    monkeypatch.setattr(correlation, "primes_upto", unreachable)
    monkeypatch.setattr(correlation, "_local_survival", unreachable)
    monkeypatch.setattr(correlation, "_overlap_table", unreachable)
    assert MAX_TAU_P == math.isqrt(MAX_WINDOW_END)
    for p in (MAX_TAU_P + 1, 100000007):
        for call in (lambda: tau(TWINS, p, 1), lambda: tau_table(TWINS, p),
                     lambda: tau_numerators(TWINS, p),
                     lambda: _tables_at_multiples(TWINS, [9, 5, p], 1),
                     lambda: weighted_product_sum(TWINS, [9, 5, p], 100, 1)):
            with pytest.raises(ValueError, match=str(MAX_TAU_P)):
                call()


def test_tau_rejects_two_and_composite_moduli():
    # every N_r + h is odd, so 2 never strikes; tau at 2 used to return 1/2
    for p in (0, 1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            tau(TWINS, p, 1)
        with pytest.raises(ValueError):
            tau_table(TWINS, p)
        with pytest.raises(ValueError):
            tau_numerators(TWINS, p)
        for stride in (1, 3):
            with pytest.raises(ValueError):
                weighted_product_sum(TWINS, [3, 5, p], 100, stride)
        # a basis derives its primes from m0, so none holds a bad prime
        with pytest.raises(TypeError):
            SieveBasis(m0=29, primes=np.array([3, 5, p, 29], dtype=np.int64))


def _table_base_reference(nums):
    # the rule the sums used to apply to every dense table: the most
    # common nonzero value (the smallest on a tie), and where nums leaves it
    counts = np.bincount(nums)
    counts[0] = 0
    base = int(np.argmax(counts))
    residues = np.flatnonzero(nums != base)
    return base, residues, nums[residues]


@settings(max_examples=300, deadline=None)
@given(
    sets(integers(1, 30), max_size=4),
    sampled_from([int(p) for p in odd_primes_upto(500)]),
    sampled_from(["1", "3", "p", "2p"]),
)
@example({1}, 3, "1")
@example({2, 4}, 3, "3")
@example({2, 4, 6, 8}, 5, "1")
@example({1, 2, 3, 4}, 7, "3")
@example({2, 4, 6}, 7, "p")
def test_one_prime_tables_match_fraction_tau(offsets, p, stride_name):
    # admissible and not: a fully occupied prime gives the all-zero table
    constellation = Constellation("random", (0, *sorted(offsets)))
    stride = {"1": 1, "3": 3, "p": p, "2p": 2 * p}[stride_name]
    [(_, base, residues, values)] = _tables_at_multiples(constellation, [p], stride)
    assert residues.dtype == values.dtype == np.int64
    nums = np.full(p, base, dtype=np.int64)
    nums[residues] = values
    assert nums.tolist() == [tau(constellation, p, stride * t % p).tau * p for t in range(p)]
    want = _table_base_reference(nums)
    assert base == want[0]
    assert residues.tolist() == want[1].tolist()
    assert values.tolist() == want[2].tolist()
    k = constellation.size
    if p > 2 * (k * (k - 1) + 1):
        assert 2 * residues.size < p


@settings(max_examples=200, deadline=None)
@given(
    sets(integers(1, 15), min_size=1, max_size=4),
    sampled_from([int(p) for p in odd_primes_upto(500)]),
)
def test_tau_numerators_match_fraction_tau(halves, p):
    # primes up to the span (30) make residues of the offsets collide
    constellation = Constellation("random", (0, *sorted(2 * h for h in halves)))
    assume(is_admissible(constellation).admissible)
    nums = tau_numerators(constellation, p)
    assert nums.dtype == np.int64
    assert nums.tolist() == [tau(constellation, p, d).tau * p for d in range(p)]


@settings(max_examples=150, deadline=None)
@given(
    sets(integers(1, 30), max_size=5),
    sampled_from([int(p) for p in odd_primes_upto(300)]),
)
@example({2, 4}, 3)
def test_tau_table_matches_fraction_tau(offsets, p):
    # no admissibility filter: a full residue set takes the BLOCKED label
    constellation = Constellation("random", (0, *sorted(offsets)))
    assert tau_table(constellation, p) == [tau(constellation, p, d) for d in range(p)]


# Tuples whose differences repeat: c_d > 1 for some d, such as d = 6 three
# times in (0, 2, 6, 8, 12)
REPEATED_DIFFERENCES = [
    Constellation("quint", (0, 2, 6, 8, 12)),
    Constellation("quad", (0, 4, 6, 10)),
    Constellation("ten", (0, 2, 6, 8, 12, 18, 20, 26, 30, 32)),
    TWINS,
    TRIPLE,
]


def _distinct_differences(constellation):
    h = constellation.offsets
    return len({a - b for a in h for b in h if a != b})


@pytest.mark.parametrize("constellation", REPEATED_DIFFERENCES, ids=lambda c: c.name)
def test_tables_at_multiples_match_the_overlap_count(constellation):
    # the batched tables against the one-prime overlap count at every prime
    # to 3000, and against Fraction tau near the closed form's edges
    primes = [int(p) for p in odd_primes_upto(3000)]
    blocking = list(is_admissible(constellation).blocking)
    # 1, 3, every blocking prime, and multiples of basis primes (35, 286)
    strides = sorted({1, 3, 35, 286, *blocking})
    edges = (2 * constellation.span, 2 * (_distinct_differences(constellation) + 1))
    sample = [p for p in primes if any(abs(p - e) <= 8 for e in edges)] + [3, 5, 2999]
    for stride in strides:
        tables = _tables_at_multiples(constellation, primes, stride)
        assert [p for p, *_ in tables] == primes
        for p, base, residues, values in tables:
            want = _overlap_table(constellation, p, stride)
            assert type(p) is int and type(base) is int
            assert residues.dtype == values.dtype == np.int64
            assert base == want[0]
            assert residues.tolist() == want[1].tolist()
            assert values.tolist() == want[2].tolist()
            if p in sample:
                nums = np.full(p, base, dtype=np.int64)
                nums[residues] = values
                taus = [tau(constellation, p, stride * t % p).tau * p for t in range(p)]
                assert nums.tolist() == taus


def test_tables_at_multiples_keep_the_given_order():
    # unsorted and mixed: closed-form primes between overlap-count ones
    primes = [2999, 3, 13, 5, 7, 1009, 11]
    for stride in (1, 3, 7):
        tables = _tables_at_multiples(REPEATED_DIFFERENCES[0], primes, stride)
        assert [p for p, *_ in tables] == primes
        for p, base, residues, values in tables:
            want = _overlap_table(REPEATED_DIFFERENCES[0], p, stride)
            assert (base, residues.tolist(), values.tolist()) == (
                want[0], want[1].tolist(), want[2].tolist()
            )
    assert _tables_at_multiples(TWINS, [], 1) == []


def _dense_split_reference(constellation, primes, positions, p_b):
    # the per-prime table gather over every surviving distance, from Fraction tau()
    d = p_b * np.arange(1, (positions - 1) // p_b + 1)
    acc = np.full(d.size, 1.0 / p_b)
    mu = 1.0
    for p in primes:
        mu *= (p - omega(constellation, p)) / p
        if p != p_b:
            table = np.array([float(tau(constellation, p, x).tau) for x in range(p)])
            acc *= table[d % p]
    off_weight = positions * (positions - 1) // 2 - int(np.sum(positions - d))
    return math.fsum((positions - d) * (acc - mu * mu)) - mu * mu * off_weight


def test_sigma_off_split_float_matches_dense_product():
    for constellation in (TWINS, TRIPLE):
        for m0 in (101, 211):
            primes = [int(p) for p in odd_primes_upto(m0)]
            positions = Window(7, m0 * m0).positions
            tables = _tables_at_multiples(constellation, primes, 3)
            got = _sigma_off_split_float(constellation, tables, positions, 3)
            want = _dense_split_reference(constellation, primes, positions, 3)
            assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "m0, constellation, split",
    [
        (999, TWINS, "-0x1.6c8141438a000p+11"),
        (3001, TRIPLE, "-0x1.a140293ad4000p+10"),
        # taken before the float sums filled their chunks from a tile
        (10001, TWINS, "-0x1.357349e380000p+17"),
    ],
)
def test_sigma_off_split_float_keeps_its_floats(m0, constellation, split):
    # the splits the covariance loop gave before it shared weighted_float_sum
    # with the ergodic sum, to the last bit
    primes = [int(p) for p in odd_primes_upto(m0)]
    tables = _tables_at_multiples(constellation, primes, 3)
    positions = Window.for_capacity(m0).positions
    assert _sigma_off_split_float(constellation, tables, positions, 3).hex() == split


def test_tau_period_sum_identity():
    # sum over one period is (p - omega)^2 / p, exactly
    for constellation in (TWINS, COUSINS, SEXY, TRIPLE):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            w = omega(constellation, p)
            total = sum(row.tau for row in tau_table(constellation, p))
            assert total == Fraction((p - w) ** 2, p)


def test_universal_average_is_one():
    for constellation in (TWINS, COUSINS, SEXY, TRIPLE):
        for p in odd_primes_upto(60):
            p = int(p)
            if omega(constellation, p) >= p:
                continue
            assert universal_average(constellation, p) == 1


def test_universal_average_rejects_full_block():
    with pytest.raises(ValueError):
        universal_average(Constellation("blocked", (0, 2, 4)), 3)


def test_crt_average_factorizes():
    for primes in ((3,), (3, 5), (5, 7), (3, 5, 7), (3, 5, 7, 11)):
        got = crt_average(TWINS, primes)
        want = Fraction(1)
        for p in primes:
            mu = Fraction(p - omega(TWINS, p), p)
            want *= mu * mu
        assert got == want


def test_crt_average_rejects_huge_period():
    with pytest.raises(ValueError):
        crt_average(TWINS, (101, 103, 107, 109))


def test_averages_reject_two():
    # universal_average(TWINS, 2) used to return 2, and crt_average over
    # (2, 3) 1/18 instead of the product of mu_p^2
    with pytest.raises(ValueError, match="odd prime"):
        universal_average(TWINS, 2)
    with pytest.raises(ValueError, match="odd prime"):
        crt_average(TWINS, (2, 3))


def test_crt_average_rejects_repeated_primes():
    # (5, 5) used to enumerate a period of 25 and return 19/125, not the
    # documented product of mu_p^2, 81/625
    for primes in ((5, 5), (3, 5, 3)):
        with pytest.raises(ValueError, match="distinct"):
            crt_average(TWINS, primes)


def test_mean_field_value():
    # positions = 4997 over [7, 10^4), basis primes up to 99
    value = mean_field(TWINS, 99, 4997)
    assert abs(value - 191.3703) < 5e-4


def test_fano_theoretical_pins():
    pins = {10: 0.4927, 30: 0.6226, 50: 0.6585, 100: 0.6923, 1000: 0.7619}
    for m0, pin in pins.items():
        assert abs(fano_theoretical(m0) - pin) < 5e-4


def test_paley_zygmund_bound():
    assert paley_zygmund_bound(0.0, 5.0) == 0.0
    assert abs(paley_zygmund_bound(3.0, 9.0) - 0.5) < 1e-15


def test_variance_decomposition_small_window():
    basis = SieveBasis(29)
    window = Window(7, 900)
    report = variance_decomposition(basis, window, TWINS)
    assert report.positions == 447
    assert report.mu_N == 30
    assert abs(report.sigma_diag - 30 * (1 - 30 / 447)) < 1e-12
    assert abs(report.sigma_off - (-10.8253)) < 5e-4
    assert report.sigma_off_direct is not None
    assert report.sigma_off_split is not None
    assert abs(report.sigma_off_direct - report.sigma_off_split) < 1e-9
    assert report.sigma_off == report.sigma_off_direct
    assert abs(report.variance - (report.sigma_diag + report.sigma_off)) < 1e-12
    assert abs(report.fano - report.variance / 30) < 1e-12
    assert abs(report.snr - 30 / math.sqrt(report.variance)) < 1e-12
    assert abs(report.cv - 1 / report.snr) < 1e-12
    assert abs(report.paley_zygmund_bound - 900 / (report.variance + 900)) < 1e-12
    assert abs(report.dc_energy - 900 / 447) < 1e-12


def test_variance_decomposition_sigma_diag_ladder_head():
    pins = {29: 28.0, 49: 62.5, 99: 189.2}
    for m0, pin in pins.items():
        basis = SieveBasis(m0)
        window = Window(7, (m0 + 1) ** 2)
        report = variance_decomposition(basis, window, TWINS)
        assert abs(report.sigma_diag - pin) < 0.1


def test_variance_decomposition_near_exact_limit():
    # positions = 19997 sits just under the exact-evaluation cutoff, so the
    # direct sum runs in exact (multimodular) arithmetic, next to the float
    # blocked split
    basis = SieveBasis(199)
    window = Window(7, 200 * 200)
    assert window.positions <= EXACT_POSITION_LIMIT
    report = variance_decomposition(basis, window, TWINS)
    assert report.sigma_off_direct is not None
    assert abs(report.sigma_off_direct - report.sigma_off_split) < 1e-9
    assert abs(report.sigma_off - (-197.0201)) < 5e-3


def test_variance_decomposition_split_only_beyond_limit():
    # above the exact-evaluation cutoff only the float split path runs
    basis = SieveBasis(499)
    window = Window(7, 500 * 500)
    assert window.positions > EXACT_POSITION_LIMIT
    report = variance_decomposition(basis, window, TWINS)
    assert report.sigma_off_direct is None
    assert report.sigma_off == report.sigma_off_split
    assert abs(report.sigma_off - (-906.591)) < 5e-2


def test_variance_decomposition_expected_mu():
    basis = SieveBasis(99)
    window = Window(7, 10**4)
    report = variance_decomposition(basis, window, TWINS, mu_source="expected")
    assert abs(report.mu_N - 191.3703) < 5e-4


def test_variance_decomposition_observed_count_passthrough():
    basis = SieveBasis(29)
    window = Window(7, 900)
    report = variance_decomposition(basis, window, TWINS, observed_count=30)
    assert report.mu_N == 30


def test_variance_decomposition_rejects_bad_source():
    basis = SieveBasis(29)
    window = Window(7, 900)
    with pytest.raises(ValueError):
        variance_decomposition(basis, window, TWINS, mu_source="guess")


def test_sexy_has_no_blocking_prime_guard():
    # the sexy pair admits no blocking prime, so windows beyond the exact
    # cutoff cannot fall back to the split evaluation
    basis = SieveBasis(201)
    window = Window(7, 202 * 202)
    with pytest.raises(ValueError):
        variance_decomposition(basis, window, SEXY)


def test_sexy_small_window_decomposition():
    basis = SieveBasis(29)
    window = Window(7, 900)
    report = variance_decomposition(basis, window, SEXY)
    assert report.sigma_off_direct is not None
    assert report.mu_N > 0


def test_asymptotic_report():
    # window [7, 9801) holds 4897 positions; scaling the pinned density
    # from 4997 positions gives 191.3703 * 4897 / 4997 = 187.5406
    report = asymptotic_report(99, TWINS)
    assert abs(report.mu_N - 187.5406) < 5e-4
    assert abs(report.snr - math.sqrt(report.mu_N)) < 1e-12
    assert abs(report.cv - 1 / math.sqrt(report.mu_N)) < 1e-12


def _bigint_weighted_sum(constellation, primes, positions, stride):
    # an oracle that shares no code with the exact kernel: p * tau_p(d)
    # from the Fraction tau() at the distances the sum reads, then every
    # multiple d of stride below positions as one full Python-int product
    tables = [
        (p, [int(p * tau(constellation, p, d).tau) for d in range(min(p, positions))])
        for p in primes
    ]
    total = 0
    for d in range(stride, positions, stride):
        term = 1
        for p, table in tables:
            term *= table[d % p]
        total += (positions - d) * term
    return total


def _smallest_blocking(constellation, primes):
    blocking = [p for p in is_admissible(constellation).blocking if p in primes]
    return min(blocking) if blocking else None


@settings(max_examples=60, deadline=None)
@given(
    sets(integers(1, 12), min_size=1, max_size=3),
    integers(3, 160),
    integers(1, 3000),
    booleans(),
)
# (0, 2, 6) over the primes to 61 at 410 and 411 positions: kept from a
# modular kernel whose modulus count stepped there
@example({1, 3}, 61, 410, False)
@example({1, 3}, 61, 410, True)
@example({1, 3}, 61, 411, False)
@example({1, 3}, 61, 411, True)
def test_weighted_product_sum_matches_bigint_loop(halves, m0, positions, blocked_stride):
    constellation = Constellation("random", (0, *sorted(2 * h for h in halves)))
    assume(is_admissible(constellation).admissible)
    primes = [int(p) for p in odd_primes_upto(m0)]
    p_b = _smallest_blocking(constellation, primes)
    stride = p_b if blocked_stride and p_b is not None else 1
    want = _bigint_weighted_sum(constellation, primes, positions, 1)
    assert weighted_product_sum(constellation, primes, positions, stride) == want
    if stride != 1:
        assert _bigint_weighted_sum(constellation, primes, positions, stride) == want


def test_weighted_product_sum_named_tuples():
    # SEXY has no blocking prime, so only the full stride applies
    for constellation in (TWINS, SEXY, TRIPLE):
        for m0 in (29, 99):
            primes = [int(p) for p in odd_primes_upto(m0)]
            positions = Window(7, (m0 + 1) ** 2).positions
            want = _bigint_weighted_sum(constellation, primes, positions, 1)
            strides = {1, _smallest_blocking(constellation, primes) or 1}
            for stride in strides:
                assert weighted_product_sum(constellation, primes, positions, stride) == want


def test_weighted_product_sum_large_basis_tiny_window():
    # m0 near 2000: each entry is a product over 302 primes' tables, about
    # 2800 bits, over only 49 distances
    primes = [int(p) for p in odd_primes_upto(1999)]
    positions = 50
    want = _bigint_weighted_sum(TWINS, primes, positions, 1)
    report = variance_decomposition(SieveBasis(1999), Window(7, 106), TWINS, observed_count=3)
    assert report.positions == positions
    tables = _tables_at_multiples(TWINS, primes, 1)
    assert report.sigma_off_direct == float(_sigma_off_direct_exact(TWINS, tables, positions, 1))
    for stride in (1, 3):
        assert weighted_product_sum(TWINS, primes, positions, stride) == want


def _wide_bigint_weighted_sum(constellation, primes, positions, stride):
    # the bigint loop for thousands of primes, where a Fraction tau() per
    # (prime, distance) would take seconds: p * tau_p(d) is the flat value
    # p - 2|F_p| unless p divides h_a - h_b - 2d for some offsets h_a, h_b
    # (only then does F_p meet F_p - 2d), so each term is the product of
    # the flat values with tau() of those few primes put in their place
    ps = np.array(primes, dtype=np.int64)
    offsets = constellation.offsets
    differences = sorted({a - b for a in offsets for b in offsets})
    flat = {p: p - 2 * len({-h % p for h in offsets}) for p in primes}
    every = math.prod(flat.values())
    total = 0
    for d in range(stride, positions, stride):
        met = np.zeros(ps.size, dtype=bool)
        for difference in differences:
            met |= (difference - 2 * d) % ps == 0
        met = ps[met].tolist()
        values = math.prod(int(p * tau(constellation, p, d).tau) for p in met)
        total += (positions - d) * (every // math.prod(flat[p] for p in met) * values)
    return total


@pytest.mark.parametrize(
    "constellation, stride, meets_every_prime",
    [(TWINS, 1, 1), (SEXY, 1, 3), (TWINS, 3, None)],
)
def test_weighted_product_sum_distances_that_meet_every_prime(
    constellation, stride, meets_every_prime
):
    # where s j is half an offset difference, distance s j meets every
    # prime's table off its base: 2 * 1 = 2 for twins, 2 * 3 = 6 for (0, 6).
    # Twins at stride 1 die there (tau_3(1) = 0); (0, 6) keeps a term of
    # about 45,000 bits. An int64 product per distance would wrap at either.
    primes = [int(p) for p in odd_primes_upto(31622)]
    positions = 300
    narrow = [p for p in primes if p < 100]
    assert _wide_bigint_weighted_sum(constellation, narrow, positions, stride) == (
        _bigint_weighted_sum(constellation, narrow, positions, stride)
    )
    if meets_every_prime is not None:
        # a pair lifts the flat value p - 4 by one where 2d is its difference
        d = stride * meets_every_prime
        assert all(p * tau(constellation, p, d).tau == p - 3 for p in primes[-3:])
    want = _wide_bigint_weighted_sum(constellation, primes, positions, stride)
    assert weighted_product_sum(constellation, primes, positions, stride) == want


def test_weighted_product_sum_splits_distances():
    # 699 distances, more than any prime's period here, so every residue
    # slice of every prime holds several entries
    primes = [int(p) for p in odd_primes_upto(199)]
    positions = 700
    want = _bigint_weighted_sum(TRIPLE, primes, positions, 1)
    for stride in (1, 3):
        assert weighted_product_sum(TRIPLE, primes, positions, stride) == want


def test_weighted_product_sum_rejects_positions_past_limit(monkeypatch):
    # exact at the limit; past it, refused before any tau table or
    # per-distance entry is built: at 10^9 positions the entries alone
    # would take gigabytes
    primes = [3, 5, 7]
    want = _bigint_weighted_sum(TWINS, primes, EXACT_POSITION_LIMIT, 1)
    for stride in (1, 3):
        assert weighted_product_sum(TWINS, primes, EXACT_POSITION_LIMIT, stride) == want

    def unreachable(*args):
        raise AssertionError("the position limit was not checked first")

    monkeypatch.setattr(correlation, "_tables_at_multiples", unreachable)
    began = time.perf_counter()
    for positions in (EXACT_POSITION_LIMIT + 1, 10**9):
        with pytest.raises(ValueError, match=str(EXACT_POSITION_LIMIT)):
            weighted_product_sum(TWINS, [int(p) for p in odd_primes_upto(29)], positions, 3)
    assert time.perf_counter() - began < 1.0


def test_weighted_product_sum_rejects_inputs_outside_its_domain(monkeypatch):
    # refused before any table is built: stride 0 used to divide by zero,
    # stride -3 and positions -5 returned 0, and [5, 5, 7] counted 5's
    # factor twice
    assert weighted_product_sum(TWINS, [3, 5, 7], 0, 1) == 0
    assert weighted_product_sum(TWINS, [3, 5, 7], 1, 1) == 0

    def unreachable(*args):
        raise AssertionError("a table was built before the domain check")

    monkeypatch.setattr(correlation, "_tables_at_multiples", unreachable)
    cases = [
        ([3, 5, 7], 100, 0, "stride"),
        ([3, 5, 7], 100, -3, "stride"),
        ([3, 5, 7], -5, 1, "positions"),
        ([5, 5, 7], 100, 1, "distinct"),
        ([3, 7, 5, 7], 100, 3, "distinct"),
    ]
    for primes, positions, stride, match in cases:
        with pytest.raises(ValueError, match=match):
            weighted_product_sum(TWINS, primes, positions, stride)


def test_sigma_off_split_float_matches_exact_sum():
    # the float split against the exact Python-int sum at m0 = 500
    primes = [int(p) for p in odd_primes_upto(499)]
    positions = Window(7, 500 * 500).positions
    tables = _tables_at_multiples(TWINS, primes, 3)
    exact = float(_sigma_off_direct_exact(TWINS, tables, positions, 3))
    got = _sigma_off_split_float(TWINS, tables, positions, 3)
    assert got == pytest.approx(exact, rel=1e-11)


@settings(max_examples=200, deadline=None)
@given(
    lists(floats(-1e300, 1e300, allow_subnormal=True), max_size=300),
    lists(integers(0, 300), max_size=4),
)
def test_exact_float_sum_equals_fsum(values, cuts):
    x = np.array(values, dtype=np.float64)
    chunks = np.split(x, sorted(min(c, x.size) for c in cuts))
    want = math.fsum(values)
    assert exact_float_sum(chunks) == want
    # sub-blocks that split every array, down to one entry each
    for size in (1, 3, 7):
        with mock.patch.object(exact, "_SUB_BLOCK", size):
            assert exact_float_sum(chunks) == want


def test_exact_float_sum_extremes():
    tiny = 2.0**-1074
    cases = [
        [],
        [tiny, tiny, -tiny],
        [1e300, 1.0, -1e300],
        [2.0**53, 1.0, 1.0],
        [0.1] * 10,
        [1e-300 * k for k in range(-50, 51)] + [3.0],
    ]
    for values in cases:
        assert exact_float_sum([np.array(values, dtype=np.float64)]) == math.fsum(values)


def test_exact_float_sum_rejects_non_finite_entries(monkeypatch):
    # checked on the sub-block's max|x| before any extraction, which would
    # never end on a NaN
    def unreachable(*args):
        raise AssertionError("a non-finite entry was extracted")

    monkeypatch.setattr(exact, "_extract", unreachable)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            exact_float_sum([np.array([1.0, bad, 2.0**-1074])])


def test_exact_float_sum_full_sub_block():
    # one whole _SUB_BLOCK block of +-1e300, 1.0 and subnormals, each
    # scaled by its own factor
    rng = np.random.default_rng(27)
    picks = rng.choice([1e300, -1e300, 1.0, -1.0, 2.0**-1074, -(2.0**-1060)], exact._SUB_BLOCK)
    values = picks * rng.uniform(0.5, 2.0, exact._SUB_BLOCK)
    assert exact_float_sum([values]) == math.fsum(values)
    assert exact_float_sum([values[: exact._SUB_BLOCK // 3], values[exact._SUB_BLOCK // 3 :]]) == (
        math.fsum(values)
    )


def test_exact_float_sum_near_dbl_max():
    # sigma would pass DBL_MAX here: the large entries are extracted times 2^-64
    big = np.finfo(np.float64).max
    cases = [
        [1.7e308, -1.7e308, 5e-324],
        [big, -big, 1.0, -(2.0**-1074)],
        [big, -1e300, 2.0**-900, 2.0**-901, -(2.0**-1074)],
        [-big, big / 3, big / 3, 3.0],
    ]
    for values in cases:
        assert exact_float_sum([np.array(values)]) == math.fsum(values)
    assert exact_float_sum([np.array(cases[0])]) == 5e-324


def test_exact_float_sum_overflows_like_fsum():
    values = [1e308, 1e308]
    with pytest.raises(OverflowError):
        math.fsum(values)
    with pytest.raises(OverflowError):
        exact_float_sum([np.array(values)])


def test_float_paths_chunk_invariant(monkeypatch):
    # chunk sizes below, at and just above the tile period, which the chunk
    # length caps: 385 = 5*7*11 for the first window's 3,748 terms and
    # 5005 = 5*7*11*13 for the second's 6,665; at each, weight sub-blocks of
    # 1, 7 and just below, at and above the last chunk's length
    cases = ((149, (1000, 7, 384, 385, 386)), (199, (5004, 5005, 5006)))
    default, default_block = correlation._SUM_CHUNK, correlation._WEIGHT_BLOCK
    for m0, sizes in cases:
        monkeypatch.setattr(correlation, "_SUM_CHUNK", default)
        basis, window = SieveBasis(m0), Window(7, (m0 + 1) ** 2)
        tables = _tables_at_multiples(TWINS, [int(p) for p in basis.primes], 3)
        split = _sigma_off_split_float(TWINS, tables, window.positions, 3)
        expected = variance_decomposition(basis, window, TWINS, mu_source="expected")
        terms = (window.positions - 1) // 3
        for size in sizes:
            monkeypatch.setattr(correlation, "_SUM_CHUNK", size)
            last = terms - (terms - 1) // size * size
            for block in sorted({default_block, 1, 7, max(last - 1, 1), last, last + 1}):
                monkeypatch.setattr(correlation, "_WEIGHT_BLOCK", block)
                assert _sigma_off_split_float(TWINS, tables, window.positions, 3) == split
            monkeypatch.setattr(correlation, "_WEIGHT_BLOCK", default_block)
            assert variance_decomposition(basis, window, TWINS, mu_source="expected") == expected


def test_weighted_float_sum_tiles_a_prefix_of_the_table_order(monkeypatch):
    # shuffled tables: the tile must hold the leading tables in the given
    # order (13, 5, 59, then the rest), not the smallest primes, so every
    # term meets the same multiplies as a per-term product in table order
    primes = [13, 5, 59, 7, 41, 11, 17, 53, 19, 23, 29, 31, 37, 43, 47]
    tables = _tables_at_multiples(TRIPLE, primes, 1)
    positions, divisor, shift = 20_000, 7, 0.25
    j = np.arange(1, positions)
    terms = np.full(j.size, math.prod(t[1] for t in tables) / math.prod(primes) / divisor)
    for p, base, residues, values in tables:
        factor = np.ones(p)  # times 1.0 is exact: the same float as no multiply
        factor[residues] = values / base
        terms *= factor[j % p]
    terms -= shift
    terms *= (positions - j).astype(np.float64)

    chunks = []

    def keep(arrays):
        for array in arrays:
            chunks.append(array.copy())
        return math.fsum(itertools.chain.from_iterable(chunks))

    monkeypatch.setattr(exact, "exact_float_sum", keep)
    for size in (1 << 20, 3834, 3835, 4000):  # 3835 = 13*5*59, the tile period
        monkeypatch.setattr(correlation, "_SUM_CHUNK", size)
        chunks.clear()
        got = correlation.weighted_float_sum(tables, positions, 1, divisor, shift)
        assert np.array_equal(np.concatenate(chunks), terms)
        assert got == math.fsum(terms)


def test_variance_decomposition_rejects_window_past_cap(monkeypatch):
    # checked before any per-distance array is built
    def unreachable(*args):
        raise AssertionError("the window cap was not checked first")

    monkeypatch.setattr(correlation, "_tables_at_multiples", unreachable)
    monkeypatch.setattr(correlation, "_sigma_off_split_float", unreachable)
    monkeypatch.setattr(correlation, "_weighted_table_sum", unreachable)
    basis = SieveBasis(31623)
    window = Window.for_capacity(31623)
    assert window.end > MAX_WINDOW_END
    for source in ("expected", "observed"):
        with pytest.raises(ValueError, match="exceeds"):
            variance_decomposition(basis, window, TWINS, mu_source=source)


def test_variance_report_builds_each_tau_table_once():
    # the split and the exact sum both run here and read the tables of one
    # batched build over the basis primes, in order; no one-prime table
    basis, window = SieveBasis(101), Window(7, 101 * 101)
    assert window.positions <= EXACT_POSITION_LIMIT
    for constellation in (TWINS, TRIPLE, SEXY):
        builds, reads = [], []

        def build(*args):
            builds.append((args, _tables_at_multiples(*args)))
            return builds[-1][1]

        def reading(kernel):
            def read(constellation, tables, *rest):
                reads.append(tables)
                return kernel(constellation, tables, *rest)

            return read

        with (
            mock.patch.object(correlation, "_tables_at_multiples", side_effect=build),
            mock.patch.object(correlation, "tau_numerators", wraps=tau_numerators) as spy,
            mock.patch.object(
                correlation, "_sigma_off_split_float", reading(_sigma_off_split_float)
            ),
            mock.patch.object(
                correlation, "_sigma_off_direct_exact", reading(_sigma_off_direct_exact)
            ),
        ):
            report = variance_decomposition(basis, window, constellation, observed_count=100)
        assert report.sigma_off_direct is not None
        assert (report.sigma_off_split is not None) == (constellation is not SEXY)
        assert spy.call_count == 0
        assert len(builds) == 1
        (c, primes, _), tables = builds[0]
        assert c == constellation
        assert list(primes) == [int(p) for p in basis.primes]
        assert len(reads) == (2 if constellation is not SEXY else 1)
        assert all(read is tables for read in reads)
