"""Spectral verification: DFT coefficients, Parseval, equidistribution."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gearsieve import correlation, exact, fourier
from gearsieve.constellations import TWINS
from gearsieve.correlation import tau, variance_decomposition
from gearsieve.engine import MAX_WINDOW_END, SieveBasis, Window
from gearsieve.fourier import (
    fit_decay_exponent,
    fit_power_law,
    product_variance_constant,
    tau_fourier,
    two_prime_checks,
    variance_stats,
    weighted_ergodic_sum,
    weighted_exp_sum,
)
from gearsieve.primes import odd_primes_upto


def test_tau_fourier_p5_closed_values():
    rows = tau_fourier(5)
    closed = [row.coeff_closed for row in rows]
    want = [9 / 25] + [4 * math.cos(math.pi * k / 5) ** 2 / 25 for k in (1, 2, 3, 4)]
    assert np.allclose(closed, want, rtol=0, atol=1e-15)


def test_tau_fourier_dft_agreement():
    for p in (5, 7, 11, 13, 31, 97):
        for row in tau_fourier(p):
            assert abs(row.coeff_dft.real - row.coeff_closed) < 1e-12
            assert abs(row.coeff_dft.imag) < 1e-12


def test_tau_fourier_dc_term():
    for p in (5, 7, 11, 23):
        rows = tau_fourier(p)
        assert rows[0].k == 0
        assert abs(rows[0].coeff_closed - (p - 2) ** 2 / p**2) < 1e-15


def test_tau_fourier_rejects_small_p():
    with pytest.raises(ValueError):
        tau_fourier(3)


def test_variance_stats_closed_form():
    for p in (5, 7, 11, 41, 97):
        stats = variance_stats(p)
        want = 2 * (3 * p - 8) / p**4
        assert abs(stats.var_closed - want) < 1e-18
        assert abs(stats.var_parseval - want) <= 1e-14 * want
        ratio = 1 + 2 * (3 * p - 8) / (p - 2) ** 4
        assert abs(stats.ratio - ratio) < 1e-12


def test_product_variance_constant_values():
    # single factor at pmax = 5: ratio - 1 = 14/81
    assert abs(product_variance_constant(5) - 14 / 81) < 1e-15
    assert abs(product_variance_constant(7) - 0.22163) < 5e-5
    assert abs(product_variance_constant(10**5) - 0.24196) < 5e-5


def test_weighted_ergodic_sum_reference_values():
    report = weighted_ergodic_sum(30)
    assert report.L == 900
    assert report.N == 300
    assert abs(report.weighted_sum - 5279.37) < 0.01
    assert abs(report.theory - 5352.64) < 0.01
    assert abs(report.rel_error_pct - 1.36894) < 1e-4
    assert report.convention == "appendix_c"

    report = weighted_ergodic_sum(50)
    assert abs(report.weighted_sum - 24236.0) < 0.5
    assert abs(report.rel_error_pct - 0.626409) < 1e-4


def test_weighted_ergodic_sum_theory_formula():
    # theory = hbar * L^2 / 6 with hbar = prod (p-2)^2 / p^2 over 5..m0
    report = weighted_ergodic_sum(30)
    hbar = 1.0
    for p in (5, 7, 11, 13, 17, 19, 23, 29):
        hbar *= (p - 2) ** 2 / p**2
    assert abs(report.theory - hbar * 900**2 / 6) < 1e-6


def _dense_ergodic_reference(m0, convention):
    # the full per-prime product over every distance, from Fraction tau()
    big_l = m0 * m0
    d = np.arange(1, big_l // 3 + 1)
    acc = np.ones(d.size)
    for p in odd_primes_upto(m0):
        p = int(p)
        if p >= 5:
            table = np.array([float(tau(TWINS, p, x).tau) for x in range(p)])
            acc *= table[(d if convention == "appendix_c" else 3 * d) % p]
    return math.fsum((big_l - 3.0 * d) * acc)


def test_weighted_ergodic_sum_matches_dense_product():
    for m0 in (101, 211):
        for convention in ("appendix_c", "section4"):
            got = weighted_ergodic_sum(m0, convention=convention).weighted_sum
            want = _dense_ergodic_reference(m0, convention)
            assert got == pytest.approx(want, rel=1e-12)


def _fsum_of_chunks(arrays):
    # math.fsum over the chained chunk terms, the sum the exact float sum
    # replaced
    return math.fsum(itertools.chain.from_iterable(arrays))


def test_weighted_ergodic_sum_equals_fsum_of_terms(monkeypatch):
    cases = [(m0, c) for m0 in (11, 101, 211, 1000) for c in ("appendix_c", "section4")]
    got = {case: weighted_ergodic_sum(*case).weighted_sum for case in cases}
    monkeypatch.setattr(exact, "exact_float_sum", _fsum_of_chunks)
    for case in cases:
        assert weighted_ergodic_sum(*case).weighted_sum == got[case]


@pytest.mark.parametrize(
    "m0, convention, weighted_sum",
    [
        # 3 divides L = 900, so the last distance N = L/3 has weight 0
        (30, "appendix_c", "0x1.49f5e4762ec98p+12"),
        (30, "section4", "0x1.49c64422ee5cfp+12"),
        (101, "appendix_c", "0x1.acbd62cc961a7p+17"),
        (101, "section4", "0x1.acb6d4523a94cp+17"),
        (1000, "appendix_c", "0x1.acbee8b2c91d8p+28"),
        (1000, "section4", "0x1.acbec87e3996ep+28"),
        # taken before the float sums filled their chunks from a tile
        (10001, "appendix_c", "0x1.4ec913fc8df34p+40"),
        (10001, "section4", "0x1.4ec9139871f1dp+40"),
    ],
)
def test_weighted_ergodic_sum_keeps_its_floats(m0, convention, weighted_sum):
    # the sums the ergodic loop gave before it shared weighted_float_sum
    # with the covariance split, to the last bit
    assert weighted_ergodic_sum(m0, convention=convention).weighted_sum.hex() == weighted_sum


def test_weighted_ergodic_sum_chunk_invariant(monkeypatch):
    # the arrays are built in chunks that feed one exact float sum, so any
    # chunk size gives the same float
    reports = {c: weighted_ergodic_sum(101, convention=c) for c in ("appendix_c", "section4")}
    for size in (1000, 7):
        monkeypatch.setattr(correlation, "_SUM_CHUNK", size)
        for convention, report in reports.items():
            assert weighted_ergodic_sum(101, convention=convention) == report


def test_float_sums_peak_memory_at_m0_1000():
    # the exact float sum extracts sub-blocks through two sub-block
    # buffers, taken only once each chunk is built, so a 333k-entry chunk
    # adds little to the chunk's own arrays (the ergodic sum traces 5.3
    # MiB; binning the whole chunk at once took 14 MiB)
    basis, window = SieveBasis(999), Window.for_capacity(1000)
    calls = (
        lambda: weighted_ergodic_sum(1000),
        lambda: variance_decomposition(basis, window, TWINS, mu_source="expected"),
    )
    for call in calls:
        call()  # warm caches (prime tables, CRT moduli) outside the trace
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


def test_weighted_ergodic_sum_rejects_m0_past_window_cap(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the window cap was not checked first")

    monkeypatch.setattr(fourier, "weighted_float_sum", unreachable)
    assert 31622**2 <= MAX_WINDOW_END < 31623**2
    with pytest.raises(ValueError, match="exceeds"):
        weighted_ergodic_sum(31623)


def test_weighted_ergodic_sum_conventions_differ():
    a = weighted_ergodic_sum(30, convention="appendix_c")
    b = weighted_ergodic_sum(30, convention="section4")
    assert a.weighted_sum != b.weighted_sum
    assert b.convention == "section4"


def test_weighted_ergodic_sum_validation():
    with pytest.raises(ValueError):
        weighted_ergodic_sum(9)
    with pytest.raises(ValueError):
        weighted_ergodic_sum(30, convention="other")


def test_fit_power_law_recovers_exponent():
    x = np.array([10.0, 20.0, 40.0, 80.0])
    y = 3.0 * x**-1.7
    fit = fit_power_law(x, y)
    assert abs(fit.alpha - 1.7) < 1e-12
    assert abs(fit.intercept - math.log(3.0)) < 1e-12


def test_fit_power_law_needs_three_points():
    with pytest.raises(ValueError):
        fit_power_law([10.0, 20.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_power_law([10.0, 10.0, 10.0], [1.0, 1.0, 1.0])


def test_fit_power_law_rejects_non_positive_and_non_finite_points(monkeypatch):
    # checked before any log: y = 0 used to return FitResult(nan, nan)
    # with RuntimeWarnings
    def unreachable(*args, **kwargs):
        raise AssertionError("a bad point reached the fit")

    monkeypatch.setattr(fourier.np, "polyfit", unreachable)
    x = [10.0, 20.0, 40.0, 80.0]
    good = [1.0, 0.5, 0.25, 0.125]
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        for i in (0, 3):
            y = list(good)
            y[i] = bad
            with pytest.raises(ValueError, match="positive finite"):
                fit_power_law(x, y)
            with pytest.raises(ValueError, match="positive finite"):
                fit_power_law(y, x)


def test_fit_decay_exponent_ladder_head():
    fit = fit_decay_exponent([30, 50, 100, 200])
    assert abs(fit.alpha - 1.6115) < 5e-4


def test_fit_decay_exponent_accepts_precomputed_errors():
    m0s = [30, 50, 100, 200]
    errors = [weighted_ergodic_sum(m0).rel_error_pct for m0 in m0s]
    direct = fit_decay_exponent(m0s, errors=errors)
    recomputed = fit_decay_exponent(m0s)
    assert direct == recomputed


def test_weighted_exp_sum_examples():
    # L = 12: weights (9, 6, 3, 0) at d = 1..4
    assert weighted_exp_sum(0.0, 12) == pytest.approx(18.0)
    assert weighted_exp_sum(0.5, 12) == pytest.approx(-6.0)


def test_weighted_exp_sum_bound():
    rng = np.random.default_rng(20240817)
    for big_l in (99, 999):
        for theta in rng.uniform(0.01, 0.99, size=50):
            value = weighted_exp_sum(float(theta), big_l)
            dist = min(theta % 1.0, 1.0 - theta % 1.0)
            assert abs(value) <= big_l / (2 * dist) + 1e-9


def test_weighted_exp_sum_validation():
    with pytest.raises(ValueError):
        weighted_exp_sum(0.25, 2)


def test_weighted_exp_sum_rejects_non_finite_theta():
    # NaN used to fail inside round(), and inf raised OverflowError
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta"):
            weighted_exp_sum(theta, 12)


def test_weighted_exp_sum_rejects_l_past_cap(monkeypatch):
    # rejected before any allocation: L = 1e9 used to build three arrays
    # of L/3 entries, about 13 GB
    def unreachable(*args, **kwargs):
        raise AssertionError("the L cap was not checked first")

    monkeypatch.setattr(fourier.np, "arange", unreachable)
    with pytest.raises(ValueError, match=str(MAX_WINDOW_END)):
        weighted_exp_sum(0.1, MAX_WINDOW_END + 1)


def test_weighted_exp_sum_chunks_agree(monkeypatch):
    # L = 3001 has 1000 terms: chunks of 64 leave a short last chunk
    whole = [weighted_exp_sum(theta, 3001) for theta in (0.0, 0.1, 0.37)]
    monkeypatch.setattr(fourier, "_SUM_CHUNK", 64)
    chunked = [weighted_exp_sum(theta, 3001) for theta in (0.0, 0.1, 0.37)]
    assert chunked == pytest.approx(whole, rel=1e-12, abs=1e-9)
    assert chunked[0] == 3001 * 1000 - 3 * 500_500  # sum of 3001 - 3d over d = 1..1000


def test_two_prime_checks_values():
    report = two_prime_checks(3, 5)
    assert report.injective
    assert abs(report.freq_sum - (52.5 + 30 / 7)) < 1e-9
    assert abs(report.full_sum_bound - 77.785714285714285) < 1e-9
    assert report.freq_sum <= report.full_sum_bound


def test_two_prime_checks_exhaustive_injectivity():
    for p, q in ((3, 5), (3, 7), (5, 7), (5, 11), (7, 11)):
        assert two_prime_checks(p, q).injective


def test_two_prime_checks_validation():
    with pytest.raises(ValueError):
        two_prime_checks(5, 3)
    # composite moduli used to divide by zero and raise InvariantError
    for p, q in ((4, 6), (3, 9), (9, 11)):
        with pytest.raises(ValueError, match="primes"):
            two_prime_checks(p, q)
    with pytest.raises(ValueError):
        two_prime_checks(3163, 3167)  # product exceeds the enumeration cap
