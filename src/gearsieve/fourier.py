"""Fourier-side verification of the pair-survival calculus.

The twin survival sequence tau_p(d) over one period has an exact discrete
Fourier transform: a DC term ((p-2)/p)^2 and AC coefficients
4 cos^2(pi k / p) / p^2. This module computes both the closed forms and
direct O(p^2) DFTs and checks them against each other, accumulates the
product variance constant over all primes, evaluates the weighted ergodic
sum behind the equidistribution error table, and verifies the two
exponential-sum lemmas (geometric tail bound and two-prime injectivity).
The ergodic sum is correlation.weighted_float_sum, the covariance
split's kernel, so both come out correctly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellations import TWINS
from .correlation import _SUM_CHUNK, _tables_at_multiples, tau_numerators, weighted_float_sum
from .engine import MAX_PRODUCT_PMAX, MAX_WINDOW_END
from .errors import InvariantError
from .primes import is_prime_trial, odd_primes_upto

# The weight-table indexings of the equidistribution sum.
H_CONVENTIONS = ("appendix_c", "section4")


@dataclass(frozen=True)
class FourierRow:
    p: int
    k: int
    coeff_closed: float
    coeff_dft: complex


@dataclass(frozen=True)
class VarianceStats:
    """AC variance of tau_p by formula and by Parseval, plus the ratio.

    ratio = 1 + var / mean^2 is the per-prime factor of the product
    variance constant.
    """

    p: int
    var_closed: float
    var_parseval: float
    ratio: float


@dataclass(frozen=True)
class EquidistReport:
    m0: int
    L: int
    N: int
    weighted_sum: float
    theory: float
    rel_error_pct: float
    convention: str


@dataclass(frozen=True)
class FitResult:
    alpha: float
    intercept: float


@dataclass(frozen=True)
class TwoPrimeReport:
    p: int
    q: int
    injective: bool
    freq_sum: float
    full_sum_bound: float


def tau_fourier(p: int) -> list[FourierRow]:
    """Closed-form and direct-DFT coefficients of tau_p for all k.

    The closed forms assume the three-value structure of tau_p, which
    only holds for p >= 5 (p = 3 collapses to a two-value sequence).
    The DFT is a deliberate direct summation, not a fast transform.
    """
    if p < 5:
        raise ValueError(f"fourier coefficients need p >= 5, got {p}")
    nums = tau_numerators(TWINS, p)  # p * tau_p(d)
    dc = int(nums.sum())
    d = np.arange(p)
    # Two accuracy measures for the 1e-14 Parseval check: reduce k*d mod p
    # before taking phases (exp of large arguments drops low bits), and
    # transform the mean-centered integer sequence so the AC coefficients
    # carry no cancellation noise from the DC term.
    roots = np.exp(-2j * math.pi * d / p)
    centered = (nums * p - dc).astype(np.float64)
    scale = float(p) ** 3
    rows = [FourierRow(p=p, k=0, coeff_closed=(p - 2) ** 2 / p**2, coeff_dft=dc / p**2)]
    for k in range(1, p):
        dft = complex(np.sum(centered * roots[(k * d) % p]) / scale)
        closed = 4.0 * math.cos(math.pi * k / p) ** 2 / p**2
        rows.append(FourierRow(p=p, k=k, coeff_closed=closed, coeff_dft=dft))
    return rows


def variance_stats(p: int) -> VarianceStats:
    """Variance of tau_p over a period: closed form vs Parseval.

    Raises if the two disagree beyond 1e-14 relative, since both are
    exact quantities and any gap means the coefficient table is wrong.
    """
    if p < 5:
        raise ValueError(f"variance stats need p >= 5, got {p}")
    var_closed = 2.0 * (3 * p - 8) / p**4
    rows = tau_fourier(p)
    var_parseval = math.fsum(abs(row.coeff_dft) ** 2 for row in rows if row.k != 0)
    if abs(var_parseval - var_closed) > 1e-14 * var_closed:
        raise InvariantError(
            f"Parseval variance {var_parseval!r} != closed form {var_closed!r} at p={p}"
        )
    ratio = 1.0 + 2.0 * (3 * p - 8) / (p - 2) ** 4
    return VarianceStats(p=p, var_closed=var_closed, var_parseval=var_parseval, ratio=ratio)


def product_variance_constant(pmax: int) -> float:
    """prod_{5 <= p <= pmax} ratio(p) - 1, accumulated in the log domain.

    Converges to about 0.242; each factor is 1 + 2(3p-8)/(p-2)^4, so the
    log1p sum keeps precision over thousands of near-unit terms. pmax is
    capped at MAX_PRODUCT_PMAX, checked before any sieving.
    """
    if pmax < 5:
        raise ValueError(f"product needs pmax >= 5, got {pmax}")
    if pmax > MAX_PRODUCT_PMAX:
        raise ValueError(f"product supports pmax up to {MAX_PRODUCT_PMAX}, got {pmax}")
    ps = odd_primes_upto(pmax).astype(np.float64)
    ps = ps[ps >= 5]
    excess = 2.0 * (3.0 * ps - 8.0) / (ps - 2.0) ** 4
    return float(math.expm1(np.sum(np.log1p(excess))))


def weighted_ergodic_sum(m0: int, convention: str = "appendix_c") -> EquidistReport:
    """Sum_{d=1}^{N} (L - 3d) h(d) against the flat-average prediction.

    L = m0^2, N = floor(L/3), h(d) = prod_{5 <= p <= m0} tau_p(d mod p)
    (or tau_p(3d mod p) under section4), and theory = h_bar L^2 / 6 with
    h_bar = prod (p-2)^2/p^2. section4 traverses each prime's cycle in a
    different order (gcd(3, p) = 1), so the two conventions pair weights
    with different factor values. The sum is weighted_float_sum over the
    tau tables at multiples of 1 or 3, so the hot path has no modular
    divisions and the result is math.fsum over all the terms.
    """
    if m0 < 11:
        raise ValueError(f"weighted sum needs m0 >= 11, got {m0}")
    if m0 * m0 > MAX_WINDOW_END:
        raise ValueError(f"m0^2 = {m0 * m0} exceeds the supported window end {MAX_WINDOW_END}")
    if convention not in H_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    ps = [int(p) for p in odd_primes_upto(m0) if p >= 5]
    tables = _tables_at_multiples(TWINS, ps, 1 if convention == "appendix_c" else 3)
    big_l = m0 * m0
    weighted = weighted_float_sum(tables, big_l, 3, 1, 0.0)
    h_bar = 1.0
    for p in ps:
        h_bar *= (p - 2) ** 2 / p**2
    theory = h_bar * big_l * big_l / 6.0
    rel = 100.0 * abs(weighted - theory) / theory
    return EquidistReport(
        m0=m0,
        L=big_l,
        N=big_l // 3,
        weighted_sum=weighted,
        theory=theory,
        rel_error_pct=rel,
        convention=convention,
    )


def fit_power_law(x, y) -> FitResult:
    """Least-squares fit of y = c * x^(-alpha) in log-log coordinates.

    Every point must be positive and finite, checked before any log.
    """
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    bad = ~((xs > 0) & np.isfinite(xs) & (ys > 0) & np.isfinite(ys))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"power-law fit needs positive finite points, got ({xs[i]}, {ys[i]})"
        )
    lx, ly = np.log(xs), np.log(ys)
    if lx.size < 3 or np.unique(lx).size < 3:
        raise ValueError("power-law fit needs at least 3 distinct x values")
    slope, intercept = np.polyfit(lx, ly, 1)
    return FitResult(alpha=float(-slope), intercept=float(intercept))


def fit_decay_exponent(m0_list, errors=None, convention: str = "appendix_c") -> FitResult:
    """Decay exponent of the equidistribution error across an m0 ladder.

    With errors omitted, each m0's relative error is computed here; a
    caller that already ran the sweep can pass its errors to avoid the
    recomputation.
    """
    m0s = list(m0_list)
    if errors is None:
        errors = [weighted_ergodic_sum(m0, convention=convention).rel_error_pct for m0 in m0s]
    return fit_power_law(m0s, errors)


def weighted_exp_sum(theta: float, big_l: int) -> complex:
    """W(theta) = sum_{d=1}^{floor(L/3)} (L - 3d) e^(2 pi i d theta).

    For non-integer theta the geometric tail bound |W| <= L / (2 ||theta||)
    is checked on the way out (||.|| is distance to the nearest integer).
    L is capped at MAX_WINDOW_END, and the terms are summed in chunks, so
    memory stays bounded by the chunk size. theta must be finite.
    """
    if not math.isfinite(theta):
        raise ValueError(f"weighted exponential sum needs a finite theta, got {theta}")
    if big_l < 3:
        raise ValueError(f"weighted exponential sum needs L >= 3, got {big_l}")
    if big_l > MAX_WINDOW_END:
        raise ValueError(f"weighted exponential sum supports L <= {MAX_WINDOW_END}, got {big_l}")
    n = big_l // 3
    value = 0j
    for lo in range(1, n + 1, _SUM_CHUNK):
        d = np.arange(lo, min(lo + _SUM_CHUNK, n + 1), dtype=np.float64)
        value += complex(np.sum((big_l - 3.0 * d) * np.exp(2j * math.pi * d * theta)))
    dist = abs(theta - round(theta))
    if dist > 0:
        bound = big_l / (2.0 * dist)
        if abs(value) > bound * (1.0 + 1e-12):
            raise InvariantError(
                f"|W({theta})| = {abs(value)} exceeds the bound {bound} at L={big_l}"
            )
    return value


def two_prime_checks(p: int, q: int) -> TwoPrimeReport:
    """Injectivity and frequency-sum bound for the two-prime phase map.

    Maps (j, k) in [1, p) x [1, q) to jq + kp mod pq; injectivity makes
    the frequency sum sum 1/||j/p + k/q|| comparable against the full
    harmonic majorant sum_m pq/min(m, pq-m), which is asserted here.
    """
    if not (1 < p < q):
        raise ValueError(f"need primes p < q, got ({p}, {q})")
    if p * q > 10**7:
        raise ValueError(f"product {p * q} too large")
    if not (is_prime_trial(p) and is_prime_trial(q)):
        raise ValueError(f"need primes p < q, got ({p}, {q})")
    pq = p * q
    j = np.arange(1, p, dtype=np.int64)
    k = np.arange(1, q, dtype=np.int64)
    image = (np.add.outer(j * q, k * p) % pq).ravel()
    injective = np.unique(image).size == image.size
    dist = np.minimum(image, pq - image).astype(np.float64)
    freq_sum = float(np.sum(pq / dist))
    m = np.arange(1, pq, dtype=np.float64)
    full_sum_bound = float(np.sum(pq / np.minimum(m, pq - m)))
    if freq_sum > full_sum_bound * (1.0 + 1e-12):
        raise InvariantError(
            f"frequency sum {freq_sum} exceeds its majorant {full_sum_bound} for ({p}, {q})"
        )
    return TwoPrimeReport(
        p=p, q=q, injective=bool(injective), freq_sum=freq_sum, full_sum_bound=full_sum_bound
    )
