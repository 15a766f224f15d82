"""Exact correlation calculus for constellation survival across a window.

For a prime p and position distance d, the local survival probability
tau_p(d) is the fraction of residues a mod p at which the tuple survives
at both positions r and r + d. Since consecutive positions are 2 apart,
the forbidden residues are F_p = {-h mod p} at r and the same set shifted
by -2d at r + d, so p * tau_p(d) = p - 2|F_p| + |F_p ∩ (F_p - 2d)|.
tau_numerators evaluates that closed form for a whole period at once and
is the one kernel behind every tau table; tau() counts the union per
distance in Fraction arithmetic and serves as its oracle.

Everything identity-shaped here stays in Fraction arithmetic; floats only
appear at report boundaries (MomentReport fields, table cells).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constellations import Constellation, density_product, is_admissible, omega
from .engine import SieveBasis, Window, certify, composite_signal
from .primes import is_prime_trial, odd_primes_upto

# Windows with at most this many positions get the exact integer-arithmetic
# covariance sums; larger windows fall back to vectorized float64.
EXACT_POSITION_LIMIT = 20_000


@dataclass(frozen=True)
class LocalSurvival:
    """tau_p(d) with its case label.

    Labels: C when p | d (the two positions see identical residues),
    B when p | (d - 1) or p | (d + 1), A otherwise, and BLOCKED when no
    residue survives at all (tau = 0).
    """

    p: int
    d: int
    tau: Fraction
    case_label: str


@dataclass
class MomentReport:
    """Count moments of a certified window and the derived ratios.

    sigma_off carries the preferred off-diagonal estimate (the direct sum
    when the window is small enough, the blocked/surviving split
    otherwise); both raw values are kept alongside when available.
    """

    m0: int
    L: int
    positions: int
    mu_N: float
    sigma_diag: float
    sigma_off: float
    variance: float
    fano: float
    snr: float
    cv: float
    chebyshev_desert_bound: float
    paley_zygmund_bound: float
    dc_energy: float
    sigma_off_direct: float | None = None
    sigma_off_split: float | None = None


@dataclass(frozen=True)
class AsymptoticReport:
    """Mean-field count with the unit-variance-proxy SNR and CV."""

    m0: int
    mu_N: float
    snr: float
    cv: float


def _require_prime(p: int) -> None:
    if not is_prime_trial(p):
        raise ValueError(f"tau needs a prime modulus, got {p}")


def tau(constellation: Constellation, p: int, d: int) -> LocalSurvival:
    """Exact joint survival probability at position distance d."""
    _require_prime(p)
    if d < 0:
        raise ValueError(f"tau needs a distance >= 0, got {d}")
    return _local_survival(constellation, p, d)


def _local_survival(constellation: Constellation, p: int, d: int) -> LocalSurvival:
    forbidden = {(-h) % p for h in constellation.offsets}
    forbidden |= {(-h - 2 * d) % p for h in constellation.offsets}
    value = Fraction(p - len(forbidden), p)
    if value == 0:
        label = "BLOCKED"
    elif d % p == 0:
        label = "C"
    elif (d - 1) % p == 0 or (d + 1) % p == 0:
        label = "B"
    else:
        label = "A"
    return LocalSurvival(p=p, d=d, tau=value, case_label=label)


def tau_table(constellation: Constellation, p: int) -> list[LocalSurvival]:
    """tau_p(d) over one full period d = 0 .. p-1."""
    _require_prime(p)
    return [_local_survival(constellation, p, d) for d in range(p)]


def tau_numerators(constellation: Constellation, p: int) -> list[int]:
    """p * tau_p(d) for d = 0 .. p-1, in O(k^2 + p).

    The overlap |F ∩ (F - 2d)| counts the pairs (a, b) in F x F with
    b - a = 2d (mod p), so one bincount of the pairwise differences gives
    it for every d. The values are plain Python ints, not int64: the exact
    sums multiply them into products of hundreds of primes.
    """
    _require_prime(p)
    forbidden = np.array(sorted({-h % p for h in constellation.offsets}), dtype=np.int64)
    overlap = np.bincount((forbidden[:, None] - forbidden[None, :]).ravel() % p, minlength=p)
    return (p - 2 * forbidden.size + overlap[2 * np.arange(p) % p]).tolist()


def sparse_factors(tables) -> tuple[float, list[tuple[int, list[int], list[float]]]]:
    """Split a product of periodic tables into a constant and sparse corrections.

    tables holds (p, nums) with nums[r] = p * (factor at residue r mod p).
    Each table's base is its most common nonzero value; the product equals
    prod base / p times, for each p, nums[r] / base at the residues r where
    nums[r] != base. A tau table of a k-tuple leaves p - 2|F| at all but at
    most k(k-1) + 1 residues, so past the smallest primes the corrections
    are few. Returns that constant and (p, residues, factors) per table;
    apply_sparse_factors multiplies them in.
    """
    ps, bases, corrections = [], [], []
    for p, nums in tables:
        nums = np.asarray(nums, dtype=np.int64)
        counts = np.bincount(nums)
        counts[0] = 0
        base = int(np.argmax(counts))
        residues = np.flatnonzero(nums != base)
        ps.append(p)
        bases.append(base)
        corrections.append((p, residues.tolist(), (nums[residues] / base).tolist()))
    # int / int rounds once, so the constant is the correctly rounded product.
    return math.prod(bases) / math.prod(ps), corrections


def apply_sparse_factors(acc: np.ndarray, corrections, start: int) -> None:
    """Multiply acc[i] by each table's correction at residue (start + i) mod p."""
    for p, residues, factors in corrections:
        for r, f in zip(residues, factors):
            acc[(r - start) % p :: p] *= f


def universal_average(constellation: Constellation, p: int) -> Fraction:
    """(1/p) * sum_d tau_p(d) / mu_p^2 over a full period; always 1.

    The normalized correlation ratio averages to exactly 1 for every
    prime that does not fully block the tuple, which is the statement
    that positive and negative correlations balance over a period.
    """
    w = omega(constellation, p)
    if w >= p:
        raise ValueError(f"prime {p} fully blocks {constellation.name}")
    mu_p = Fraction(p - w, p)
    total = sum(tau(constellation, p, d).tau for d in range(p))
    return total / (p * mu_p * mu_p)


def crt_average(constellation: Constellation, basis_primes) -> Fraction:
    """(1/Q) * sum_d prod_p tau_p(d) over d mod Q = prod(primes).

    Enumerated honestly (no independence shortcut) so the result being
    exactly prod mu_p^2 is a real check of cross-prime independence.
    """
    ps = [int(p) for p in basis_primes]
    modulus = 1
    for p in ps:
        modulus *= p
    if modulus > 10**6:
        raise ValueError(f"period {modulus} too large to enumerate")
    tables = [(p, tau_numerators(constellation, p)) for p in ps]
    total = 0
    for d in range(modulus):
        term = 1
        for p, table in tables:
            term *= table[d % p]
        total += term
    denom = modulus
    for p in ps:
        denom *= p
    return Fraction(total, denom)


def mean_field(constellation: Constellation, m0: int, positions: int) -> float:
    """Expected survivor count: positions * prod_{3<=p<=m0} (1 - omega/p)."""
    if positions < 0:
        raise ValueError(f"positions must be >= 0, got {positions}")
    return positions * density_product(constellation, m0).partial_product


def fano_theoretical(m0: int) -> float:
    """Predicted variance-to-mean ratio of the hit-count signal.

    1 - 2 * (sum 1/p^2) / (sum 1/p) over odd primes p <= m0: the signal
    is a sum of near-independent indicators with means 2/p, and the ratio
    reflects how much of the Poisson variance the p^-2 terms remove.
    """
    if m0 < 3:
        raise ValueError(f"fano_theoretical needs m0 >= 3, got {m0}")
    ps = odd_primes_upto(m0).astype(np.float64)
    return float(1.0 - 2.0 * np.sum(ps**-2) / np.sum(1.0 / ps))


def paley_zygmund_bound(mu: float, variance: float) -> float:
    """Lower bound on P(count > 0): mu^2 / (variance + mu^2)."""
    if mu <= 0:
        return 0.0
    return mu * mu / (variance + mu * mu)


def asymptotic_report(m0: int, constellation: Constellation, anchor: int = 7) -> AsymptoticReport:
    """Mean-field count over [anchor, m0^2) with SNR under unit Fano proxy."""
    window = Window.for_capacity(m0, anchor=anchor)
    mu = mean_field(constellation, m0, window.positions)
    snr = math.sqrt(mu)
    return AsymptoticReport(m0=m0, mu_N=mu, snr=snr, cv=1.0 / snr if snr > 0 else math.inf)


def _split_weights(positions: int, p_b: int) -> tuple[int, int, int]:
    """Closed-form weight sums over d in [1, positions).

    Returns (total, on_multiples, off_multiples) for the weights
    (positions - d), split by whether p_b divides d.
    """
    r = positions
    total = r * (r - 1) // 2
    dmax = (r - 1) // p_b
    on = dmax * r - p_b * dmax * (dmax + 1) // 2
    return total, on, total - on


def _sigma_off_direct_exact(
    constellation: Constellation, primes: list[int], positions: int
) -> Fraction:
    """Sum_{d=1}^{R-1} (R - d) * (prod_p tau_p(d) - mu^2), exactly.

    With Q = prod p and M = prod (p - omega(p)), each product of taus is
    an integer over Q, so the whole sum collapses to integer arithmetic
    with a single final division.
    """
    r = positions
    tables = [(p, tau_numerators(constellation, p)) for p in primes]
    big_q = 1
    big_m = 1
    for p in primes:
        big_q *= p
        big_m *= p - omega(constellation, p)
    weighted = 0
    for d in range(1, r):
        term = 1
        for p, table in tables:
            term *= table[d % p]
        weighted += (r - d) * term
    total_weight = r * (r - 1) // 2
    return Fraction(weighted * big_q - big_m * big_m * total_weight, big_q * big_q)


def _sigma_off_split_exact(
    constellation: Constellation, primes: list[int], positions: int, p_b: int
) -> Fraction:
    """The blocked/surviving split of the same sum, exact.

    Distances not divisible by the blocking prime contribute exactly
    -mu^2 each (tau_{p_b} vanishes there); the surviving multiples keep
    the reduced product over the other primes times 1/p_b.
    """
    r = positions
    rest = [p for p in primes if p != p_b]
    tables = [(p, tau_numerators(constellation, p)) for p in rest]
    big_q = 1
    big_m = 1
    for p in primes:
        big_q *= p
        big_m *= p - omega(constellation, p)
    total_weight, _, _ = _split_weights(r, p_b)
    weighted = 0
    for dp in range(1, (r - 1) // p_b + 1):
        d = p_b * dp
        term = 1
        for p, table in tables:
            term *= table[d % p]
        weighted += (r - d) * term
    # blocked part: -mu^2 * off_weight; surviving part folds the same
    # denominator, leaving the identical closed form as the direct sum
    # but with the reduced product (the full product vanishes off the
    # multiples of p_b, and equals the reduced one on them).
    return Fraction(weighted * big_q - big_m * big_m * total_weight, big_q * big_q)


def _sigma_off_split_float(
    constellation: Constellation, primes: list[int], positions: int, p_b: int
) -> float:
    """Vectorized float64 version of the split sum for large windows.

    Entry j - 1 of the product is the reduced product at d = p_b * j;
    reindexing each table by j mod p lets the sparse corrections run as
    strided slices over j.
    """
    r = positions
    dmax = (r - 1) // p_b
    mu = 1.0
    for p in primes:
        mu *= (p - omega(constellation, p)) / p
    _, on_weight, off_weight = _split_weights(r, p_b)
    if dmax == 0:
        return -(mu * mu) * float(off_weight)
    tables = []
    for p in primes:
        if p != p_b:
            nums = np.asarray(tau_numerators(constellation, p))
            tables.append((p, nums[p_b * np.arange(p) % p]))
    const, corrections = sparse_factors(tables)
    acc = np.full(dmax, const / p_b)
    apply_sparse_factors(acc, corrections, start=1)
    weights = (r - p_b * np.arange(1, dmax + 1)).astype(np.float64)
    surviving = math.fsum(weights * (acc - mu * mu))
    return surviving - (mu * mu) * float(off_weight)


def variance_decomposition(
    basis: SieveBasis,
    window: Window,
    constellation: Constellation,
    mu_source: str = "observed",
    observed_count: int | None = None,
) -> MomentReport:
    """Moment report for the certified count over a window.

    mu_N is the certified count (mu_source="observed", the default) or the
    mean-field expectation ("expected"). sigma_diag = mu (1 - mu/positions)
    over the position count. sigma_off is the weighted covariance sum; the
    direct evaluation runs when positions <= 20000, the blocked/surviving
    split always (exact in the same regime, float64 beyond), and the
    reported sigma_off prefers the direct value.
    """
    if mu_source not in ("observed", "expected"):
        raise ValueError(f"mu_source must be 'observed' or 'expected', got {mu_source}")
    report = is_admissible(constellation)
    if not report.admissible:
        raise ValueError(f"constellation {constellation.name} is not admissible")
    positions = window.positions
    if mu_source == "observed":
        if observed_count is None:
            trace = composite_signal(basis, window, constellation)
            observed_count = certify(trace).count
        mu = float(observed_count)
    else:
        mu = mean_field(constellation, basis.m0, positions)

    sigma_diag = mu * (1.0 - mu / positions) if positions > 0 else 0.0

    primes = [int(p) for p in basis.primes]
    blocking_in_basis = [p for p in report.blocking if p in primes]
    p_b = min(blocking_in_basis) if blocking_in_basis else None

    sigma_off_direct = None
    sigma_off_split = None
    if positions <= EXACT_POSITION_LIMIT:
        sigma_off_direct = float(_sigma_off_direct_exact(constellation, primes, positions))
        if p_b is not None:
            sigma_off_split = float(
                _sigma_off_split_exact(constellation, primes, positions, p_b)
            )
    elif p_b is not None:
        sigma_off_split = _sigma_off_split_float(constellation, primes, positions, p_b)
    if sigma_off_direct is not None:
        sigma_off = sigma_off_direct
    elif sigma_off_split is not None:
        sigma_off = sigma_off_split
    else:
        raise ValueError(
            f"window too large for the direct sum and {constellation.name} "
            "has no blocking prime for the split method"
        )

    variance = sigma_diag + sigma_off
    if mu > 0:
        fano = variance / mu
        snr = mu / math.sqrt(variance) if variance > 0 else math.inf
        cv = 1.0 / snr if snr > 0 else math.inf
        chebyshev = min(1.0, max(0.0, variance / (mu * mu)))
        dc_energy = mu * mu / positions
    else:
        fano = math.nan
        snr = 0.0
        cv = math.inf
        chebyshev = 1.0
        dc_energy = 0.0
    return MomentReport(
        m0=basis.m0,
        L=window.length,
        positions=positions,
        mu_N=mu,
        sigma_diag=sigma_diag,
        sigma_off=sigma_off,
        variance=variance,
        fano=fano,
        snr=snr,
        cv=cv,
        chebyshev_desert_bound=chebyshev,
        paley_zygmund_bound=paley_zygmund_bound(mu, variance),
        dc_energy=dc_energy,
        sigma_off_direct=sigma_off_direct,
        sigma_off_split=sigma_off_split,
    )
