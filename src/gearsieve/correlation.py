"""Exact correlation calculus for constellation survival across a window.

For a prime p and position distance d, the local survival probability
tau_p(d) is the fraction of residues a mod p at which the tuple survives
at both positions r and r + d. Since consecutive positions are 2 apart,
the forbidden residues are F_p = {-h mod p} at r and the same set shifted
by -2d at r + d, so p * tau_p(d) = p - 2|F_p| + |F_p ∩ (F_p - 2d)|.
tau_numerators evaluates that closed form for a whole period at once and
is the one kernel behind every tau table; tau() counts the union per
distance in Fraction arithmetic and serves as its oracle.

The exact results are exact integers or Fractions: the tau values, the
CRT averages and, for windows of at most EXACT_POSITION_LIMIT positions,
the covariance sum, whose integer part weighted_product_sum evaluates by
multimodular int64 arithmetic and CRT. Floats appear at report boundaries
(MomentReport fields, table cells) and in the float64 blocked/surviving
split, which covers larger windows and cross-checks the exact sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constellations import Constellation, density_product, is_admissible, omega
from .engine import MAX_TAU_P, MAX_WINDOW_END, SieveBasis, Window, certify, composite_signal
from .errors import InvariantError
from .primes import is_prime_trial, odd_primes_upto

# Windows with at most this many positions get the exact covariance sum
# (weighted_product_sum); larger windows get the float64 split alone.
EXACT_POSITION_LIMIT = 20_000
# Entries of the exact sum's int64 work array, and of each chunk of the
# float sums' arrays.
_KERNEL_ENTRIES = 1 << 20
_SUM_CHUNK = 1 << 20


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

    sigma_off carries the preferred off-diagonal estimate. sigma_off_direct
    is the exact sum, set when positions <= EXACT_POSITION_LIMIT;
    sigma_off_split is the float64 blocked/surviving split, set whenever
    the basis holds a blocking prime. sigma_off is the direct value when
    there is one, the split otherwise.
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
    if p > MAX_TAU_P:
        raise ValueError(f"tau supports primes up to {MAX_TAU_P}, got {p}")
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


def tau_numerators(constellation: Constellation, p: int) -> np.ndarray:
    """p * tau_p(d) for d = 0 .. p-1 as an int64 array, in O(k^2 + p).

    The overlap |F ∩ (F - 2d)| counts the pairs (a, b) in F x F with
    b - a = 2d (mod p), so one bincount of the pairwise differences gives
    it for every d. Each value is at most p; products over many primes are
    weighted_product_sum's work, modulo primes below 2^31.
    """
    _require_prime(p)
    forbidden = np.array(sorted({-h % p for h in constellation.offsets}), dtype=np.int64)
    overlap = np.bincount((forbidden[:, None] - forbidden[None, :]).ravel() % p, minlength=p)
    return p - 2 * forbidden.size + overlap[2 * np.arange(p) % p]


def _table_base(nums: np.ndarray) -> tuple[int, np.ndarray]:
    """The most common nonzero value of a table and the residues that differ from it."""
    counts = np.bincount(nums)
    counts[0] = 0
    base = int(np.argmax(counts))
    return base, np.flatnonzero(nums != base)


def sparse_factors(tables) -> tuple[float, list[tuple[int, list[int], list[float]]]]:
    """Split a product of periodic tables into a constant and sparse corrections.

    tables holds (p, nums), int64 nums[r] = p * (factor at residue r mod p).
    Each table's base is its most common nonzero value; the product equals
    prod base / p times, for each p, nums[r] / base at the residues r where
    nums[r] != base. A tau table of a k-tuple leaves p - 2|F| at all but at
    most k(k-1) + 1 residues, so past the smallest primes the corrections
    are few. Returns that constant and (p, residues, factors) per table;
    sparse_products multiplies them in.
    """
    ps, bases, corrections = [], [], []
    for p, nums in tables:
        base, residues = _table_base(nums)
        ps.append(p)
        bases.append(base)
        corrections.append((p, residues.tolist(), (nums[residues] / base).tolist()))
    # int / int rounds once, so the constant is the correctly rounded product.
    return math.prod(bases) / math.prod(ps), corrections


def sparse_products(const: float, corrections, lo: int, hi: int):
    """Yield (start, acc) over [lo, hi) in chunks of at most _SUM_CHUNK entries.

    acc[i] is const times each table's correction at residue
    (start + i) mod p, applied in table order, so no value depends on the
    chunking, and neither does an exact_float_sum over every chunk.
    """
    for start in range(lo, hi, _SUM_CHUNK):
        acc = np.full(min(_SUM_CHUNK, hi - start), const)
        for p, residues, factors in corrections:
            for r, f in zip(residues, factors):
                acc[(r - start) % p :: p] *= f
        yield start, acc


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
    if len(set(ps)) != len(ps):
        raise ValueError(f"basis primes must be distinct, got {ps}")
    modulus = 1
    for p in ps:
        modulus *= p
    if modulus > 10**6:
        raise ValueError(f"period {modulus} too large to enumerate")
    tables = [(p, tau_numerators(constellation, p).tolist()) for p in ps]
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


def _tables_at_multiples(constellation: Constellation, primes, stride: int):
    """(p, table) per prime, where table[t] = n_p(stride * t mod p).

    Distance d = stride * j reads its factor at table[j % p], so every
    sum over the multiples of stride runs over j.
    """
    return [(p, tau_numerators(constellation, p)[stride * np.arange(p) % p]) for p in primes]


def weighted_product_sum(
    constellation: Constellation, primes: list[int], positions: int, stride: int
) -> int:
    """W = sum_{j=1}^{J} (R - s j) * prod_p n_p(s j mod p), exactly.

    R = positions, s = stride, J = (R - 1) // s and n_p = tau_numerators;
    the kernel is _weighted_table_sum on the primes' tables at multiples
    of s.
    """
    tables = _tables_at_multiples(constellation, primes, stride)
    return _weighted_table_sum(tables, positions, stride)


def _weighted_table_sum(tables, positions: int, stride: int) -> int:
    """W = sum_{j=1}^{J} (R - s j) * prod_p table_p[j mod p], exactly.

    tables are (p, table_p) with table_p[t] = n_p(s t mod p), as built by
    _tables_at_multiples. With s = 1 this is the weighted covariance sum
    over every distance; with s a blocking prime of the basis it is the
    same sum, because n_s(d) = 0 whenever s does not divide d.

    Multimodular evaluation (Knuth, TAOCP vol. 2, 4.3.2): every term is
    below R * prod p, so W < R^2 * prod p, and W is summed modulo enough
    primes below 2^31 for their product to exceed that bound, in int64,
    then rebuilt by CRT. Each product starts at the constant prod of the
    tables' bases (sparse_factors' split); a prime whose table is mostly
    off its base takes one gather instead, the others a strided slice per
    correction residue scaled by the modular inverse of the base. Blocks
    of moduli keep the work array near _KERNEL_ENTRIES entries.
    """
    # Imported on first use: no query command needs the exact sums.
    from .exact import MODULUS_CAP, crt_moduli, crt_rebuild, modular_inverses

    r, s = positions, stride
    if r >= MODULUS_CAP:
        raise ValueError(f"the exact sum keeps weights below 2^31, got {r} positions")
    count = (r - 1) // s
    if count <= 0:
        return 0
    bound = r * r * math.prod(p for p, _ in tables)
    moduli, product = crt_moduli(bound)
    if product <= bound:
        raise InvariantError(f"CRT moduli product does not exceed the bound {bound}")
    dense, sparse = [], []
    for p, nums in tables:
        base, residues = _table_base(nums)
        if 2 * residues.size >= p:
            dense.append((p, nums))
        else:
            sparse.append((p, base, residues, nums[residues]))
    base_product = math.prod(base for _, base, _, _ in sparse)
    width = min(count, _KERNEL_ENTRIES)
    rows = max(1, _KERNEL_ENTRIES // width)
    remainders = []
    for first in range(0, len(moduli), rows):
        block = moduli[first : first + rows]
        m = np.array(block, dtype=np.int64)[:, None]
        const = np.array([base_product % q for q in block], dtype=np.int64)[:, None]
        inverses = modular_inverses(np.array([b for _, b, _, _ in sparse], dtype=np.int64), m)
        # One (rows, 1) factor per correction residue: n_p(t) / base mod m.
        factors = [
            (p, residues.tolist(), values[:, None, None] * inverses[None, :, i, None] % m)
            for i, (p, _, residues, values) in enumerate(sparse)
        ]
        total = np.zeros_like(m)
        for lo in range(1, count + 1, width):
            j = np.arange(lo, min(lo + width, count + 1), dtype=np.int64)
            acc = np.repeat(const, j.size, axis=1)
            for p, nums in dense:
                acc *= nums[j % p]
                acc %= m
            for p, residues, values in factors:
                for t, f in zip(residues, values):
                    view = acc[:, (t - lo) % p :: p]
                    view *= f
                    view %= m
            acc *= r - s * j
            acc %= m
            total = (total + acc.sum(axis=1, keepdims=True)) % m
        remainders += total.ravel().tolist()
    return crt_rebuild(remainders, moduli, product)


def _sigma_off_direct_exact(
    constellation: Constellation, tables, positions: int, stride: int
) -> Fraction:
    """Sum_{d=1}^{R-1} (R - d) * (prod_p tau_p(d) - mu^2), exactly.

    tables are the basis primes' _tables_at_multiples of stride. With
    Q = prod p and M = prod (p - omega(p)), each product of taus is an
    integer over Q, so the whole sum is the weighted product sum over Q
    minus mu^2 times the total weight, with a single final division.
    stride may be a blocking prime of the basis; the value is the same.
    """
    primes = [p for p, _ in tables]
    big_q = math.prod(primes)
    big_m = math.prod(p - omega(constellation, p) for p in primes)
    weighted = _weighted_table_sum(tables, positions, stride)
    total_weight = positions * (positions - 1) // 2
    return Fraction(weighted * big_q - big_m * big_m * total_weight, big_q * big_q)


def _sigma_off_split_float(
    constellation: Constellation, tables, positions: int, p_b: int
) -> float:
    """The blocked/surviving split of the covariance sum, in float64.

    tables are the basis primes' _tables_at_multiples of p_b. Distances
    not divisible by the blocking prime p_b contribute exactly -mu^2 each
    (tau_{p_b} vanishes there); the multiples d = p_b * j keep the product
    over the other primes times 1/p_b. Tables read at j mod p let the
    sparse corrections run as strided slices over j, in chunks.
    """
    from .exact import exact_float_sum

    r = positions
    dmax = (r - 1) // p_b
    mu = 1.0
    for p, _ in tables:
        mu *= (p - omega(constellation, p)) / p
    on_weight = dmax * r - p_b * dmax * (dmax + 1) // 2
    off_weight = r * (r - 1) // 2 - on_weight
    const, corrections = sparse_factors([(p, t) for p, t in tables if p != p_b])
    surviving = exact_float_sum(
        (r - p_b * np.arange(j, j + acc.size)).astype(np.float64) * (acc - mu * mu)
        for j, acc in sparse_products(const / p_b, corrections, 1, dmax + 1)
    )
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
    over the position count. sigma_off is the weighted covariance sum: the
    exact multimodular sum when positions <= EXACT_POSITION_LIMIT, else
    the float64 blocked/surviving split, which also runs beside the exact
    sum as an independent check whenever the basis holds a blocking prime.
    The window end is capped at MAX_WINDOW_END, since the split builds
    float arrays (in chunks) over a third of the positions.
    """
    if mu_source not in ("observed", "expected"):
        raise ValueError(f"mu_source must be 'observed' or 'expected', got {mu_source}")
    if window.end > MAX_WINDOW_END:
        raise ValueError(f"window end {window.end} exceeds the supported {MAX_WINDOW_END}")
    report = is_admissible(constellation)
    if not report.admissible:
        raise ValueError(f"constellation {constellation.name} is not admissible")
    positions = window.positions
    primes = [int(p) for p in basis.primes]
    blocking_in_basis = [p for p in report.blocking if p in primes]
    p_b = min(blocking_in_basis) if blocking_in_basis else None
    # Checked before the count, which would stride the whole window.
    if p_b is None and positions > EXACT_POSITION_LIMIT:
        raise ValueError(
            f"window too large for the direct sum and {constellation.name} "
            "has no blocking prime for the split method"
        )

    if mu_source == "observed":
        if observed_count is None:
            trace = composite_signal(basis, window, constellation, mode="mask")
            observed_count = certify(trace).count
        mu = float(observed_count)
    else:
        mu = mean_field(constellation, basis.m0, positions)

    sigma_diag = mu * (1.0 - mu / positions) if positions > 0 else 0.0

    # Both sums read the tables at multiples of p_b (or of 1); built once.
    tables = _tables_at_multiples(constellation, primes, p_b or 1)
    sigma_off_direct = None
    sigma_off_split = None
    if p_b is not None:
        sigma_off = sigma_off_split = _sigma_off_split_float(
            constellation, tables, positions, p_b
        )
    if positions <= EXACT_POSITION_LIMIT:
        sigma_off = sigma_off_direct = float(
            _sigma_off_direct_exact(constellation, tables, positions, p_b or 1)
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
