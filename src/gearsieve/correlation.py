"""Exact correlation calculus for constellation survival across a window.

For a prime p and position distance d, the local survival probability
tau_p(d) is the fraction of residues a mod p at which the tuple survives
at both positions r and r + d. Since consecutive positions are 2 apart,
the forbidden residues are F_p = {-h mod p} at r and the same set shifted
by -2d at r + d, so p * tau_p(d) = p - 2|F_p| + |F_p ∩ (F_p - 2d)|.
Only the pairwise differences of F_p lift the flat value p - 2|F_p|, so
over a period the table leaves it at no more than k(k-1) + 1 residues.
_overlap_table counts those overlaps in O(k^2) for one prime, as a
base value plus the few residues off it, read at any stride. Every
sparse table is built by _tables_at_multiples, every prime of a sum at
once, and tau_numerators is the dense expansion of one: past 2 * span
(and 2 (D + 1), D the number of distinct offset differences) a prime's
table is p - 2k except p - k at residue 0 and p - 2k + c_d at residue
d * (2 * stride)^-1 mod p, where c_d counts the ordered offset pairs with
difference d, so one numpy pass gives those tables, and the rest take the
overlap count. tau() counts the union per distance in Fraction arithmetic
and serves as the oracle of both.

The exact results are exact integers or Fractions: the tau values, the
CRT averages and, for windows of at most EXACT_POSITION_LIMIT positions,
the covariance sum, whose integer part weighted_product_sum evaluates over
the sparse tables. Its per-distance products are exact float64 integers
below 2^53 (the rare larger ones are taken as Python ints), and Python
ints take one step per distinct product of bases, so numpy does the
strided work. Floats appear at report boundaries (MomentReport fields,
table cells) and in the float64 blocked/surviving split, which covers
larger windows and cross-checks the exact sum.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constellations import Constellation, density_product, is_admissible, omega
from .engine import (
    _TILE_PERIOD,
    MAX_TAU_P,
    MAX_WINDOW_END,
    SieveBasis,
    Window,
    _fill_from_tile,
    _inverses,
    _tile_primes,
    certify,
    composite_signal,
)
from .primes import odd_primes_upto, primes_upto

# Windows with at most this many positions get the exact covariance sum
# (weighted_product_sum); larger windows get the float64 split alone.
EXACT_POSITION_LIMIT = 20_000
# Where variance_decomposition takes mu_N from: the certified count or the
# mean-field expectation.
MU_SOURCES = ("observed", "expected")
# Entries of each chunk of the float sums' arrays.
_SUM_CHUNK = 1 << 20
# Entries of each sub-block of a chunk that takes its weights at once.
_WEIGHT_BLOCK = 1 << 13
# The largest stride whose tables take _tables_at_multiples' closed form:
# engine._inverses caches a table of 2 * stride entries for each stride.
_CLOSED_STRIDE = 1 << 12
# Integers below this bound are exact in float64.
_EXACT_FLOAT = 2.0**53
# Bits of the low limb of each num in the exact sum's int64 group sums.
_LIMB = 26


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


@dataclass(frozen=True)
class MomentReport:
    """Count moments of a certified window and the derived ratios.

    m0 is the basis bound, so an even sweep value reports the odd bound
    below it; `gearsieve moments` prints the m0 it was given in its place.

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


def _require_primes(primes) -> np.ndarray:
    """The primes as an int64 array, once each is checked to be a tau modulus.

    The cap comes first, for every prime, so no bound past it reaches the
    prime table; then every prime must be an odd prime, looked up in the
    shared table up to MAX_TAU_P.
    """
    if max(primes, default=0) > MAX_TAU_P:
        p = next(p for p in primes if p > MAX_TAU_P)
        raise ValueError(f"tau supports primes up to {MAX_TAU_P}, got {p}")
    ps = np.array(primes, dtype=np.int64)
    table = primes_upto(MAX_TAU_P)
    # Every N_r + h is odd, so 2 never strikes a member.
    odd_prime = (table[np.searchsorted(table, ps).clip(max=table.size - 1)] == ps) & (ps != 2)
    if not odd_prime.all():
        raise ValueError(f"tau needs an odd prime modulus, got {ps[~odd_prime][0]}")
    return ps


def tau(constellation: Constellation, p: int, d: int) -> LocalSurvival:
    """Exact joint survival probability at position distance d."""
    _require_primes([p])
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
    _require_primes([p])
    return [_local_survival(constellation, p, d) for d in range(p)]


def tau_numerators(constellation: Constellation, p: int) -> np.ndarray:
    """p * tau_p(d) for d = 0 .. p-1 as an int64 array, in O(k^2 + p).

    The dense expansion of p's sparse table at stride 1, built by
    _tables_at_multiples as the sums build theirs. Each value is at most p.
    """
    return _expand(*_tables_at_multiples(constellation, [p], 1)[0])


def _overlap_table(
    constellation: Constellation, p: int, stride: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """t -> n_p(stride * t mod p) for t = 0 .. p-1 as (base, residues, values), in O(k^2).

    n_p = p * tau_p, for a checked prime p. The table is base except at the
    ascending int64 residues, where it holds the int64 values. base is the
    most common nonzero value, the smallest on a tie, and 0 when every
    value is 0. This is _tables_at_multiples' branch for the primes its
    closed form does not cover, and the tests' reference for that form.

    The overlap |F ∩ (F - 2d)| counts the pairs (a, b) in F x F with
    b - a = 2d (mod p), so each pair lifts the flat value p - 2|F| at
    t = (b - a) * (2 * stride)^-1 mod p, and at most k(k-1) + 1 residues
    leave it. When p divides stride the table is the constant
    n_p(0) = p - |F|. Otherwise, when fewer than half the residues leave
    the flat value, it is the base; only a prime p <= 2 (k(k-1) + 1) can
    fail that, and its table is expanded and counted to find the base.
    """
    forbidden = {-h % p for h in constellation.offsets}
    if stride % p == 0:
        none = np.empty(0, dtype=np.int64)
        return p - len(forbidden), none, none
    step = pow(2 * stride, -1, p)
    overlap: dict[int, int] = {}
    for a in forbidden:
        for b in forbidden:
            t = (b - a) * step % p
            overlap[t] = overlap.get(t, 0) + 1
    flat = p - 2 * len(forbidden)
    residues = sorted(overlap)
    lifted = [flat + overlap[t] for t in residues]
    if 2 * len(residues) < p:
        # flat (odd, so nonzero) holds at more than half the residues.
        return flat, np.array(residues, dtype=np.int64), np.array(lifted, dtype=np.int64)
    nums = _expand(p, flat, residues, lifted)
    counts = np.bincount(nums)
    counts[0] = 0
    base = int(np.argmax(counts))
    changed = np.flatnonzero(nums != base)
    return base, changed, nums[changed]


def _expand(p: int, base: int, residues, values) -> np.ndarray:
    """The dense p-entry int64 table of a (base, residues, values) triple."""
    nums = np.full(p, base, dtype=np.int64)
    nums[residues] = values
    return nums


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
    """(p, base, residues, values) per prime: _overlap_table at stride, for all primes at once.

    The table t -> n_p(stride * t mod p) is base except at the residues.
    Distance d = stride * j reads its factor at t = j % p, so every sum
    over the multiples of stride runs over j. No p-entry array is built.
    The primes are checked once, the cap first (_require_primes).

    Most primes take a closed form of the overlap count, in one numpy pass
    over all of them. With F = {-h mod p}, a pair (a, b) of F x F lifts the
    table at t = (b - a) * (2 * stride)^-1 mod p, and b - a = h_a - h_b.
    When p > 2 * span, the k residues of F are distinct, and the D distinct
    differences d = h_a - h_b of distinct offsets (|d| <= span) stay
    distinct and nonzero mod p. So when also p does not divide stride, the
    table is p - 2k except at t = 0, which holds p - k (the k pairs a = b),
    and at t = d * (2 * stride)^-1 mod p, which holds p - 2k + c_d, where
    c_d counts the ordered pairs with h_a - h_b = d: (0, 2, 6, 8, 12) has
    c_6 = 3. When 2 (D + 1) < p the flat value p - 2k (odd, so nonzero)
    holds at more than half the residues, so it is the base. These are
    _overlap_table's residues, values and base, in the same int64 form.
    Every other prime (p <= 2 * span, p <= 2 (D + 1), p | stride) goes
    through _overlap_table, and so does every prime of a stride past
    _CLOSED_STRIDE.
    """
    ps = _require_primes(primes)
    offsets, k = constellation.offsets, constellation.size
    pairs = Counter(a - b for a in offsets for b in offsets if a != b)
    diffs = np.array(list(pairs), dtype=np.int64)
    lifts = np.array(list(pairs.values()), dtype=np.int64)
    closed = ps > 2 * max(constellation.span, diffs.size + 1)
    closed &= (stride % ps != 0) if stride <= _CLOSED_STRIDE else False
    cp = ps[closed][:, None]
    # Guarded, so a stride past _CLOSED_STRIDE builds no inverse table.
    at = diffs * _inverses(2 * stride, cp) % cp if cp.size else cp
    order = np.argsort(at, axis=1)
    zero = np.zeros_like(cp)
    residues = np.concatenate([zero, np.take_along_axis(at, order, axis=1)], axis=1)
    values = np.concatenate([cp - k, cp - 2 * k + lifts[order]], axis=1)

    tables: list = [None] * ps.size
    listed = ps.tolist()
    rows = zip(np.flatnonzero(closed).tolist(), (cp[:, 0] - 2 * k).tolist(), residues, values)
    for i, base, res, val in rows:
        tables[i] = (listed[i], base, res, val)
    for i in np.flatnonzero(~closed).tolist():
        tables[i] = (listed[i], *_overlap_table(constellation, listed[i], stride))
    return tables


def weighted_product_sum(
    constellation: Constellation, primes: list[int], positions: int, stride: int
) -> int:
    """W = sum_{j=1}^{J} (R - s j) * prod_p n_p(s j mod p), exactly.

    R = positions, s = stride, J = (R - 1) // s and n_p = p * tau_p;
    the kernel is _weighted_table_sum on the primes' sparse tables at
    multiples of s. R is 0 .. EXACT_POSITION_LIMIT, s at least 1 and the
    primes distinct, all checked before any table or entry is built.
    """
    if positions > EXACT_POSITION_LIMIT:
        raise ValueError(
            f"the exact sum supports up to {EXACT_POSITION_LIMIT} positions, got {positions}"
        )
    if positions < 0:
        raise ValueError(f"positions must be >= 0, got {positions}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if len(set(primes)) != len(primes):
        repeated = sorted(p for p, n in Counter(primes).items() if n > 1)
        raise ValueError(f"primes must be distinct, got {repeated} more than once")
    tables = _tables_at_multiples(constellation, primes, stride)
    return _weighted_table_sum(tables, positions, stride)


def _weighted_table_sum(tables, positions: int, stride: int) -> int:
    """W = sum_{j=1}^{J} (R - s j) * prod_p table_p[j mod p], exactly.

    tables are the sparse (p, base, residues, values) forms of table_p[t]
    = n_p(s t mod p), as built by _tables_at_multiples. With s = 1 this
    is the weighted covariance sum over every distance; with s a blocking
    prime of the basis it is the same sum, because n_s(d) = 0 whenever s
    does not divide d.

    Each j meets each prime's table at most once off its base, so its term
    is P * num_j / den_j: P = prod base, num_j the product of the values j
    meets and den_j the product of those tables' bases. The corrections
    build num and den as float64 arrays, one strided multiply each per
    (prime, residue) whose slice holds a distance; a value of 0 sets the
    num slice to 0. Every factor is an integer of at least 1, so a product
    below 2^53 is exact, and one that passes 2^53 stays at or above it (inf
    included) instead of wrapping. The few distances past that bound, such
    as s j = (h_a - h_b) / 2, which meets every prime's table, take a
    direct Python-int product. The rest group by den. Each group's sum of
    (R - s j) * num_j is exact in int64 as two _LIMB-bit limbs of num (for
    R < 2^18), and takes one Python-int step, P // den times that sum.

    So numpy does the J * sum_p (residues of p) / p multiplies, and Python
    ints take one step per distinct den and one product per distance past
    2^53.
    """
    r, s = positions, stride
    count = (r - 1) // s
    if count <= 0:
        return 0
    ps, bases, residues, values = _joined(tables)
    starts = (residues - 1) % ps
    # A correction whose slice starts past the last distance changes nothing.
    on = starts < count
    num = np.ones(count)
    den = np.ones(count)
    with np.errstate(over="ignore"):
        for p, base, i, v in zip(
            ps[on].tolist(), bases[on].tolist(), starts[on].tolist(), values[on].tolist()
        ):
            if v == 0:
                num[i::p] = 0
                continue
            # In place: num[i::p] *= v would copy the view back too.
            view = num[i::p]
            view *= v
            view = den[i::p]
            view *= base
    big = math.prod(base for _, base, _, _ in tables)
    weights = np.arange(r - s, 0, -s, dtype=np.int64)
    live = num != 0
    inexact = live & ((num >= _EXACT_FLOAT) | (den >= _EXACT_FLOAT))
    total = 0
    for j in np.flatnonzero(inexact).tolist():
        hit = (j + 1) % ps == residues
        term = big // math.prod(bases[hit].tolist()) * math.prod(values[hit].tolist())
        total += (r - s * (j + 1)) * term
    live &= ~inexact
    den = den[live].astype(np.int64)
    order = np.argsort(den)
    den = den[order]
    num = num[live].astype(np.int64)[order]
    weights = weights[live][order]
    first = np.flatnonzero(np.diff(den, prepend=0))
    high = np.add.reduceat(weights * (num >> _LIMB), first).tolist()
    low = np.add.reduceat(weights * (num & ((1 << _LIMB) - 1)), first).tolist()
    for d, h, lo in zip(den[first].tolist(), high, low):
        total += big // d * ((h << _LIMB) + lo)
    return total


def _joined(tables):
    """Every table's (prime, base, residue, value) per residue, in table order, as int64 arrays."""
    counts = [residues.size for _, _, residues, _ in tables]
    none = np.empty(0, dtype=np.int64)
    return (
        np.repeat(np.array([p for p, *_ in tables], dtype=np.int64), counts),
        np.repeat(np.array([base for _, base, _, _ in tables], dtype=np.int64), counts),
        np.concatenate([t[2] for t in tables] or [none]),
        np.concatenate([t[3] for t in tables] or [none]),
    )


def _sigma_off_direct_exact(
    constellation: Constellation, tables, positions: int, stride: int
) -> float:
    """Sum_{d=1}^{R-1} (R - d) * (prod_p tau_p(d) - mu^2), correctly rounded.

    tables are the basis primes' _tables_at_multiples of stride. With
    Q = prod p and M = prod (p - omega(p)), each product of taus is an
    integer over Q, so the whole sum is the weighted product sum over Q
    minus mu^2 times the total weight, with a single final division.
    stride may be a blocking prime of the basis; the value is the same.
    """
    primes = [p for p, *_ in tables]
    big_q = math.prod(primes)
    big_m = math.prod(p - omega(constellation, p) for p in primes)
    weighted = _weighted_table_sum(tables, positions, stride)
    total_weight = positions * (positions - 1) // 2
    # int / int rounds once, so this is the exact sum correctly rounded.
    return (weighted * big_q - big_m * big_m * total_weight) / (big_q * big_q)


def weighted_float_sum(tables, positions: int, stride: int, divisor: int, shift: float) -> float:
    """sum_{j=1}^{J} (R - s j) * (prod_p table_p[j mod p] / divisor - shift), in float64.

    The float64 counterpart of _weighted_table_sum, with its R, s, J and
    sparse (p, base, residues, values) tables. The product is prod base / p
    times, for each p, value / base at each of its residues. A tau table
    of a k-tuple leaves p - 2|F| at no more than k(k-1) + 1 residues, so
    past the smallest primes the corrections are few, and they run as
    strided slices over j. They are set up once for all tables: the
    residues and values of every table joined in table order, each value
    divided by its own table's base (one correctly rounded division, as
    values / base per table gives), and walked as one flat list of
    (p, residue, factor) triples.

    The terms are built in chunks of _SUM_CHUNK entries. Each chunk starts
    as a copy of one tile (engine._fill_from_tile, from phase j mod Q): the
    constant times the factors of the leading tables, the prefix of the
    table order that engine._tile_primes picks within min(_TILE_PERIOD,
    chunk length), over one CRT period Q of their primes. The remaining
    tables then correct the chunk in order. Every entry meets the same
    multiplies in the same order as without the tile, so each term is the
    same float. Each chunk then takes its shift and its weights R - s j a
    sub-block of _WEIGHT_BLOCK entries at a time, from a small arange per
    sub-block rather than one chunk-sized array: the weights are integers
    below 2^53, so exact, and each term sees the same subtraction and
    multiply as before, so it stays the same float. Every chunk meets in
    one exact_float_sum: the result is math.fsum over all the terms,
    whatever the chunk or sub-block size.
    """
    from .exact import exact_float_sum

    ps = [p for p, *_ in tables]
    counts = [residues.size for _, _, residues, _ in tables]
    # int / int rounds once, so the constant is the correctly rounded product.
    const = math.prod(base for _, base, _, _ in tables) / math.prod(ps) / divisor
    # One (p, residue, factor) triple per residue, in table order: values /
    # base divides exact int64s once each, as one division per table would.
    each_p, each_base, residues, values = _joined(tables)
    corrections = list(zip(each_p.tolist(), residues.tolist(), (values / each_base).tolist()))
    r, s = positions, stride
    count = max((r - 1) // s, 0)
    hi = count + 1
    limit = min(_TILE_PERIOD, _SUM_CHUNK, count)
    tiled = _tile_primes(np.array(ps, dtype=np.int64), limit).size
    period = math.prod(ps[:tiled])
    split = sum(counts[:tiled])
    # Two periods, so that one period from any phase is one slice.
    tile = np.full(2 * period, const)
    _correct(tile, 0, corrections[:split])

    def terms():
        # One buffer serves every chunk, so consume each chunk before
        # asking for the next.
        buffer = np.empty(min(_SUM_CHUNK, count))
        for j in range(1, hi, _SUM_CHUNK):
            acc = buffer[: hi - j]
            _fill_from_tile(acc, tile, j % period)
            _correct(acc, j, corrections[split:])
            # In place, a sub-block at a time, so no chunk-sized weights.
            for lo in range(0, acc.size, _WEIGHT_BLOCK):
                part = acc[lo : lo + _WEIGHT_BLOCK]
                part -= shift
                first = r - s * (j + lo)
                part *= np.arange(first, first - s * part.size, -s, dtype=np.float64)
            yield acc

    return exact_float_sum(terms())


def _correct(acc: np.ndarray, j: int, corrections) -> None:
    """Scale acc[i], the term of j + i, by each (p, residue, factor)
    correction's factor where (j + i) mod p is its residue, in the given order.

    Its own loop, not engine._strike's: a strike marks or adds 1, and this
    scales each residue class by its own factor.
    """
    for p, t, f in corrections:
        # In place: acc[...] *= f would copy the view back too.
        strided = acc[(t - j) % p :: p]
        strided *= f


def _sigma_off_split_float(
    constellation: Constellation, tables, positions: int, p_b: int
) -> float:
    """The blocked/surviving split of the covariance sum, in float64.

    tables are the basis primes' _tables_at_multiples of p_b. Distances
    not divisible by the blocking prime p_b contribute exactly -mu^2 each
    (tau_{p_b} vanishes there); the multiples d = p_b * j keep the product
    over the other primes times 1/p_b, summed by weighted_float_sum.
    """
    r = positions
    dmax = (r - 1) // p_b
    mu = 1.0
    for p, *_ in tables:
        mu *= (p - omega(constellation, p)) / p
    on_weight = dmax * r - p_b * dmax * (dmax + 1) // 2
    off_weight = r * (r - 1) // 2 - on_weight
    others = [table for table in tables if table[0] != p_b]
    surviving = weighted_float_sum(others, r, p_b, p_b, mu * mu)
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
    exact sum, rounded once, when positions <= EXACT_POSITION_LIMIT, else
    the float64 blocked/surviving split, which also runs beside the exact
    sum as an independent check whenever the basis holds a blocking prime.
    The window end is capped at MAX_WINDOW_END, since the split builds
    float arrays (in chunks) over a third of the positions.
    """
    if mu_source not in MU_SOURCES:
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
        sigma_off = sigma_off_direct = _sigma_off_direct_exact(
            constellation, tables, positions, p_b or 1
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
