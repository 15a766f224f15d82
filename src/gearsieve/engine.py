"""Window sieving engine: composite signal, certification, and oracles.

The signal model: fix an odd anchor P with gcd(P, 6) = 1 and scan the odd
candidates N_r = P + 2r below some end value. For a basis of odd primes
and a constellation H, the composite signal S_C(r) counts divisibility
hits p | (N_r + h) over all basis primes p and offsets h. Inside a window
whose end does not exceed (basis bound)^2, S_C(r) = 0 certifies that every
member of the tuple at N_r is prime, because any composite member would
have a prime factor inside the basis.

Everything is computed by striding in position space (one slice assignment
per (prime, offset) pair), never by per-position trial division. Windows
partition into contiguous segments that are evaluated independently and
identically, so results never depend on the segmentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constellations import Constellation, is_admissible, omega
from .errors import InvariantError
from .primes import odd_primes_upto, primes_upto

# Windows larger than this are out of scope for every operation here.
MAX_WINDOW_END = 10**9

_ORACLE_CHUNK = 8_000_000


@dataclass(frozen=True, eq=False)
class SieveBasis:
    """All odd primes in [3, m0], ascending, for an odd capacity m0."""

    m0: int
    primes: np.ndarray


@dataclass(frozen=True)
class Window:
    """A half-open scan range [anchor, end) over odd candidates.

    Positions are r = 0, 1, ... with N_r = anchor + 2r < end; length is
    end - anchor and the position count is ceil(length / 2).
    """

    anchor: int
    end: int

    def __post_init__(self) -> None:
        # Below 5 a window reaches 1 and negative values, which no basis
        # prime strikes: anchor 1 would certify (1, 3) as a twin pair.
        if self.anchor < 5:
            raise ValueError(f"anchor must be >= 5, got {self.anchor}")
        if self.anchor % 2 == 0 or math.gcd(self.anchor, 6) != 1:
            raise ValueError(f"anchor must be odd and coprime to 6, got {self.anchor}")
        if self.end <= self.anchor:
            raise ValueError(f"window end {self.end} must exceed anchor {self.anchor}")

    @classmethod
    def for_capacity(cls, m0: int, anchor: int = 7) -> "Window":
        """The certification window [anchor, m0^2) for a basis bound m0."""
        return cls(anchor=anchor, end=m0 * m0)

    @property
    def length(self) -> int:
        return self.end - self.anchor

    @property
    def positions(self) -> int:
        return (self.length + 1) // 2

    def value_at(self, r: int) -> int:
        return self.anchor + 2 * r

    def in_range_positions(self, span: int) -> int:
        """Positions whose largest member N_r + span still lies below end."""
        usable = self.end - self.anchor - span
        if usable <= 0:
            return 0
        return min(self.positions, (usable + 1) // 2)


@dataclass(eq=False)
class SignalTrace:
    """Per-position signal over a window, in counts or survivor-mask form.

    values holds S_C(r) per position (counts mode); zero_bits holds one bit
    per position, set where S_C(r) = 0, packed big-endian (mask mode).
    in_range is the count of leading positions eligible for certification.
    """

    basis: SieveBasis
    window: Window
    constellation: Constellation
    count_self_hits: bool
    in_range: int
    values: np.ndarray | None = None
    zero_bits: np.ndarray | None = None

    def zero_mask(self) -> np.ndarray:
        """Boolean survivor mask over all positions, from either storage."""
        if self.values is not None:
            return self.values == 0
        bits = np.unpackbits(self.zero_bits)
        return bits[: self.window.positions].astype(bool)


@dataclass(frozen=True)
class CertifiedResult:
    """A certified count, optionally with the surviving start values."""

    count: int
    survivors: tuple[int, ...] | None = None


def build_basis(m0: int) -> SieveBasis:
    """All odd primes up to an odd capacity m0 >= 3."""
    if m0 < 3 or m0 % 2 == 0:
        raise ValueError(f"basis capacity must be an odd integer >= 3, got {m0}")
    primes = odd_primes_upto(m0)
    return SieveBasis(m0=m0, primes=primes)


def first_candidate_above(m0: int) -> int:
    """Smallest integer > m0 that is odd and coprime to 3.

    Any prime > 3 satisfies both constraints, so a window anchored here
    misses no all-prime tuple with first member > m0.
    """
    n = m0 + 1
    while math.gcd(n, 6) != 1:
        n += 1
    return n


def _counter_dtype(max_value: int, k: int) -> type:
    # A member <= max_value has at most log_3(max_value) odd prime factors,
    # so k * (that + 1) bounds the signal; pick the narrowest safe counter.
    bound = k * (int(math.log(max(max_value, 3)) / math.log(3)) + 1)
    return np.uint8 if bound <= 255 else np.uint16


def _stride_segment(
    seg: np.ndarray,
    lo: int,
    start: int,
    primes: np.ndarray,
    offsets: tuple[int, ...],
    count_self_hits: bool,
) -> None:
    """Accumulate hits into seg, which covers position indices [lo, lo+len).

    Position r holds the value start + 2r. For each (p, h), the hit indices
    form the arithmetic progression r = r0 (mod p) with 2*r0 = -(start+h);
    the stride start inside the segment is recomputed from lo, which makes
    the result independent of how the window was partitioned.
    """
    hi = lo + seg.size
    for p in primes:
        p = int(p)
        inv2 = (p + 1) // 2
        for h in offsets:
            r0 = (-(start + h) * inv2) % p
            first = lo + (r0 - lo) % p
            if first < hi:
                seg[first - lo :: p] += 1
            if not count_self_hits:
                # The member equal to p itself is prime, not a proper
                # multiple; take that single hit back.
                member = p - h
                if member >= start and (member - start) % 2 == 0:
                    r_self = (member - start) // 2
                    if lo <= r_self < hi:
                        seg[r_self - lo] -= 1


def signal_values(
    start: int,
    count: int,
    primes: np.ndarray,
    offsets: tuple[int, ...],
    count_self_hits: bool = True,
    segments: int = 1,
) -> np.ndarray:
    """Raw per-position hit counts over positions start + 2r, r < count.

    No window or candidate validation; this is the striding core, exposed
    for residue-averaging checks that scan arbitrary (even even) starts.
    """
    if count < 0:
        raise ValueError(f"position count must be >= 0, got {count}")
    if segments < 1:
        raise ValueError(f"segment count must be >= 1, got {segments}")
    top = start + 2 * max(count - 1, 0) + (max(offsets) if offsets else 0)
    values = np.zeros(count, dtype=_counter_dtype(top, len(offsets)))
    bounds = [i * count // segments for i in range(segments + 1)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        _stride_segment(values[lo:hi], lo, start, primes, offsets, count_self_hits)
    return values


def composite_signal(
    basis: SieveBasis,
    window: Window,
    constellation: Constellation,
    segments: int = 1,
    count_self_hits: bool = True,
    mode: str = "counts",
) -> SignalTrace:
    """Evaluate S_C over a window, storing counts or a packed survivor mask.

    Counts mode keeps one small integer per position; mask mode keeps one
    bit per position and bounds working memory by the segment size, which
    is the only storage suitable for very large windows.
    """
    if mode not in ("counts", "mask"):
        raise ValueError(f"mode must be 'counts' or 'mask', got {mode!r}")
    if window.end > MAX_WINDOW_END:
        raise ValueError(f"window end {window.end} exceeds the supported {MAX_WINDOW_END}")
    report = is_admissible(constellation)
    if not report.admissible:
        raise ValueError(f"constellation {constellation.name} is not admissible")
    if segments < 1:
        raise ValueError(f"segment count must be >= 1, got {segments}")
    n = window.positions
    in_range = window.in_range_positions(constellation.span)
    offsets = constellation.offsets

    if mode == "counts":
        values = signal_values(
            window.anchor,
            n,
            basis.primes,
            offsets,
            count_self_hits=count_self_hits,
            segments=segments,
        )
        return SignalTrace(
            basis=basis,
            window=window,
            constellation=constellation,
            count_self_hits=count_self_hits,
            in_range=in_range,
            values=values,
        )

    # Mask mode: segment boundaries land on byte edges so the per-segment
    # packed bits concatenate into exactly packbits(full mask).
    top = window.anchor + 2 * max(n - 1, 0) + constellation.span
    dtype = _counter_dtype(top, len(offsets))
    bounds = [0]
    for i in range(1, segments):
        bounds.append(min(n, (i * n // segments) & ~7))
    bounds.append(n)
    chunks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        seg = np.zeros(hi - lo, dtype=dtype)
        _stride_segment(seg, lo, window.anchor, basis.primes, offsets, count_self_hits)
        chunks.append(np.packbits(seg == 0))
    zero_bits = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint8)
    return SignalTrace(
        basis=basis,
        window=window,
        constellation=constellation,
        count_self_hits=count_self_hits,
        in_range=in_range,
        zero_bits=zero_bits,
    )


def certify(trace: SignalTrace, survivors: bool = False) -> CertifiedResult:
    """Count in-range positions with S_C = 0, optionally listing them.

    When every window member exceeds the basis bound, the zero-signal
    positions are exactly the all-prime tuples; members at or below the
    bound can only survive under the proper-multiples signal variant.
    """
    zeros = trace.zero_mask()[: trace.in_range]
    count = int(np.count_nonzero(zeros))
    if not survivors:
        return CertifiedResult(count=count)
    starts = trace.window.anchor + 2 * np.flatnonzero(zeros)
    return CertifiedResult(count=count, survivors=tuple(int(v) for v in starts))


def classical_oracle_count(window: Window, constellation: Constellation) -> int:
    """Count all-prime tuples in the window by an ordinary segmented sieve.

    Deliberately shares nothing with the signal path: it sieves every
    integer (even ones included) with all primes up to isqrt(end), then
    ANDs shifted primality masks. Used as an independent cross-check.
    """
    if window.end > MAX_WINDOW_END:
        raise ValueError(f"window end {window.end} exceeds the supported {MAX_WINDOW_END}")
    span = constellation.span
    limit = window.end - span  # first member must satisfy n + span < end
    if limit <= window.anchor:
        return 0
    base = primes_upto(math.isqrt(window.end - 1))
    offsets = constellation.offsets
    total = 0
    for lo in range(window.anchor, limit, _ORACLE_CHUNK):
        hi = min(lo + _ORACLE_CHUNK, limit)
        seg_len = hi - lo + span
        comp = np.zeros(seg_len, dtype=bool)
        for p in base:
            p = int(p)
            first = max(p * p, ((lo + p - 1) // p) * p)
            if first < lo + seg_len:
                comp[first - lo :: p] = True
        is_prime = ~comp
        for v in (0, 1):
            if lo <= v < lo + seg_len:
                is_prime[v - lo] = False
        acc = is_prime[: hi - lo].copy()
        for h in offsets[1:]:
            acc &= is_prime[h : h + hi - lo]
        total += int(np.count_nonzero(acc))
    return total


def goldbach_count(even_n: int, survivors: bool = False) -> CertifiedResult:
    """Count n in [3, even_n/2] with n and even_n - n both prime.

    Basis bound is the smallest odd integer >= sqrt(even_n), so both
    members are certified by proper-multiple hits alone: a basis prime
    equal to a member is excluded, which keeps small prime members alive.
    """
    if even_n % 2 != 0 or even_n < 8:
        raise ValueError(f"goldbach count expects an even integer >= 8, got {even_n}")
    root = math.isqrt(even_n)
    if root * root < even_n:
        root += 1
    m0 = root if root % 2 == 1 else root + 1
    half = even_n // 2
    count = (half - 3) // 2 + 1  # odd n = 3 + 2i up to half
    hits = np.zeros(count, dtype=np.uint8)
    for p in odd_primes_upto(m0):
        p = int(p)
        inv2 = (p + 1) // 2
        # side n: p | n, excluding n == p itself
        i0 = (-3 * inv2) % p
        hits[i0::p] += 1
        if p >= 3 and (p - 3) % 2 == 0:
            i_self = (p - 3) // 2
            if i_self < count:
                hits[i_self] -= 1
        # side even_n - n: p | (even_n - n), excluding even_n - n == p
        j0 = ((even_n - 3) * inv2) % p
        hits[j0::p] += 1
        partner = even_n - p
        if partner >= 3 and (partner - 3) % 2 == 0:
            j_self = (partner - 3) // 2
            if j_self < count:
                hits[j_self] -= 1
    zeros = hits == 0
    total = int(np.count_nonzero(zeros))
    if not survivors:
        return CertifiedResult(count=total)
    values = 3 + 2 * np.flatnonzero(zeros)
    return CertifiedResult(count=total, survivors=tuple(int(v) for v in values))


def torus_average(basis_primes, constellation: Constellation) -> Fraction:
    """Exact fraction of residues a mod prod(primes) with all members alive.

    Enumerates the full residue ring and checks (a + h) mod p != 0 for
    every prime and offset, then verifies the closed form
    prod (p - omega(p)) / p before returning it. Disagreement would mean
    the residue model is broken, so it raises rather than returns.
    """
    ps = [int(p) for p in basis_primes]
    if len(set(ps)) != len(ps):
        raise ValueError(f"basis primes must be distinct, got {ps}")
    modulus = 1
    for p in ps:
        modulus *= p
    if modulus > 10**8:
        raise ValueError(f"residue ring {modulus} too large to enumerate")
    alive_total = 0
    block = 1 << 22
    for base in range(0, modulus, block):
        a = np.arange(base, min(base + block, modulus), dtype=np.int64)
        alive = np.ones(a.size, dtype=bool)
        for p in ps:
            for h in constellation.offsets:
                alive &= (a + h) % p != 0
        alive_total += int(np.count_nonzero(alive))
    measured = Fraction(alive_total, modulus)
    expected = Fraction(1)
    for p in ps:
        expected *= Fraction(p - omega(constellation, p), p)
    if measured != expected:
        raise InvariantError(
            f"torus average {measured} != closed form {expected} "
            f"for primes {ps} and {constellation.name}"
        )
    return measured
