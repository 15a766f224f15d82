"""Window sieving engine: composite signal, certification, and oracles.

The signal model: fix an odd anchor P with gcd(P, 6) = 1 and scan the odd
candidates N_r = P + 2r below some end value. For a basis of odd primes
and a constellation H, the composite signal S_C(r) counts divisibility
hits p | (N_r + h) over all basis primes p and offsets h. Inside a window
whose end does not exceed (basis bound)^2, S_C(r) = 0 certifies that every
member of the tuple at N_r is prime, because any composite member would
have a prime factor inside the basis.

Everything is computed by striding in position space (one slice assignment
per (prime, offset) pair and block), never by per-position trial division.
One core does all the striding: the per-pair start residues are computed
once, and fixed cache-sized blocks advance them arithmetically, so results
never depend on how a caller would partition the window. Mask mode also
strides only the positions r mod 15 where no member is divisible by 3 or 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .constellations import Constellation, is_admissible, omega
from .errors import InvariantError
# primes_upto is not called here any more; benchmarks/tracing.py times
# the prime table by rebinding engine.primes_upto, so the name stays.
from .primes import odd_primes_upto, primes_upto  # noqa: F401

# Domain limits of the public entry points, kept in one place.
# Windows (and Goldbach even values) larger than this are out of scope.
MAX_WINDOW_END = 10**9
# Structural primality walks isqrt(n)/2 moduli, about 0.4 s at this size,
# and keeps every gear phase and modulus well inside int64.
MAX_PRIME_N = 10**16
# `gearsieve fourier` runs an O(p^2) DFT for every prime up to its bound.
MAX_FOURIER_PMAX = 1000

# Entries per lane that one block strides: a lane this long stays in L2
# while every (prime, offset) pair passes over it.
_BLOCK = 1 << 19

# Primes the mask-mode wheel removes by construction; 15 lanes.
_WHEEL = (3, 5)


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
        return np.unpackbits(self.zero_bits, count=self.window.positions).view(bool)


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


def _counter_dtype(start: int, count: int, offsets: tuple[int, ...]) -> type:
    # A member of absolute value <= top has at most log_3(top) odd prime
    # factors, so k * (that + 1) bounds the signal; pick the narrowest
    # safe counter.
    last = start + 2 * max(count - 1, 0)
    top = max((max(abs(start + h), abs(last + h)) for h in offsets), default=0)
    bound = len(offsets) * (int(math.log(max(top, 3)) / math.log(3)) + 1)
    return np.uint8 if bound <= 255 else np.uint16


def _stride_blocks(start, count, primes, offsets, modulus, lanes, dtype):
    """The striding core: every (lane, offset, prime) hit, one block at a time.

    Lane c holds the positions r = c + modulus*t, whose members are
    start + 2c + h + 2*modulus*t, so p | member exactly when
    t = -(start + 2c + h) / (2*modulus) mod p. Primes dividing modulus are
    skipped; the caller accounts for them through its choice of lanes.
    Yields (t_lo, i, row) for t_lo = 0, _BLOCK, ... and, within each
    block, every lane index i in turn: row[j] covers t = t_lo + j of lane
    lanes[i] and holds its hit count (an integer dtype) or whether it was
    hit at all (bool). Entries past the last position are garbage. The one
    row buffer is reused, so consume each row before asking for the next.
    """
    ps = np.array([p for p in primes.tolist() if modulus % p != 0], dtype=np.int64)
    n_t = -(-count // modulus)
    row = np.zeros(min(_BLOCK, n_t), dtype=dtype)
    # Triples run lane by lane, then offset, then prime, so the lane's
    # row stays in cache while every prime strides it.
    inv = np.array([pow(2 * modulus, -1, p) for p in ps.tolist()], dtype=np.int64)
    bases = np.array([start + 2 * c + h for c in lanes for h in offsets], dtype=np.int64)
    t0 = ((-bases[:, None] % ps) * inv % ps).ravel()
    step = np.broadcast_to(ps, (bases.size, ps.size)).ravel()
    steps = step.tolist()
    per_lane = len(offsets) * ps.size
    counts = row.dtype != bool
    for t_lo in range(0, n_t, _BLOCK):
        firsts = ((t0 - t_lo) % step).tolist()
        for i in range(len(lanes)):
            row.fill(0)
            lane = slice(i * per_lane, (i + 1) * per_lane)
            for first, p in zip(firsts[lane], steps[lane]):
                if counts:
                    row[first::p] += 1
                else:
                    row[first::p] = True
            yield t_lo, i, row


def _self_hit_positions(
    start: int, count: int, primes: np.ndarray, offsets: tuple[int, ...]
) -> np.ndarray:
    """Positions r < count with a member start + 2r + h equal to +p or -p.

    One entry per (p, h) self-hit, so a position appears once for each
    basis prime among its members.
    """
    ps = np.asarray(primes, dtype=np.int64)
    hs = np.array(offsets, dtype=np.int64)[:, None]
    twice = np.concatenate([ps - hs, -ps - hs]).ravel() - start
    keep = (twice >= 0) & (twice % 2 == 0) & (twice < 2 * count)
    return twice[keep] // 2


def _drop_self_hits(
    values: np.ndarray, start: int, primes: np.ndarray, offsets: tuple[int, ...]
) -> None:
    """Turn literal counts into proper-multiple counts, in place."""
    np.subtract.at(values, _self_hit_positions(start, values.size, primes, offsets), 1)


def signal_values(
    start: int,
    count: int,
    primes: np.ndarray,
    offsets: tuple[int, ...],
    count_self_hits: bool = True,
    segments: int = 1,
) -> np.ndarray:
    """Raw per-position hit counts over positions start + 2r, r < count.

    No window or candidate validation; this is the striding core's counts
    mode (one lane, no wheel), exposed for residue-averaging checks that
    scan arbitrary (even even) starts. segments is validated but no longer
    sizes the work: the core always strides fixed cache-sized blocks.
    """
    if count < 0:
        raise ValueError(f"position count must be >= 0, got {count}")
    if segments < 1:
        raise ValueError(f"segment count must be >= 1, got {segments}")
    values = np.empty(count, dtype=_counter_dtype(start, count, offsets))
    for t_lo, _, row in _stride_blocks(start, count, primes, offsets, 1, [0], values.dtype):
        width = min(row.size, count - t_lo)
        values[t_lo : t_lo + width] = row[:width]
    if not count_self_hits:
        _drop_self_hits(values, start, primes, offsets)
    return values


def _wheel_plan(start, count, primes, offsets, count_self_hits):
    """Mask mode's wheel lanes and exact head: (modulus, lanes, head_zero).

    Wheel primes (3 and 5, when in the basis) are handled by construction:
    only the lanes r mod modulus where none of them divides a member are
    sieved, and every other position is a hit. Without self-hits, these
    literal marks are wrong only where a member is +-p for a basis prime p.
    Those positions lie in a prefix that ends at the last of them (in a
    window, where members pass the basis bound); head_zero is the exact
    (S_C(r) == 0) over that prefix, from counts, and is empty otherwise.
    """
    in_basis = set(primes.tolist())
    wheel = [q for q in _WHEEL if q in in_basis]
    modulus = math.prod(wheel)
    lanes = [
        c for c in range(modulus)
        if all((start + 2 * c + h) % q != 0 for q in wheel for h in offsets)
    ]
    head_zero = np.zeros(0, dtype=bool)
    if not count_self_hits:
        hits = _self_hit_positions(start, count, primes, offsets)
        if hits.size:
            head = int(hits.max()) + 1
            head_zero = signal_values(start, head, primes, offsets, count_self_hits=False) == 0
    return modulus, lanes, head_zero


def _survivor_bits(
    start: int,
    count: int,
    primes: np.ndarray,
    offsets: tuple[int, ...],
    count_self_hits: bool,
) -> np.ndarray:
    """packbits of (S_C(r) == 0) over positions start + 2r, r < count.

    Each block of wheel lanes is interleaved back into position order and
    packed; the exact head from `_wheel_plan` then replaces its prefix.
    """
    modulus, lanes, head_zero = _wheel_plan(start, count, primes, offsets, count_self_hits)
    bits = np.zeros((count + 7) // 8, dtype=np.uint8)
    chunk = np.zeros((min(_BLOCK, -(-count // modulus)), modulus), dtype=bool)
    for t_lo, i, row in _stride_blocks(start, count, primes, offsets, modulus, lanes, bool):
        lo = modulus * t_lo
        width = min(chunk.shape[0], -(-(count - lo) // modulus))
        chunk[:width, lanes[i]] = ~row[:width]
        if i == len(lanes) - 1:
            packed = np.packbits(chunk[:width].reshape(-1)[: count - lo])
            bits[lo // 8 : lo // 8 + packed.size] = packed
    if head_zero.size:
        nbytes = (head_zero.size + 7) // 8
        prefix = np.unpackbits(bits[:nbytes])
        prefix[: head_zero.size] = head_zero
        bits[:nbytes] = np.packbits(prefix)
    return bits


def _survivor_count(
    start: int,
    count: int,
    primes: np.ndarray,
    offsets: tuple[int, ...],
    count_self_hits: bool,
) -> int:
    """Positions r < count with S_C(r) == 0, without packing any bits.

    Counts the unhit entries of each wheel lane's row, block by block,
    past the exact head from `_wheel_plan`, whose survivors it adds.
    """
    modulus, lanes, head_zero = _wheel_plan(start, count, primes, offsets, count_self_hits)
    head = head_zero.size
    # Lane c holds r = c + modulus*t: t < ends[i] is inside the window and
    # t < heads[i] is inside the head.
    ends = [-(-(count - c) // modulus) for c in lanes]
    heads = [max(0, -(-(head - c) // modulus)) for c in lanes]
    total = int(np.count_nonzero(head_zero))
    for t_lo, i, row in _stride_blocks(start, count, primes, offsets, modulus, lanes, bool):
        a = max(heads[i] - t_lo, 0)
        b = min(ends[i] - t_lo, row.size)
        if b > a:
            total += b - a - int(np.count_nonzero(row[a:b]))
    return total


def _count_bits(bits: np.ndarray, n: int) -> int:
    """Set bits among the first n of a big-endian packed bit array."""
    full, rest = divmod(n, 8)
    # Whole 8-byte words first, so the per-element counts take an eighth
    # of the memory the packed bits do.
    words = full // 8 * 8
    total = int(np.bitwise_count(bits[:words].view(np.uint64)).sum())
    total += int(np.bitwise_count(bits[words:full]).sum())
    if rest:
        total += int(bits[full] >> (8 - rest)).bit_count()
    return total


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
    bit per position and bounds working memory by the block size, which
    is the only storage suitable for very large windows. segments is
    validated but no longer sizes the work: both modes stride fixed
    cache-sized blocks, so every result is independent of it.
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
    args = (window.anchor, window.positions, basis.primes, constellation.offsets, count_self_hits)
    trace = SignalTrace(
        basis=basis,
        window=window,
        constellation=constellation,
        count_self_hits=count_self_hits,
        in_range=window.in_range_positions(constellation.span),
    )
    if mode == "counts":
        trace.values = signal_values(*args)
    else:
        trace.zero_bits = _survivor_bits(*args)
    return trace


def proper_signal(literal: SignalTrace) -> SignalTrace:
    """The proper-multiples counts trace, derived from a literal one.

    The two differ only at the self-hit positions, at most one per
    (basis prime, offset), so this costs no second striding pass.
    """
    if literal.values is None or not literal.count_self_hits:
        raise ValueError("proper_signal expects a literal counts-mode trace")
    values = literal.values.copy()
    window, offsets = literal.window, literal.constellation.offsets
    _drop_self_hits(values, window.anchor, literal.basis.primes, offsets)
    return replace(literal, count_self_hits=False, values=values)


def certify(trace: SignalTrace, survivors: bool = False) -> CertifiedResult:
    """Count in-range positions with S_C = 0, optionally listing them.

    When every window member exceeds the basis bound, the zero-signal
    positions are exactly the all-prime tuples; members at or below the
    bound can only survive under the proper-multiples signal variant.
    """
    if trace.zero_bits is not None and not survivors:
        # Counted straight from the packed bits; no mask is unpacked.
        return CertifiedResult(count=_count_bits(trace.zero_bits, trace.in_range))
    zeros = trace.zero_mask()[: trace.in_range]
    count = int(np.count_nonzero(zeros))
    if not survivors:
        return CertifiedResult(count=count)
    starts = trace.window.anchor + 2 * np.flatnonzero(zeros)
    return CertifiedResult(count=count, survivors=tuple(int(v) for v in starts))


def classical_oracle_count(window: Window, constellation: Constellation) -> int:
    """Count all-prime tuples in the window by an ordinary segmented sieve.

    The sieve is `oracle.count_prime_tuples`, which shares nothing with the
    signal path, not even the prime table: an odd-only sieve of
    Eratosthenes, presieved for 3 to 13, with base primes from its own
    small sieve. Used as an independent cross-check.
    """
    if window.end > MAX_WINDOW_END:
        raise ValueError(f"window end {window.end} exceeds the supported {MAX_WINDOW_END}")
    # Imported on first use: no CLI command calls the oracle, so none pays
    # for loading it.
    from .oracle import count_prime_tuples

    return count_prime_tuples(window.anchor, window.end, constellation.offsets)


def goldbach_count(even_n: int, survivors: bool = False) -> CertifiedResult:
    """Count n in [3, even_n/2] with n and even_n - n both prime.

    Basis bound is the smallest odd integer >= sqrt(even_n), so both
    members are certified by proper-multiple hits alone: a basis prime
    equal to a member is excluded, which keeps small prime members alive.
    This is the window core with offsets (0, -even_n) over n = 3 + 2i:
    the second member n - even_n is hit exactly when p | even_n - n.
    A count alone is taken from the core's lane rows, with no packed bits.
    """
    if even_n % 2 != 0 or even_n < 8:
        raise ValueError(f"goldbach count expects an even integer >= 8, got {even_n}")
    if even_n > MAX_WINDOW_END:
        raise ValueError(
            f"goldbach count supports even integers up to {MAX_WINDOW_END}, got {even_n}"
        )
    root = math.isqrt(even_n)
    if root * root < even_n:
        root += 1
    m0 = root if root % 2 == 1 else root + 1
    count = (even_n // 2 - 3) // 2 + 1  # odd n = 3 + 2i up to even_n/2
    args = (3, count, odd_primes_upto(m0), (0, -even_n), False)
    if not survivors:
        return CertifiedResult(count=_survivor_count(*args))
    values = 3 + 2 * np.flatnonzero(np.unpackbits(_survivor_bits(*args), count=count))
    return CertifiedResult(count=int(values.size), survivors=tuple(int(v) for v in values))


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
