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
never depend on how a caller would partition the window. Mask mode walks
only the wheel lanes: the positions r mod 15 where no member is divisible
by 3 or 5, or r mod 105 on long windows, where 7 is removed too. One walk
over those lane rows, one core call, serves both a count, which sums each
row's unhit entries, and a survivor list, which collects their positions.
Under the proper-multiples variant the core skips each lane's self-hit,
and the few positions with a member equal to a wheel prime are checked
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
# tau tables hold a row per residue; no supported window has a larger prime.
MAX_TAU_P = math.isqrt(MAX_WINDOW_END)

# Entries per lane that one block strides: a lane this long stays in L2
# while every (prime, offset) pair passes over it.
_BLOCK = 1 << 19

# Primes the mask-mode wheel removes by construction; 15 lanes.
_WHEEL = (3, 5)
# The mask-mode wheel on long windows; 105 lanes.
_COUNT_WHEEL = (3, 5, 7)


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
    """Per-position signal over a window, as counts or survivor positions.

    values holds S_C(r) per position (counts mode) and is None in mask
    mode. A mask trace strides on first use (zero_bits, zero_mask or
    certify with survivors) and then keeps only the ascending positions
    where S_C(r) = 0, a sparse set; a mask trace that is only counted
    keeps nothing. zero_bits is None in counts mode; in mask mode it packs
    one bit per position, set where S_C(r) = 0, big-endian, from those
    positions on each read.
    in_range is the count of leading positions eligible for certification.
    """

    basis: SieveBasis
    window: Window
    constellation: Constellation
    count_self_hits: bool
    in_range: int
    values: np.ndarray | None = None
    _survivors: np.ndarray | None = field(default=None, init=False, repr=False)

    def _core_args(self, count: int) -> tuple:
        """Striding-core arguments for the first count positions."""
        offsets = self.constellation.offsets
        return (self.window.anchor, count, self.basis.primes, offsets, self.count_self_hits)

    def _positions(self) -> np.ndarray:
        """A mask trace's survivor positions over the whole window, cached."""
        if self._survivors is None:
            self._survivors = _survivor_positions(*self._core_args(self.window.positions))
        return self._survivors

    @property
    def zero_bits(self) -> np.ndarray | None:
        if self.values is not None:
            return None
        return np.packbits(self.zero_mask())

    def zero_mask(self) -> np.ndarray:
        """Boolean survivor mask over all positions, from either storage."""
        if self.values is not None:
            return self.values == 0
        mask = np.zeros(self.window.positions, dtype=bool)
        mask[self._positions()] = True
        return mask


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


def _stride_blocks(start, count, primes, offsets, modulus, lanes, dtype, count_self_hits):
    """The striding core: every (lane, offset, prime) hit, one block at a time.

    Lane c holds the positions r = c + modulus*t, whose members are
    start + 2c + h + 2*modulus*t, so p | member exactly when
    t = -(start + 2c + h) / (2*modulus) mod p. Primes dividing modulus are
    skipped; the caller accounts for them through its choice of lanes.
    Without self-hits, a triple whose first hit at t >= 0 is the member +p
    starts one period later. That is exact unless a hit comes before +p,
    which needs a member -p first; a member -p for a strided prime raises
    InvariantError, since no caller has one.
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
    if not count_self_hits:
        twice = -ps[:, None] - np.array(offsets, dtype=np.int64) - start
        if np.any((twice >= 0) & (twice % 2 == 0) & (twice < 2 * count)):
            raise InvariantError(
                f"a member equals -p for a basis prime p, start {start}, count {count}"
            )
        t0 += step * (np.repeat(bases, ps.size) + 2 * modulus * t0 == step)
    steps = step.tolist()
    per_lane = len(offsets) * ps.size
    counts = row.dtype != bool
    # A 0-d array, so that no slice assignment converts a Python True:
    # that conversion is about a quarter of a short slice's cost.
    hit = np.ones((), dtype=bool)
    for t_lo in range(0, n_t, _BLOCK):
        # t0 may lie a period past its residue; max keeps that skip.
        firsts = np.maximum(t0 - t_lo, (t0 - t_lo) % step).tolist()
        for i in range(len(lanes)):
            row.fill(0)
            lane = slice(i * per_lane, (i + 1) * per_lane)
            if counts:
                for first, p in zip(firsts[lane], steps[lane]):
                    row[first::p] += 1
            else:
                for first, p in zip(firsts[lane], steps[lane]):
                    row[first::p] = hit
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
) -> np.ndarray:
    """Raw per-position hit counts over positions start + 2r, r < count.

    No window or candidate validation; this is the striding core's counts
    mode (one lane, no wheel), exposed for residue-averaging checks that
    scan arbitrary (even even) starts. count is capped at the positions of
    the largest supported window, MAX_WINDOW_END // 2.
    """
    if count < 0:
        raise ValueError(f"position count must be >= 0, got {count}")
    if count > MAX_WINDOW_END // 2:
        raise ValueError(
            f"position count {count} exceeds the supported {MAX_WINDOW_END // 2}"
        )
    values = np.empty(count, dtype=_counter_dtype(start, count, offsets))
    core = _stride_blocks(start, count, primes, offsets, 1, [0], values.dtype, True)
    for t_lo, _, row in core:
        width = min(row.size, count - t_lo)
        values[t_lo : t_lo + width] = row[:width]
    if not count_self_hits:
        _drop_self_hits(values, start, primes, offsets)
    return values


def _count_wheel(count: int, primes: np.ndarray) -> tuple[int, ...]:
    """The wheel primes for a mask walk over count positions.

    105 lanes write 1/7 fewer entries than 15 but take 7 times the lanes,
    so 5 times the slice operations per surviving lane; they pay only once
    a lane row is long against the number of primes striding it.
    """
    return _COUNT_WHEEL if count // 105 >= 256 * len(primes) else _WHEEL


def _zero_walk(start, count, primes, offsets, count_self_hits):
    """The one mask walk: rows (first, step, hit) over positions r < count.

    Position first + step*j has S_C(r) == 0 exactly where hit[j] is False.
    The wheel is `_count_wheel`'s choice for this count and basis. Its
    primes that are in the basis (3 and 5, or 3, 5 and 7) are handled by
    construction: only the lanes r mod modulus where none of them divides
    a member are strided, and every other position is a hit. One core call
    yields each lane's row, block by block; blocks ascend, but the lanes of
    one block interleave. A lane row is the core's reused buffer, so
    consume it before asking for the next. Without self-hits, the core
    skips each lane member +p, and a position with a member +-q for a
    wheel prime q, off the lanes, follows as a one-entry row (r, 1, hit),
    checked directly against the whole basis.
    """
    in_basis = set(primes.tolist())
    wheel = [q for q in _count_wheel(count, primes) if q in in_basis]
    modulus = math.prod(wheel)
    lanes = [
        c for c in range(modulus)
        if all((start + 2 * c + h) % q != 0 for q in wheel for h in offsets)
    ]
    # Lane c holds r = c + modulus*t, and t < ends[i] is inside the window.
    ends = [-(-(count - c) // modulus) for c in lanes]
    core = _stride_blocks(start, count, primes, offsets, modulus, lanes, bool, count_self_hits)
    for t_lo, i, row in core:
        width = min(ends[i] - t_lo, row.size)
        if width > 0:
            yield lanes[i] + modulus * t_lo, modulus, row[:width]
    if count_self_hits:
        return
    for r in set(_self_hit_positions(start, count, wheel, offsets).tolist()):
        members = start + 2 * r + np.array(offsets, dtype=np.int64)[:, None]
        yield r, 1, np.array([np.any((members % primes == 0) & (np.abs(members) != primes))])


def _survivor_count(
    start: int,
    count: int,
    primes: np.ndarray,
    offsets: tuple[int, ...],
    count_self_hits: bool,
) -> int:
    """Positions r < count with S_C(r) == 0: the unhit entries of each row."""
    walk = _zero_walk(start, count, primes, offsets, count_self_hits)
    return sum(hit.size - int(np.count_nonzero(hit)) for _, _, hit in walk)


def _survivor_positions(
    start: int,
    count: int,
    primes: np.ndarray,
    offsets: tuple[int, ...],
    count_self_hits: bool,
) -> np.ndarray:
    """Ascending positions r < count with S_C(r) == 0, as int64."""
    walk = _zero_walk(start, count, primes, offsets, count_self_hits)
    found = [first + step * np.flatnonzero(~hit) for first, step, hit in walk]
    positions = np.concatenate(found) if found else np.zeros(0, dtype=np.int64)
    # Each row is an ascending run; a stable sort (timsort) merges runs.
    positions.sort(kind="stable")
    return positions


def composite_signal(
    basis: SieveBasis,
    window: Window,
    constellation: Constellation,
    segments: int = 1,
    count_self_hits: bool = True,
    mode: str = "counts",
) -> SignalTrace:
    """Evaluate S_C over a window, storing counts or survivor positions.

    Counts mode strides now and keeps one small integer per position. Mask
    mode strides nothing here: its trace collects the survivor positions
    on first use, or `certify` counts them without keeping any, and either
    way working memory beyond the survivors is bounded by the block size,
    which suits very large windows. segments is validated but no longer
    sizes the work: both modes stride fixed cache-sized blocks, so every
    result is independent of it.
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
    trace = SignalTrace(
        basis=basis,
        window=window,
        constellation=constellation,
        count_self_hits=count_self_hits,
        in_range=window.in_range_positions(constellation.span),
    )
    if mode == "counts":
        trace.values = signal_values(*trace._core_args(window.positions))
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
    A mask trace with survivors asked for, or with its positions already
    collected, takes the cached positions below in_range; otherwise the
    count path walks the in_range positions alone and keeps none.
    """
    if trace.values is not None:
        zeros = trace.values[: trace.in_range] == 0
        if not survivors:
            return CertifiedResult(count=int(np.count_nonzero(zeros)))
        positions = np.flatnonzero(zeros)
    elif survivors or trace._survivors is not None:
        positions = trace._positions()
        positions = positions[: np.searchsorted(positions, trace.in_range)]
    else:
        return CertifiedResult(count=_survivor_count(*trace._core_args(trace.in_range)))
    if not survivors:
        return CertifiedResult(count=int(positions.size))
    starts = trace.window.anchor + 2 * positions
    return CertifiedResult(count=int(positions.size), survivors=tuple(starts.tolist()))


def classical_oracle_count(window: Window, constellation: Constellation) -> int:
    """Count all-prime tuples in the window by an ordinary segmented sieve.

    The sieve is `oracle.count_prime_tuples`, which shares nothing with the
    signal path, not even the prime table: a sieve of Eratosthenes on the
    8 lanes 30k + c coprime to 30, with base primes from its own small
    sieve. Each lane row is sieved in chunks of 2^20 indices that start
    from the lane's tile for 7, 11 and 13, and only the lanes holding a
    member of the tuple are sieved; first members below 31 are checked by
    trial division. Used as an independent cross-check.
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
    A count sums the unhit entries of the mask walk's lane rows, and a
    survivor list collects their positions; neither packs any bits.
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
    values = 3 + 2 * _survivor_positions(*args)
    return CertifiedResult(count=int(values.size), survivors=tuple(values.tolist()))


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
