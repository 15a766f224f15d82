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
never depend on how a caller would partition the window. A block's row
holds only the entries left in its lane (plus a counts-mode reach), so a
lane's last block fills and strides no more than it covers. Each row
starts as a copy of one presieve tile, which holds the hits of the
smallest strided primes over their common period Q <= 2^16 (by the
Chinese Remainder Theorem they repeat with period Q along every lane), read
from the lane's phase; only the larger primes are strided. Mask mode walks
only the wheel lanes: the positions r mod 15 where no member is divisible
by 3 or 5, or r mod 105 on long windows, where 7 is removed too. One walk
over those lane rows, one core call, serves both a count, which sums each
row's unhit entries, and a survivor list, which collects their positions.
Under the proper-multiples variant the core skips each lane's self-hit
of a prime it strides, and the few positions with a member equal to a
prime it does not stride are checked directly: 3, 5 and 7 off the lanes,
and the tile primes, 7 to 19, inside them. Counts mode strides one lane
for offset 0 alone: the offsets are even, so S_C(r) is the sum of omega,
the count of basis primes dividing one member, at r + h/2 over the
offsets h. Each block's S is built from shifted views of that one omega
row; `signal_values` keeps it per position, and `signal_sums` sums it
exactly and keeps nothing, taking the literal sum of S in closed form
from each (prime, offset) pair's count of hits.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .constellations import Constellation, is_admissible, omega
from .errors import InvariantError
# primes_upto is not called here any more; benchmarks/tracing.py times
# the prime table by rebinding engine.primes_upto, so the name stays.
from .primes import MAX_PRIME_TABLE, odd_primes_upto, primes_upto  # noqa: F401

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
# product_variance_constant sieves every prime up to its bound, which is
# the prime table's own: 10^7 peaks near 27 MB, and the primes past it
# move the product by about 2e-15.
MAX_PRODUCT_PMAX = MAX_PRIME_TABLE

# Entries per lane that one block strides. A 1 MiB bool or uint8 row stays
# in a 2 MiB L2 while every (prime, offset) pair passes over it, and a long
# lane makes half the slice calls it made with 2^19-entry blocks (README,
# Engine notes, has the measurements at 2^19, 2^20 and 2^21).
_BLOCK = 1 << 20
# Positions SignalTrace.zero_bits packs at a time: a multiple of 8, so each
# piece is whole bytes. It is kept apart from _BLOCK, so the packing's
# memory does not follow the core's block.
_PACK = 1 << 19
# Longest period of the presieve tile that starts every lane row: the
# smallest strided primes whose product stays within it are copied, not
# strided.
_TILE_PERIOD = 1 << 16

# Primes the mask-mode wheel removes by construction; 15 lanes.
_WHEEL = (3, 5)
# The mask-mode wheel on long windows; 105 lanes.
_COUNT_WHEEL = (3, 5, 7)


def _integer(name: str, value) -> int:
    """value as an int (numpy ints too); a float or a str raises TypeError naming name."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True, eq=False)
class SieveBasis:
    """All odd primes in [3, m0], ascending, for an odd capacity m0 >= 3.

    The basis is its bound: primes is derived from m0 once, at
    construction, as a read-only view of the shared prime table, so no
    basis holds a prime list that disagrees with m0.
    """

    m0: int
    primes: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "m0", _integer("m0", self.m0))
        if self.m0 < 3 or self.m0 % 2 == 0:
            raise ValueError(f"basis capacity must be an odd integer >= 3, got {self.m0}")
        object.__setattr__(self, "primes", odd_primes_upto(self.m0))


@dataclass(frozen=True)
class Window:
    """A half-open scan range [anchor, end) over odd candidates.

    Positions are r = 0, 1, ... with N_r = anchor + 2r < end; length is
    end - anchor and the position count is ceil(length / 2).
    """

    anchor: int
    end: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchor", _integer("anchor", self.anchor))
        object.__setattr__(self, "end", _integer("end", self.end))
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
        return cls(anchor=anchor, end=_integer("m0", m0) ** 2)

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


@dataclass(frozen=True, eq=False)
class SignalTrace:
    """Per-position signal over a window, as counts or a mask walk to come.

    values holds S_C(r) per position (counts mode) and is None in mask
    mode. A mask trace keeps no positions: zero_bits, zero_mask and
    certify each walk the window again, so a trace that is only counted
    never collects a survivor. zero_bits is None in counts mode; in mask
    mode it packs one bit per position, set where S_C(r) = 0, big-endian,
    from a fresh survivor list on each read, through a bool mask of _PACK
    positions, not of the core's block.
    in_range is the count of leading positions eligible for certification.
    """

    basis: SieveBasis
    window: Window
    constellation: Constellation
    count_self_hits: bool
    in_range: int
    values: np.ndarray | None = None

    def _core_args(self, count: int) -> tuple:
        """Striding-core arguments for the first count positions."""
        offsets = self.constellation.offsets
        return (self.window.anchor, count, self.basis.primes, offsets, self.count_self_hits)

    @property
    def zero_bits(self) -> np.ndarray | None:
        if self.values is not None:
            return None
        # Packed _PACK positions at a time, so no mask spans the window.
        n = self.window.positions
        positions = _survivor_positions(*self._core_args(n))
        bits = np.empty(-(-n // 8), dtype=np.uint8)
        mask = np.empty(min(_PACK, n), dtype=bool)
        for lo in range(0, n, _PACK):
            block = mask[: n - lo]
            block.fill(False)
            first, stop = np.searchsorted(positions, (lo, lo + block.size))
            block[positions[first:stop] - lo] = True
            bits[lo // 8 : (lo + block.size + 7) // 8] = np.packbits(block)
        return bits

    def zero_mask(self) -> np.ndarray:
        """Boolean survivor mask over all positions, from either storage."""
        if self.values is not None:
            return self.values == 0
        mask = np.zeros(self.window.positions, dtype=bool)
        mask[_survivor_positions(*self._core_args(self.window.positions))] = True
        return mask


@dataclass(frozen=True)
class CertifiedResult:
    """A certified count and, if asked for, the surviving start values.

    survivors is then an ascending int64 array, made read-only here.
    """

    count: int
    survivors: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.survivors is not None:
            self.survivors.setflags(write=False)


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


@functools.cache
def _unit_inverses(value: int) -> np.ndarray:
    """r^-1 mod value for every residue r coprime to value, 0 elsewhere.

    Read-only, since every caller shares the one cached table.
    """
    table = np.array(
        [pow(r, -1, value) if math.gcd(r, value) == 1 else 0 for r in range(value)],
        dtype=np.int64,
    )
    table.setflags(write=False)
    return table


def _inverses(value: int, ps: np.ndarray) -> np.ndarray:
    """value^-1 mod p for every prime p in ps, none of which divides value.

    With j = -p^-1 mod value, 1 + j*p is a multiple of value, so
    (1 + j*p) / value is the inverse, and it is below p. j depends only on
    p mod value, which is read from a table of value entries.
    """
    j = -_unit_inverses(value)[ps % value] % value
    return (1 + j * ps) // value


def _fill_from_tile(view: np.ndarray, tile: np.ndarray, phase: int) -> None:
    """Set view to the periodic tile from the given phase on: one period,
    then copies of the filled prefix that double it. tile holds two
    periods, so one period from any phase is one contiguous slice."""
    filled = min(tile.size // 2, view.size)
    view[:filled] = tile[phase : phase + filled]
    while filled < view.size:
        step = min(filled, view.size - filled)
        view[filled : filled + step] = view[:step]
        filled += step


def _tile_primes(ps: np.ndarray, limit: int = _TILE_PERIOD) -> np.ndarray:
    """A tile's primes: the leading primes of ps, as many as keep their
    product within limit. The core passes its ascending strided primes, so
    its presieve tile holds the smallest of them."""
    tiled, period = 0, 1
    while tiled < ps.size and period * int(ps[tiled]) <= limit:
        period *= int(ps[tiled])
        tiled += 1
    return ps[:tiled]


def _strike(view: np.ndarray, firsts: list[int], steps: list[int]) -> None:
    """Mark the hits first, first + p, ... of every (first, p) pair in view.

    A bool view sets each slice; an integer view adds 1 to it in place on
    the strided view: `view[first::p] += 1` would also write the view back
    onto itself, a second strided pass: 22% of the counts stride's time
    over the m0 = 4077 window, 30% at m0 = 10001. Either way the 1 is a
    0-d array of the view's dtype: a slice update from a Python scalar
    converts it on every call, about a quarter of a short slice's cost.
    """
    one = np.ones((), dtype=view.dtype)
    if view.dtype == bool:
        for first, p in zip(firsts, steps):
            view[first::p] = one
    else:
        for first, p in zip(firsts, steps):
            strided = view[first::p]
            strided += one


def _stride_blocks(start, count, primes, offsets, modulus, lanes, dtype, count_self_hits, reach=0):
    """The striding core: every (lane, offset, prime) hit, one block at a time.

    Lane c holds the positions r = c + modulus*t, whose members are
    start + 2c + h + 2*modulus*t, so p | member exactly when
    t = -(start + 2c + h) / (2*modulus) mod p. Primes dividing modulus are
    skipped; the caller accounts for them through its choice of lanes.

    The `_tile_primes` of the other primes, the smallest whose product Q
    stays within _TILE_PERIOD, are not strided: their hits repeat with
    period Q in t, in every lane, so one tile of Q entries holds them (u
    counts the hits on 2*modulus*u + h). Member start + 2c + 2*modulus*t + h
    is 2*modulus*(sigma + t) + h mod Q for the lane's phase
    sigma = (start + 2c) * (2*modulus)^-1 mod Q, so each row starts as the
    tile from phase sigma + t_lo, and the rest of the primes are strided
    into it. A basis with no tile prime gets a one-entry zero tile.

    Without self-hits, a strided triple whose first hit at t >= 0 is the
    member +p starts one period later. That is exact unless a hit comes
    before +p, which needs a member -p first; a member -p for any prime
    here raises InvariantError, since no caller has one. A member equal to
    a tile prime keeps its literal hit from the tile: the caller checks
    those few positions directly.
    Yields (t_lo, i, row) for t_lo = 0, _BLOCK, ... and, within each
    block, every lane index i in turn: row[j] covers t = t_lo + j of lane
    lanes[i] and holds its hit count (an integer dtype) or whether it was
    hit at all (bool). A row holds min(_BLOCK, n_t - t_lo) + reach
    entries, n_t the longest lane's length, so beside its block it also
    covers the first reach values of t after it, which the next block
    strides again. Every row is a view of one reused buffer, so consume
    each row before asking for the next.
    """
    primes = np.asarray(primes, dtype=np.int64)
    ps = primes[modulus % primes != 0]
    n_t = -(-count // modulus)
    row = np.empty(min(_BLOCK, n_t) + reach, dtype=dtype)
    inv = _inverses(2 * modulus, ps)
    hs = np.array(offsets, dtype=np.int64)
    bases = (start + 2 * np.array(lanes, dtype=np.int64)[:, None] + hs).ravel()
    if not count_self_hits:
        twice = -ps[:, None] - hs - start
        if np.any((twice >= 0) & (twice % 2 == 0) & (twice < 2 * count)):
            raise InvariantError(
                f"a member equals -p for a basis prime p, start {start}, count {count}"
            )
    tile_ps = _tile_primes(ps)
    tiled, period = tile_ps.size, math.prod(tile_ps.tolist())
    tile = np.zeros(2 * period, dtype=dtype)
    tile_firsts = (-hs[:, None] * inv[:tiled] % tile_ps).ravel().tolist()
    _strike(tile, tile_firsts, tile_ps.tolist() * len(offsets))
    tile[period:] = tile[:period]
    inverse = pow(2 * modulus, -1, period)
    phases = [(start + 2 * c) * inverse % period for c in lanes]
    ps, inv = ps[tiled:], inv[tiled:]
    # Triples run lane by lane, then offset, then prime, so the lane's
    # row stays in cache while every prime strides it.
    t0 = (-bases[:, None] % ps) * inv % ps
    if not count_self_hits:
        t0 += ps * (bases[:, None] + 2 * modulus * t0 == ps)
    steps = ps.tolist() * len(offsets)
    per_lane = len(steps)
    for t_lo in range(0, n_t, _BLOCK):
        # t0 may lie a period past its residue; max keeps that skip.
        firsts = np.maximum(t0 - t_lo, (t0 - t_lo) % ps).ravel().tolist()
        # A lane's last block is often a sliver of the buffer: fill, stride
        # and yield only its live entries.
        view = row[: min(_BLOCK, n_t - t_lo) + reach]
        for i in range(len(lanes)):
            _fill_from_tile(view, tile, (phases[i] + t_lo) % period)
            _strike(view, firsts[i * per_lane : (i + 1) * per_lane], steps)
            yield t_lo, i, view


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


def _signal_blocks(start, count, primes, offsets):
    """The literal S_C over positions r < count, one block at a time.

    Member start + 2r + h is N_{r + (h - low)/2} for the scan that starts
    at start + low, low the smallest offset, so one counts-mode core call
    with offset 0 strides omega for every offset at once. Its rows reach
    (max h - low)/2 positions past their block, and each block's S is the
    sum of shifted views of one row. Yields (t_lo, block) with block[j] =
    S_C(t_lo + j), in one reused buffer twice the counter's width, so its
    square fits too; consume each block before asking for the next.
    """
    if any(h % 2 for h in offsets):
        raise ValueError(f"the signal needs even offsets, got {offsets}")
    low = min(offsets)
    shifts = [(h - low) // 2 for h in offsets]
    reach = max(shifts)
    counter = np.dtype(_counter_dtype(start, count, offsets))
    signal = np.empty(min(_BLOCK, count), dtype=f"u{2 * counter.itemsize}")
    omega_dtype = _counter_dtype(start + low, count + reach, (0,))
    core = _stride_blocks(
        start + low, count, primes, (0,), 1, [0], omega_dtype, True, reach=reach
    )
    for t_lo, _, row in core:
        block = signal[: count - t_lo]
        block[:] = row[shifts[0] : shifts[0] + block.size]
        for shift in shifts[1:]:
            np.add(block, row[shift : shift + block.size], out=block)
        yield t_lo, block


def signal_values(
    start: int,
    count: int,
    primes: np.ndarray,
    offsets: tuple[int, ...],
    count_self_hits: bool = True,
) -> np.ndarray:
    """Raw per-position hit counts over positions start + 2r, r < count.

    No window or candidate validation; this is the striding core's counts
    mode (one omega lane, no wheel), exposed for residue-averaging checks
    that scan arbitrary (even even) starts. The offsets must be even, as
    an admissible tuple's are. count is capped at the positions of the
    largest supported window, MAX_WINDOW_END // 2.
    """
    if count < 0:
        raise ValueError(f"position count must be >= 0, got {count}")
    if count > MAX_WINDOW_END // 2:
        raise ValueError(
            f"position count {count} exceeds the supported {MAX_WINDOW_END // 2}"
        )
    values = np.empty(count, dtype=_counter_dtype(start, count, offsets))
    for t_lo, block in _signal_blocks(start, count, primes, offsets):
        values[t_lo : t_lo + block.size] = block
    if not count_self_hits:
        np.subtract.at(values, _self_hit_positions(start, count, primes, offsets), 1)
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
    skips each lane member +p of a prime it strides. A position with a
    member +-q for a prime q it does not stride, a wheel prime (off the
    lanes) or a tile prime (inside them, where the row holds q's literal
    hit), follows as a one-entry row (r, 1, hit), checked directly against
    the whole basis: it is the position's only unhit reading.
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
    unstrided = wheel + _tile_primes(primes[modulus % primes != 0]).tolist()
    for r in set(_self_hit_positions(start, count, unstrided, offsets).tolist()):
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


def _check_signal(window: Window, constellation: Constellation) -> None:
    """Reject a window or tuple outside the signal's domain, before striding."""
    if window.end > MAX_WINDOW_END:
        raise ValueError(f"window end {window.end} exceeds the supported {MAX_WINDOW_END}")
    if not is_admissible(constellation).admissible:
        raise ValueError(f"constellation {constellation.name} is not admissible")


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
    mode strides nothing here: each use of its trace walks the window
    again, `certify` counting the survivors without keeping any or listing
    them, so working memory beyond the survivors is bounded by the block
    size, which suits very large windows. segments is validated but no
    longer sizes the work: both modes stride fixed cache-sized blocks, so
    every result is independent of it.
    """
    if mode not in ("counts", "mask"):
        raise ValueError(f"mode must be 'counts' or 'mask', got {mode!r}")
    _check_signal(window, constellation)
    if segments < 1:
        raise ValueError(f"segment count must be >= 1, got {segments}")
    args = (window.anchor, window.positions, basis.primes, constellation.offsets, count_self_hits)
    return SignalTrace(
        basis=basis,
        window=window,
        constellation=constellation,
        count_self_hits=count_self_hits,
        in_range=window.in_range_positions(constellation.span),
        values=signal_values(*args) if mode == "counts" else None,
    )


@dataclass(frozen=True)
class SignalSums:
    """Exact integer sums of S_C over every position of a window.

    literal_* and proper_* are Σ S and Σ S² under each signal variant.
    strict counts the literal zeros below in_range, as `certify` does on a
    literal trace; inclusive counts the proper zeros over all positions.
    """

    positions: int
    literal_sum: int
    literal_squares: int
    proper_sum: int
    proper_squares: int
    strict: int
    inclusive: int

    def moments(self, proper: bool) -> tuple[float, float]:
        """Mean and population variance of one variant, correctly rounded."""
        n = self.positions
        if proper:
            total, squares = self.proper_sum, self.proper_squares
        else:
            total, squares = self.literal_sum, self.literal_squares
        return total / n, float(Fraction(n * squares - total * total, n * n))


def _sum_of_squares(block: np.ndarray) -> int:
    """The exact sum of a block of squares S^2, as a Python int.

    A uint16 block holds the squares of a uint8 counter, each at most
    255^2 = 65025, so any 2^16 of them sum below 2^32: the block is summed
    in uint32 over chunks of 2^16 entries, and the chunk sums are added as
    ints. That spares the cast of every entry to uint64, most of the cost
    of a 2^20-entry block's uint64 sum. A uint32 block (the squares of a
    uint16 counter) sums in uint64, below 2^51 for any block.
    """
    if block.dtype != np.uint16:
        return int(block.sum(dtype=np.uint64))
    chunk = 1 << 16
    return sum(
        int(block[i : i + chunk].sum(dtype=np.uint32)) for i in range(0, block.size, chunk)
    )


def signal_sums(
    basis: SieveBasis, window: Window, constellation: Constellation
) -> SignalSums:
    """Stream S_C over a window once, keeping only exact integer sums.

    The literal Σ S needs no block: p divides member start + 2r + h
    exactly at r = rho = -(start + h) / 2 mod p, so each (prime, offset)
    pair is hit at (count - 1 - rho) // p + 1 of the positions r < count,
    and Σ S adds those counts. The zeros, the squares and the self-hit
    reads come from `_signal_blocks`' one omega stride, and no array
    outlives a block. Each block counts its zeros once, and only the block
    holding in_range counts its head again for strict. Its squares are
    summed exactly by `_sum_of_squares`: in uint32 over chunks of 2^16
    entries for a uint8 counter (2^16 * 255^2 < 2^32), in uint64 for a
    uint16 one. The proper variant differs from the literal one only
    at the self-hit positions: their literal values of S are read as their
    block passes, and the literal sums corrected there. The checks are
    composite_signal's, made before any striding.
    """
    _check_signal(window, constellation)
    start, count, offsets = window.anchor, window.positions, constellation.offsets
    in_range = window.in_range_positions(constellation.span)
    hits, drops = np.unique(
        _self_hit_positions(start, count, basis.primes, offsets), return_counts=True
    )
    ps = basis.primes.astype(np.int64)
    rho = -(start + np.array(offsets, dtype=np.int64)[:, None]) % ps * _inverses(2, ps) % ps
    total = int(np.sum((count - 1 - rho) // ps + 1))
    at_hits = np.zeros(hits.size, dtype=np.int64)
    squares = zeros = strict = 0
    for t_lo, block in _signal_blocks(start, count, basis.primes, offsets):
        block_zeros = block.size - int(np.count_nonzero(block))
        zeros += block_zeros
        if t_lo + block.size <= in_range:
            strict += block_zeros
        elif t_lo < in_range:
            head = block[: in_range - t_lo]
            strict += head.size - int(np.count_nonzero(head))
        inside = (hits >= t_lo) & (hits < t_lo + block.size)
        at_hits[inside] = block[hits[inside] - t_lo]
        np.multiply(block, block, out=block)
        squares += _sum_of_squares(block)
    proper = at_hits - drops
    return SignalSums(
        positions=count,
        literal_sum=total,
        literal_squares=squares,
        proper_sum=total - int(drops.sum()),
        proper_squares=squares - int(np.sum(at_hits * at_hits - proper * proper)),
        strict=strict,
        # A self-hit position is never a literal zero.
        inclusive=zeros + int(np.count_nonzero(proper == 0)),
    )


def certify(trace: SignalTrace, survivors: bool = False) -> CertifiedResult:
    """Count in-range positions with S_C = 0, optionally listing them.

    When every window member exceeds the basis bound, the zero-signal
    positions are exactly the all-prime tuples; members at or below the
    bound can only survive under the proper-multiples signal variant.
    A window ending past (m0 + 2)^2 is refused: every odd composite below
    that has an odd prime factor <= m0, but one above it may have none,
    and would be counted as a prime.
    A mask trace walks its first in_range positions on each call: a count
    sums the unhit entries and keeps none, and a survivor list collects
    them. survivors, when asked for, is a read-only ascending int64 array.
    """
    m0, end = trace.basis.m0, trace.window.end
    if end > (m0 + 2) ** 2:
        raise ValueError(f"window end {end} exceeds (m0 + 2)^2 = {(m0 + 2) ** 2} of basis {m0}")
    if trace.values is not None:
        zeros = trace.values[: trace.in_range] == 0
        if not survivors:
            return CertifiedResult(count=int(np.count_nonzero(zeros)))
        positions = np.flatnonzero(zeros)
    elif survivors:
        positions = _survivor_positions(*trace._core_args(trace.in_range))
    else:
        return CertifiedResult(count=_survivor_count(*trace._core_args(trace.in_range)))
    starts = trace.window.anchor + 2 * positions
    return CertifiedResult(count=int(starts.size), survivors=starts)


def classical_oracle_count(window: Window, constellation: Constellation) -> int:
    """Count all-prime tuples in the window by an ordinary segmented sieve.

    The sieve is `oracle.count_prime_tuples`, which shares nothing with the
    signal path, not even the prime table: a sieve of Eratosthenes on a
    mod-30 or mod-210 wheel, picked per window, with base primes from its
    own small sieve. It takes one admissible first lane at a time and
    sieves one row of first members in chunks of 2^20 indices: each chunk
    starts from the lane's tile for 7, 11 and 13 (or 11, 13 and 17), and
    every member's base-prime multiples are struck into that row. First
    members below 31 are checked by trial division. Used as an independent
    cross-check.
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
    return CertifiedResult(count=int(values.size), survivors=values)


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
