"""Classical oracle: prime k-tuples counted by a segmented wheel sieve.

A sieve of Eratosthenes on a wheel (Pritchard, "Explaining the wheel
sieve", Acta Informatica 17, 1982) that shares nothing with the signal
engine, not even the prime table: it imports only math and numpy and
sieves its own base primes, so a fault in the striding code or in `primes`
cannot make it agree on a wrong count.

The wheel modulus W is 30 or 210. The values coprime to W fall in lanes
(8 or 48), and lane c holds W k + c at index k. A first member n sits in
an admissible first lane c0 when every c0 + h is coprime to W; member
n + h is then W (k + s) + r, in lane r at index k + s, where
(s, r) = divmod(c0 + h, W).

The count takes one admissible first lane at a time and sieves one row
over its first-member indices k, in chunks of _ORACLE_CHUNK: entry k is
struck when some member W k + c0 + h is composite. A chunk starts as
copies of the first lane's tile, which strikes the members divisible by a
tile prime: 7, 11 and 13 for W = 30 (period 1001 indices, 30030 in
value), or 11, 13 and 17 for W = 210 (period 2431 indices, 510510 in
value). The primes above them, up to isqrt(end - 1), are strided into the
same row: one slice per prime, member and chunk, from max(p^2, the member's
first multiple of p). So each member's lane is sieved over its own index
range, shifted by s, and lands in place in the one row; a lane shared by
two first lanes is sieved once for each.

`_wheel_modulus` picks W per window with one comparison, which weighs
the row entries the 210 wheel saves against the slice calls it adds,
both from the tuple's count of admissible first lanes. First members
below 31 are checked directly by trial division, which covers members
equal to 3, 5, 7, 11, 13 or 17 (such as the pair (5, 7)), whose lanes the
wheel and the tile would strike.
"""

from __future__ import annotations

import math

import numpy as np

# First-member indices per chunk: one row of at most this many entries is
# alive. In a sweep of 2^18 to 2^21 (see README), 2^20 was fastest below
# 1e9 and as fast as 2^19 and 2^21 near m0 = 1e4.
_ORACLE_CHUNK = 1 << 20
# Each wheel modulus and the primes its tile presieves.
_WHEELS = {30: (7, 11, 13), 210: (11, 13, 17)}
# Row entries that cost as much as one slice call, the one constant of
# the wheel rule: twins cross near 290 first members per 210-lane and base
# prime, (0, 2, 6) near 195 (README, oracle wheel crossover).
_ENTRIES_PER_CALL = 68
# First members below this are checked directly: from 31 up every member
# exceeds 17, so only primes above every tile prime can equal one.
_DIRECT_BELOW = 31
# A 0-d array: numpy fills a slice from it with less overhead per call
# than from a Python bool.
_TRUE = np.array(True)


def _primes_upto(bound: int) -> np.ndarray:
    """Primes p <= bound, ascending, from a plain sieve of their own."""
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def _is_prime(n: int) -> bool:
    """Trial division, for the members of first members below 31."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _first_lanes(modulus: int, offsets: tuple[int, ...]) -> list[int]:
    """The admissible first lanes c0: every c0 + h coprime to modulus."""
    return [
        c0 for c0 in range(1, modulus)
        if all(math.gcd(c0 + h, modulus) == 1 for h in offsets)
    ]


def _wheel_modulus(lane: int, primes: int, offsets: tuple[int, ...]) -> int:
    """30 or 210, for a window whose 210-lanes hold `lane` first members
    and whose sieve strides about `primes` base primes.

    With L30 and L210 admissible first lanes, the rows hold 7 * lane * L30
    entries on the 30 wheel and lane * L210 on the 210 wheel, which is
    fewer, but while a row fits in one chunk each first lane costs one
    slice call per prime and member, so the 210 wheel makes
    (L210 - L30) * k * primes more calls. It is picked once the entries it
    saves are worth those calls. L210 / L30 is 5 for twins and 4 for
    (0, 2, 6), so they cross at 4 and 3 times _ENTRIES_PER_CALL first
    members per base prime.
    """
    narrow, wide = len(_first_lanes(30, offsets)), len(_first_lanes(210, offsets))
    saved = lane * (7 * narrow - wide)
    calls = len(offsets) * primes * (wide - narrow)
    return 210 if saved >= _ENTRIES_PER_CALL * calls else 30


def _tuple_tile(modulus: int, c0: int, offsets: tuple[int, ...]) -> np.ndarray:
    """One tile period of first lane c0's indices k, True where a tile
    prime divides some member modulus * k + c0 + h."""
    presieve = _WHEELS[modulus]
    tile = np.zeros(math.prod(presieve), dtype=bool)
    for p in presieve:
        inverse = pow(modulus, -1, p)
        for h in offsets:
            tile[-(c0 + h) * inverse % p :: p] = True
    return tile


def _fill_from_tile(row: np.ndarray, tile: np.ndarray, phase: int) -> None:
    """Set row to the periodic tile from the given phase on: one period,
    then copies of the filled prefix that double it."""
    filled = min(tile.size, row.size)
    row[:filled] = np.roll(tile, -phase)[:filled]
    while filled < row.size:
        step = min(filled, row.size - filled)
        row[filled : filled + step] = row[:step]
        filled += step


def count_prime_tuples(anchor: int, end: int, offsets: tuple[int, ...]) -> int:
    """Count n in [anchor, end - offsets[-1]) with every n + h prime.

    anchor must be at least 5 and offsets must start at 0. An odd offset
    makes one member of every n >= 5 even and at least 6, so it counts 0.
    """
    span = offsets[-1]
    limit = end - span  # first member must satisfy n + span < end
    if limit <= anchor or any(h % 2 for h in offsets):
        return 0
    total = sum(
        all(_is_prime(n + h) for h in offsets)
        for n in range(anchor, min(limit, _DIRECT_BELOW))
    )
    lo = max(anchor, _DIRECT_BELOW)
    if limit <= lo:
        return total
    base = _primes_upto(math.isqrt(end - 1))
    modulus = _wheel_modulus(-(-(limit - lo) // 210), base.size, offsets)
    period = math.prod(_WHEELS[modulus])
    base = base[base > _WHEELS[modulus][-1]]
    inverse = np.array([pow(modulus, -1, p) for p in base.tolist()], dtype=np.int64)
    # Lane c0 holds the first members modulus * k + c0 with first <= k < last.
    ranges = {
        c0: (-((c0 - lo) // modulus), -((c0 - limit) // modulus))
        for c0 in _first_lanes(modulus, offsets)
    }
    if not ranges:
        return total
    row = np.empty(min(_ORACLE_CHUNK, max(b - a for a, b in ranges.values())), dtype=bool)
    for c0, (first, last) in ranges.items():
        tile = _tuple_tile(modulus, c0, offsets)
        # Member c0 + h is struck by p at k = -(c0 + h) / modulus mod p,
        # from the first k whose member is at least p^2.
        strikes = [
            (-(c0 + h) * inverse % base, (base * base - c0 - h + modulus - 1) // modulus)
            for h in offsets
        ]
        for kc in range(first, last, _ORACLE_CHUNK):
            hit = row[: min(_ORACLE_CHUNK, last - kc)]
            _fill_from_tile(hit, tile, kc % period)
            # Primes whose square passes the chunk's last member strike nothing.
            top = math.isqrt(modulus * (kc + hit.size) + c0 + span)
            m = int(np.searchsorted(base, top, side="right"))
            ps = base[:m]
            steps = ps.tolist()
            for residue, k_square in strikes:
                start = np.maximum(k_square[:m], kc)
                start += (residue[:m] - start) % ps
                for p, i in zip(steps, (start - kc).tolist()):
                    hit[i::p] = _TRUE
            total += hit.size - int(np.count_nonzero(hit))
    return total
