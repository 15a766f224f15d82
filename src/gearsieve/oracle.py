"""Classical oracle: prime k-tuples counted by a segmented wheel sieve.

A sieve of Eratosthenes on the mod-30 wheel (Pritchard, "Explaining the
wheel sieve", Acta Informatica 17, 1982) that shares nothing with the
signal engine, not even the prime table: it imports only math and numpy
and sieves its own base primes, so a fault in the striding code or in
`primes` cannot make it agree on a wrong count.

The values coprime to 30 fall in 8 lanes, c = 1, 7, 11, ..., 29, and lane c
holds 30k + c at index k. Each lane row is sieved in chunks of
_ORACLE_CHUNK indices, in one buffer per lane. A chunk starts as copies of
the lane's own composite tile for 7, 11 and 13, whose period is
7 * 11 * 13 = 1001 indices (30030 in value), and only the primes from 17 to
isqrt(end - 1) are strided, one slice per lane, prime and chunk, from
max(p^2, the first hit in the lane).

Only lanes that hold some member of a tuple are sieved. A first member in
lane c0 is admissible when every c0 + h is coprime to 30; member n + h then
sits in row (c0 + h) mod 30, shifted by (c0 + h) // 30 indices, and the
count ORs those shifted views of each chunk. First members below 31 are
checked directly by trial division, which covers members equal to 3, 5, 7,
11 and 13 (such as the pair (5, 7)), whose lanes the tile and the wheel
would strike.
"""

from __future__ import annotations

import math

import numpy as np

# Lane indices per chunk. In a sweep of 2^18 to 2^21 (see README), 2^20
# was fastest below 1e9 and as fast as 2^19 near m0 = 1e4; its rows for
# six lanes peak at 7.7 MiB, and 2^21 doubles that for no gain.
_ORACLE_CHUNK = 1 << 20
_WHEEL = 30
_LANES = tuple(c for c in range(1, _WHEEL) if math.gcd(c, _WHEEL) == 1)
# Primes whose multiples each lane copies from its tile, not strided.
_PRESIEVE = (7, 11, 13)
_PRESIEVE_PERIOD = math.prod(_PRESIEVE)
# First members below this are checked directly: from 31 up every member
# exceeds 13, so only primes from 17 up can equal one.
_DIRECT_BELOW = 31
# A 0-d array: numpy fills a slice from it with less overhead per call
# than from a Python bool.
_TRUE = np.array(True)


def _base_primes(bound: int) -> np.ndarray:
    """Primes 17 <= p <= bound, ascending, from a plain sieve of their own."""
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.flatnonzero(flags).astype(np.int64)
    return primes[primes > _PRESIEVE[-1]]


def _is_prime(n: int) -> bool:
    """Trial division, for the members of first members below 31."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _lane_tile(c: int) -> np.ndarray:
    """One period of lane c's indices k, True where 7, 11 or 13 divides
    30k + c."""
    tile = np.zeros(_PRESIEVE_PERIOD, dtype=bool)
    for p in _PRESIEVE:
        tile[-c * pow(_WHEEL, -1, p) % p :: p] = True
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
    # Per admissible first lane c0, the (shift, row) of each member n + h.
    firsts = {
        c0: [divmod(c0 + h, _WHEEL) for h in offsets]
        for c0 in _LANES
        if all(math.gcd(c0 + h, _WHEEL) == 1 for h in offsets)
    }
    if not firsts:
        return total
    lanes = sorted({row for members in firsts.values() for _, row in members})
    reach = max(shift for members in firsts.values() for shift, _ in members)
    # Lane c0 holds the first members 30k + c0 with first <= k < last.
    bounds = {c0: (-((c0 - lo) // _WHEEL), -((c0 - limit) // _WHEEL)) for c0 in firsts}
    k_lo = min(first for first, _ in bounds.values())
    k_hi = max(last for _, last in bounds.values())
    row_len = min(_ORACLE_CHUNK, k_hi - k_lo) + reach
    tiles = {c: _lane_tile(c) for c in lanes}
    rows = {c: np.empty(row_len, dtype=bool) for c in lanes}
    base = _base_primes(math.isqrt(end - 1))
    # Lane c is struck by p at k = -c / 30 mod p, never below p^2.
    inverse = np.array([pow(_WHEEL, -1, p) for p in base.tolist()], dtype=np.int64)
    phases = {c: (-c * inverse % base, (base * base - c + _WHEEL - 1) // _WHEEL) for c in lanes}
    for kc in range(k_lo, k_hi, _ORACLE_CHUNK):
        n = min(_ORACLE_CHUNK, k_hi - kc)
        seg_len = n + reach
        wrap = kc % _PRESIEVE_PERIOD
        # Primes whose square passes the chunk's last value strike nothing.
        top = math.isqrt(_WHEEL * (kc + seg_len))
        ps = base[: int(np.searchsorted(base, top, side="right"))]
        for c in lanes:
            row = rows[c][:seg_len]
            _fill_from_tile(row, tiles[c], wrap)
            residue, k_square = phases[c]
            start = np.maximum(k_square[: ps.size], kc)
            start += (residue[: ps.size] - start) % ps
            for p, i in zip(ps.tolist(), (start - kc).tolist()):
                row[i::p] = _TRUE
        for c0, members in firsts.items():
            first, last = bounds[c0]
            a, b = max(first - kc, 0), min(last - kc, n)
            if a >= b:
                continue
            hit = rows[c0][a:b]
            for shift, row in members[1:]:
                hit = hit | rows[row][a + shift : b + shift]
            total += (b - a) - int(np.count_nonzero(hit))
    return total
