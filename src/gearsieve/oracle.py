"""Classical oracle: prime k-tuples counted by a plain segmented sieve.

An odd-only sieve of Eratosthenes that shares nothing with the signal
engine, not even the prime table: it imports only math and numpy and sieves
its own base primes, so a fault in the striding code or in `primes` cannot
make it agree on a wrong count. Index j stands for the odd value 2j + 1.
Each chunk starts as a copy of a composite tile for 3, 5, 7, 11 and 13
(primesieve's presieve), and only the primes from 17 to isqrt(end - 1) are
strided.
"""

from __future__ import annotations

import math

import numpy as np

# Odd values per chunk; a sweep from 2^19 to 2^21 odd values was fastest
# at 2^20 (about 1 MB of flags per chunk).
_ORACLE_CHUNK = 1 << 20
# Primes whose odd multiples are copied from a tile of period
# 3*5*7*11*13 = 15015 odd values (30030 in value), not strided per chunk.
_PRESIEVE = (3, 5, 7, 11, 13)
_PRESIEVE_PERIOD = math.prod(_PRESIEVE)


def _base_primes(bound: int) -> np.ndarray:
    """Primes 17 <= p <= bound, ascending, from a plain sieve of their own."""
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.flatnonzero(flags).astype(np.int64)
    return primes[primes > _PRESIEVE[-1]]


def _presieve_tile(length: int) -> np.ndarray:
    """Odd values 1, 3, 5, ..., True where some prime of _PRESIEVE divides
    the value, one period plus length entries long, so a run of length
    entries can start at any phase of the period."""
    tile = np.zeros(_PRESIEVE_PERIOD, dtype=bool)
    for p in _PRESIEVE:
        tile[(p - 1) // 2 :: p] = True
    return np.resize(tile, _PRESIEVE_PERIOD + length)


def count_prime_tuples(anchor: int, end: int, offsets: tuple[int, ...]) -> int:
    """Count n in [anchor, end - offsets[-1]) with every n + h prime.

    anchor must be odd and at least 5, so an even n is never counted and
    an odd offset makes one member even and at least 6. An even offset h
    is a shift of h/2 odd values: the count ORs the shifted composite
    views of each chunk.
    """
    span = offsets[-1]
    limit = end - span  # first member must satisfy n + span < end
    if limit <= anchor or any(h % 2 for h in offsets):
        return 0
    shifts = [h // 2 for h in offsets[1:]]
    first_j = (anchor - 1) // 2
    starts = (limit - anchor + 1) // 2  # odd first members below limit
    tile = _presieve_tile(_ORACLE_CHUNK + span // 2)
    base = _base_primes(math.isqrt(end - 1))
    total = 0
    for r_lo in range(0, starts, _ORACLE_CHUNK):
        n = min(_ORACLE_CHUNK, starts - r_lo)
        j_lo = first_j + r_lo
        seg_len = n + span // 2
        wrap = j_lo % _PRESIEVE_PERIOD
        comp = tile[wrap : wrap + seg_len].copy()
        for p in _PRESIEVE:  # the tile marks each presieved prime itself
            i = (p - 1) // 2 - j_lo
            if 0 <= i < seg_len:
                comp[i] = False
        # Strided primes start at max(p^2, the first odd multiple in the
        # chunk); those whose square passes the chunk's last value are skipped.
        v_lo, v_hi = 2 * j_lo + 1, 2 * (j_lo + seg_len) - 1
        ps = base[: int(np.searchsorted(base, math.isqrt(v_hi), side="right"))]
        first = -(-v_lo // ps) * ps
        first += ps * (1 - first % 2)
        idx = (np.maximum(first, ps * ps) - 1) // 2 - j_lo
        for p, i in zip(ps.tolist(), idx.tolist()):
            comp[i::p] = True
        hit = comp[:n].copy()
        for s in shifts:
            hit |= comp[s : s + n]
        total += n - int(np.count_nonzero(hit))
    return total
