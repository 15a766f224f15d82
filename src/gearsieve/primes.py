"""Shared prime table.

A single module-level sieve backs every prime enumeration in the package.
The table grows geometrically and is never shrunk, so repeated callers with
increasing bounds amortize to one sieve pass; views handed out are read-only.
Bounds past MAX_PRIME_TABLE are refused before anything is allocated.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import MAX_PRIME_TABLE

_table: np.ndarray = np.empty(0, dtype=np.int64)
_limit: int = -1


def _rebuild(limit: int) -> None:
    global _table, _limit
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    table = np.flatnonzero(mask).astype(np.int64)
    table.setflags(write=False)
    _table, _limit = table, limit


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, ascending, as a read-only int64 array."""
    if n < 0:
        raise ValueError(f"negative bound: {n}")
    if n > MAX_PRIME_TABLE:
        raise ValueError(f"prime bound {n} exceeds the supported {MAX_PRIME_TABLE}")
    if n > _limit:
        _rebuild(min(max(n, 2 * _limit, 1024), MAX_PRIME_TABLE))
    return _table[: int(np.searchsorted(_table, n, side="right"))]


def odd_primes_upto(n: int) -> np.ndarray:
    """Primes p with 3 <= p <= n (the parity prime 2 excluded)."""
    ps = primes_upto(n)
    return ps[1:] if len(ps) and ps[0] == 2 else ps


def is_prime_trial(n: int) -> bool:
    """Plain trial division, used as an independent cross-check."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True
