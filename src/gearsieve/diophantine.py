"""Diophantine generator N = 2n + 3m and the gear-based primality test.

Every integer N >= 4 decomposes uniquely as N = 2*n0 + 3*m0 with n0 in
{0, 1, 2} once m0 is maximized; (n0, m0) is the canonical seed. Descending
gears (n_k, m_k) = (n0 + 3k, m0 - 2k) keep 2*n_k + 3*m_k = N while the
modulus m_k walks down through every odd integer in [3, m0]. A candidate N
(odd, coprime to 3) is prime exactly when no gear with 1 < m_k <= isqrt(N)
has m_k dividing its phase n_k, which is trial division by odd moduli in
disguise: m_k | n_k implies m_k | N.

The test evaluates the gears in numpy blocks of ascending moduli and stops
at the first block holding a divisor. The blocks ramp up: 64 moduli, then
256, then 1024, then `_PRIME_BLOCK` (4096) each from there on. A composite
with a prime factor below 131 pays for 64 moduli instead of 4096, and a
prime, which walks every block, pays for three more block calls than a
flat walk. Inputs are bounded by `domain.MAX_PRIME_N` (10^16), which keeps
every gear phase and modulus inside int64.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domain import MAX_PRIME_N, MAX_WINDOW_END, _integer

# Moduli per block of the vectorized gear test, once the ramp reaches it.
_PRIME_BLOCK = 4096
# Moduli in the first block; each later block holds four times as many as
# the one before, up to _PRIME_BLOCK.
_RAMP_START = 64

# n mod 3 -> the unique n0 in {0,1,2} with 2*n0 == n (mod 3)
_OFFSET_FOR_RESIDUE = (0, 2, 1)


@dataclass(frozen=True)
class CanonicalSeed:
    """The maximal-m0 decomposition n = 2*n0 + 3*m0 with n0 in {0,1,2}."""

    n: int
    n0: int
    m0: int


@dataclass(frozen=True)
class Gear:
    """One (phase, modulus) pair descending from a seed."""

    k: int
    n_k: int
    m_k: int


def canonical_seed(n: int) -> CanonicalSeed:
    """Decompose n >= 4 into its canonical seed.

    The offset is forced by n mod 3 (2*n0 must match n there), and taking
    the smallest valid n0 maximizes m0 = (n - 2*n0) / 3.
    """
    n = _integer("n", n)
    if n < 4:
        raise ValueError(f"canonical seed requires n >= 4, got {n}")
    n0 = _OFFSET_FOR_RESIDUE[n % 3]
    return CanonicalSeed(n=n, n0=n0, m0=(n - 2 * n0) // 3)


def is_prime_candidate(seed: CanonicalSeed) -> bool:
    """True iff the seed's integer is odd and coprime to 3.

    Structurally: m0 odd rules out even n, and n0 != 0 rules out 3 | n.
    Equivalent to gcd(n, 6) = 1 for n > 3.
    """
    return seed.m0 % 2 == 1 and seed.n0 in (1, 2)


def gear_sequence(seed: CanonicalSeed) -> list[Gear]:
    """All gears of a candidate seed, moduli descending m0, m0-2, ..., 3.

    The moduli sweep exactly the odd integers in [3, m0], so every odd
    prime up to m0 appears as some gear's modulus. m0 is at most
    isqrt(MAX_WINDOW_END) = 31622, the largest basis bound of a supported
    window, checked before any gear is built: at most 15,810 gears, about
    3 MB.
    """
    if not isinstance(seed, CanonicalSeed):
        raise TypeError(f"seed must be a CanonicalSeed, got {seed!r}")
    n0, m0 = _integer("seed.n0", seed.n0), _integer("seed.m0", seed.m0)
    top = math.isqrt(MAX_WINDOW_END)
    if m0 > top:
        raise ValueError(f"gear sequence supports m0 up to {top}, got m0={m0}")
    if m0 % 2 == 0:
        raise ValueError(f"gear sequence needs odd m0, got m0={m0}")
    gears = []
    k = 0
    while m0 - 2 * k >= 3:
        gears.append(Gear(k=k, n_k=n0 + 3 * k, m_k=m0 - 2 * k))
        k += 1
    return gears


@functools.lru_cache(maxsize=None)
def _block_steps(block: int) -> tuple[np.ndarray, np.ndarray]:
    """2i and 3i for i < block: how modulus and phase move across a block."""
    steps = np.arange(block, dtype=np.int64)
    twice, thrice = 2 * steps, 3 * steps
    twice.flags.writeable = thrice.flags.writeable = False
    return twice, thrice


def structural_is_prime(n: int) -> bool:
    """Primality via gear phases: no m_k in (1, isqrt(n)] may divide n_k.

    Rejects n <= 3 outright; callers that care about 2 and 3 must handle
    them before asking. n above MAX_PRIME_N is rejected too. Only gears
    with moduli up to isqrt(n) are visited, from 3 upward, in blocks of
    min(_RAMP_START, _PRIME_BLOCK) moduli, then four times that, and so on
    up to _PRIME_BLOCK; the walk stops at the first block where some m_k
    divides n_k. The answer does not depend on the order, only the cost:
    O(sqrt(n)) for a prime, one short block for most composites.
    """
    n = _integer("n", n)
    if n <= 3:
        raise ValueError(f"structural test is defined for n > 3, got {n}")
    if n > MAX_PRIME_N:
        raise ValueError(f"structural test supports n up to {MAX_PRIME_N}, got {n}")
    seed = canonical_seed(n)
    if not is_prime_candidate(seed):
        return False
    root = math.isqrt(n)
    top = root if root % 2 == 1 else root - 1  # largest odd modulus <= root
    # The gear with modulus m sits at k = (m0 - m) / 2, so its phase is
    # n0 + 3 (m0 - m) / 2; across a block both move by a fixed step.
    twice, thrice = _block_steps(_PRIME_BLOCK)
    lo, block = 3, min(_RAMP_START, _PRIME_BLOCK)
    while lo <= top:
        width = min(block, (top - lo) // 2 + 1)
        m = lo + twice[:width]
        n_k = seed.n0 + 3 * ((seed.m0 - lo) // 2) - thrice[:width]
        if not (n_k % m).all():
            return False
        lo += 2 * width
        block = min(4 * block, _PRIME_BLOCK)
    return True
