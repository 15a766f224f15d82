"""Answers for point queries, computed without the package under test.

Each oracle here is a plain, independent implementation of what one CLI
query should print. None of them imports gearsieve, so a defect in the
package cannot cancel out against the same defect in its check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Deterministic for every n < 3.3e24 (Sorenson and Webster, 2015).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_mr(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, using builtin pow."""
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def small_primes(limit: int) -> list[int]:
    """Primes <= limit by a plain list sieve (limits here are tiny)."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


class GoldbachOracle:
    """Goldbach counts from one numpy Eratosthenes sieve over odd numbers.

    Index i of the sieve stands for the odd number 2i + 1, so a sieve up
    to 10^8 holds 5 * 10^7 flags.
    """

    def __init__(self, limit: int) -> None:
        size = limit // 2 + 1
        odd = np.ones(size, dtype=bool)
        odd[0] = False  # 1 is not prime
        for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
            if odd[i]:
                p = 2 * i + 1
                odd[p * p // 2 :: p] = False
        self.limit = limit
        self.odd = odd

    def count(self, even: int) -> int:
        """Odd n in [3, even/2] with n and even - n both prime."""
        if even % 2 or even < 8 or even > self.limit:
            raise ValueError(f"oracle covers even numbers in [8, {self.limit}], got {even}")
        # n = 2i + 1 for i = 1 .. m, and even - n = 2j + 1 with j = even/2 - 1 - i.
        m = (even // 2 - 1) // 2
        top = even // 2 - 2
        low = self.odd[1 : m + 1]
        high = self.odd[top : top - m if top - m >= 0 else None : -1]
        return int(np.count_nonzero(low & high))


def tau_rows(offsets: tuple[int, ...], p: int) -> list[tuple[Fraction, str]]:
    """(tau_p(d), case label) for d = 0 .. p-1 from the closed form.

    With F the distinct residues -h mod p, p * tau_p(d) equals
    p - 2|F| + |F & (F - 2d)|. The overlap is a count of ordered pairs
    (f, g) in F x F with f - g = 2d (mod p), so one pass over the pairs
    fills every d at once: O(k^2 + p), no set union per distance.
    """
    forbidden = {(-h) % p for h in offsets}
    inv2 = (p + 1) // 2
    overlap = [0] * p
    for f in forbidden:
        for g in forbidden:
            overlap[(f - g) * inv2 % p] += 1
    rows = []
    for d in range(p):
        value = Fraction(p - 2 * len(forbidden) + overlap[d], p)
        if value == 0:
            label = "BLOCKED"
        elif d == 0:
            label = "C"
        elif d in (1, p - 1):
            label = "B"
        else:
            label = "A"
        rows.append((value, label))
    return rows


def admissibility(offsets: tuple[int, ...]) -> dict:
    """The fields of `gearsieve admissible`, from residue counts."""
    per_prime = [[p, len({h % p for h in offsets})] for p in small_primes(offsets[-1] + 2)]
    return {
        "offsets": list(offsets),
        "admissible": all(w < p for p, w in per_prime),
        "per_prime": per_prime,
        "blocking": [p for p, w in per_prime if p > 2 and w == p - 1],
    }


def canonical_seed(n: int) -> dict:
    """The fields of `gearsieve seed`: n = 2*n0 + 3*m0, n0 in {0,1,2} smallest."""
    n0 = next(x for x in (0, 1, 2) if (n - 2 * x) % 3 == 0)
    return {"n": n, "n0": n0, "m0": (n - 2 * n0) // 3, "candidate": n % 2 == 1 and n % 3 != 0}
