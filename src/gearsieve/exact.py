"""Exact-arithmetic primitives behind the covariance sums.

Multimodular integer sums (Knuth, TAOCP vol. 2, 4.3.2): an integer known
to lie in [0, bound) is computed modulo primes below 2^31 whose product
exceeds bound, in numpy int64, and rebuilt by the Chinese remainder
theorem. Below 2^31, the product of a residue with any other residue
stays inside int64. exact_float_sum is math.fsum for numpy arrays, and
every float sum of the covariance split and the ergodic sum runs on it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .primes import odd_primes_upto

MODULUS_CAP = 1 << 31
# Entries of each sub-block that exact_float_sum splits and bins at once.
_SUB_BLOCK = 1 << 16


@functools.cache
def _primes_below_cap(width: int) -> tuple[int, ...]:
    """The primes in [2^31 - width, 2^31), largest first, sieved on first use."""
    lo = MODULUS_CAP - width
    mask = np.ones(width, dtype=bool)
    mask[lo % 2 :: 2] = False
    for p in odd_primes_upto(math.isqrt(MODULUS_CAP)).tolist():
        mask[-lo % p :: p] = False
    return tuple((lo + np.flatnonzero(mask)[::-1]).tolist())


def crt_moduli(bound: int) -> tuple[tuple[int, ...], int]:
    """The fewest primes below 2^31, largest first, whose product exceeds bound.

    Returns the moduli and their product.
    """
    width = 1 << 16
    while True:
        product = 1
        moduli = _primes_below_cap(width)
        for i, m in enumerate(moduli):
            product *= m
            if product > bound:
                return moduli[: i + 1], product
        width *= 2


def modular_inverses(values: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """values^-1 mod moduli (primes below 2^31) by Fermat, with broadcasting."""
    result = np.ones(np.broadcast(values, moduli).shape, dtype=np.int64)
    power = values % moduli
    exponent = moduli - 2
    for bit in range(MODULUS_CAP.bit_length()):
        odd = (exponent >> bit) & 1 == 1
        result = np.where(odd, result * power % moduli, result)
        power = power * power % moduli
    return result


def crt_rebuild(remainders, moduli, product: int) -> int:
    """The x in [0, product) with x = remainder mod each modulus."""
    x = 0
    for m, rem in zip(moduli, remainders):
        rest = product // m
        x += rem * pow(rest % m, -1, m) * rest
    return x % product


def exact_float_sum(arrays) -> float:
    """The correctly rounded sum of every entry of some float64 arrays.

    Equal to math.fsum over the entries, at a fraction of its cost. Each
    entry is mant * 2^exp (frexp); 2^53 * mant splits into an upper 27-bit
    and a lower 26-bit integer, and one bincount per half sums them by
    exponent, exactly in float64 over sub-blocks of _SUB_BLOCK (< 2^26)
    entries, which keep the temporaries small for any array size. The sums
    meet as one Python int in units of 2^-1126 (the smallest subnormal,
    2^-1074, is 2^52 units), and the int division rounds once.
    """
    total = 0
    for array in arrays:
        for first in range(0, array.size, _SUB_BLOCK):
            mant, exp = np.frexp(array[first : first + _SUB_BLOCK])
            low_exp = int(exp.min())
            exp -= low_exp
            mant *= 2.0**27
            upper = np.floor(mant)
            mant -= upper
            mant *= 2.0**26
            uppers = np.bincount(exp, weights=upper).tolist()
            lowers = np.bincount(exp, weights=mant).tolist()
            for k, (hi, lo) in enumerate(zip(uppers, lowers)):
                total += ((int(hi) << 26) + int(lo)) << (k + low_exp + 1073)
    return total / (1 << 1126)
