"""Exact float summation behind the covariance split and the ergodic sum.

exact_float_sum is math.fsum for numpy arrays: every float sum of the
covariance split and the ergodic sum runs on it. It splits the entries
without error by extraction (ExtractVector in Rump, Ogita and Oishi,
"Accurate floating-point summation, Part I", SIAM J. Sci. Comput. 31(1),
2008). For n entries x with max|x| < 2^e, take sigma = 2^(e+m) with
2^m >= n + 2. Then q = (x + sigma) - sigma is x rounded to a multiple of
2^(e+m-53), |q| <= 2^e, and r = x - q is exact, with |r| <= 2^(e+m-53);
this holds with gradual underflow too. Every partial sum of the q is a
multiple of 2^(e+m-53) of magnitude at most n * 2^e < sigma, so it fits
in 53 bits: q.sum() is exact in any order, numpy's pairwise order
included. The next level extracts r the same way, from its own max, so
each level takes at least 52 - m bits off the top, and the levels stop
when r is all zero (two levels per sub-block for the ergodic sum's
terms). Each level's sum is kept as an exact integer, and the total is
rounded once at the end.
"""

from __future__ import annotations

import math

import numpy as np

# Entries of each sub-block that exact_float_sum extracts at once.
_SUB_BLOCK = 1 << 15
# A block whose entries reach 2^(1023 - m) would need sigma >= 2^1024, so
# its entries of at least _SCALED are extracted times 2^-_SCALE_BITS (an
# exact scaling: they stay normal), and the rest as they are.
_SCALED = 2.0**-900
_SCALE_BITS = 64


def exact_float_sum(arrays) -> float:
    """The correctly rounded sum of every entry of some float64 arrays.

    Equal to math.fsum over the entries, at a fraction of its cost, and
    raises OverflowError where math.fsum does. Each array's exact sum
    (_array_sum) joins one Python int in units of 2^-1074, the smallest
    subnormal, and the int division rounds once. An array may be a chunk
    that its producer builds only when asked for: nothing of the sum is
    held while it is built but that int.
    """
    return sum(_array_sum(array) for array in arrays) / (1 << 1074)


def _array_sum(array: np.ndarray) -> int:
    """The exact sum of array, in units of 2^-1074, by extraction.

    The array is taken in sub-blocks of _SUB_BLOCK entries, and each
    sub-block is extracted (see the module docstring) level by level. A
    sub-block with a non-finite entry raises ValueError before any of it
    is extracted: an extraction never ends on a NaN.
    """
    total = 0
    q, r = np.empty(min(array.size, _SUB_BLOCK)), np.empty(min(array.size, _SUB_BLOCK))
    for first in range(0, array.size, _SUB_BLOCK):
        block = array[first : first + _SUB_BLOCK]
        top = _top(block)
        if not math.isfinite(top):
            raise ValueError("exact_float_sum needs finite entries")
        if top < 2.0 ** (1023 - (block.size + 1).bit_length()):
            total += _extract(block, top, q, r)
        else:
            scaled = np.abs(block) >= _SCALED
            big = block[scaled] * 2.0**-_SCALE_BITS
            small = block[~scaled]
            total += _extract(big, _top(big), q, r) << _SCALE_BITS
            total += _extract(small, _top(small), q, r)
    return total


def _top(x: np.ndarray) -> float:
    """max|x| without a temporary (NaN if x holds one), 0 when x is empty."""
    return float(max(x.max(), -x.min())) if x.size else 0.0


def _extract(x: np.ndarray, top: float, q: np.ndarray, r: np.ndarray) -> int:
    """The exact sum of x, in units of 2^-1074, by extraction.

    top = max|x|, below 2^(1023 - m) with 2^m >= x.size + 2, so sigma
    stays finite. q and r are scratch buffers of at least x.size entries;
    x itself is not written.
    """
    bits = (x.size + 1).bit_length()
    q, r = q[: x.size], r[: x.size]
    part = 0
    while top:
        sigma = 2.0 ** (math.frexp(top)[1] + bits)
        np.add(x, sigma, out=q)
        q -= sigma
        np.subtract(x, q, out=r)
        x = r
        num, den = float(q.sum()).as_integer_ratio()
        part += num << (1075 - den.bit_length())
        top = _top(r)
    return part
