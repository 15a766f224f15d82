"""Exact float summation behind the covariance split and the ergodic sum.

exact_float_sum is math.fsum for numpy arrays: every float sum of the
covariance split and the ergodic sum runs on it.
"""

from __future__ import annotations

import numpy as np

# Entries of each sub-block that exact_float_sum splits and bins at once.
_SUB_BLOCK = 1 << 16


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
