"""Domain of the public entry points: size limits, named choices, integers.

Every limit and choice tuple is kept here, in a module that imports
nothing, so the command-line front end and the sweep harness can check
an input and build their parsers without loading the engine, the
correlation calculus or the Fourier layer. Those modules re-export what
they use under the same names.
"""

from __future__ import annotations

import math
import operator

# Windows (and Goldbach even values) larger than this are out of scope.
MAX_WINDOW_END = 10**9
# Structural primality walks isqrt(n)/2 moduli, about 0.4 s at this size,
# and keeps every gear phase and modulus well inside int64.
MAX_PRIME_N = 10**16
# `gearsieve fourier` runs an O(p^2) DFT for every prime up to its bound.
MAX_FOURIER_PMAX = 1000
# tau tables hold a row per residue; no supported window has a larger prime.
MAX_TAU_P = math.isqrt(MAX_WINDOW_END)
# The largest bound the shared prime table sieves to: a 10 MB mask and
# 5.3 MB of primes. The supported windows need primes only to
# isqrt(MAX_WINDOW_END); product_variance_constant needs 10^7.
MAX_PRIME_TABLE = 10**7
# product_variance_constant sieves every prime up to its bound, which is
# the prime table's own: 10^7 peaks near 27 MB, and the primes past it
# move the product by about 2e-15.
MAX_PRODUCT_PMAX = MAX_PRIME_TABLE

# Where variance_decomposition takes mu_N from: the certified count or the
# mean-field expectation.
MU_SOURCES = ("observed", "expected")
# The weight-table indexings of the equidistribution sum.
H_CONVENTIONS = ("appendix_c", "section4")


def _integer(name: str, value) -> int:
    """value as an int (numpy ints too); a float or a str raises TypeError naming name."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
