"""An oracle for `engine.signal_sums` from residue counts, not from a stride.

p divides the member N_r + h = anchor + 2r + h exactly at
r = rho(p, h) = -(anchor + h) / 2 mod p, so over the positions r < n:

- Σ S is the sum over (p, h) of #{r < n : r = rho(p, h) mod p};
- Σ S² adds, for every ordered pair of (prime, offset) terms, the count of
  positions both hit. Two terms of one prime meet only where their residues
  agree. Terms of primes p < q meet on one residue mod pq, from the Chinese
  Remainder Theorem, and a residue R < m is hit floor(n / m) times, plus
  once more if R < n mod m.

The proper variant is the literal one less each self-hit (a member equal
to a basis prime), and the signal at those few positions is found by trial
division. Inside [anchor, m0^2 + span) a member with no basis factor is
prime, so the zero counts are prime tuple counts from `oracle.py`. Nothing
here strides a position: the basis comes from a sieve of its own, and the
windows reach m0 = 10001, far past brute force.
"""

import math

import numpy as np
import pytest

from gearsieve.constellations import TWINS, Constellation
from gearsieve.engine import SieveBasis, SignalSums, Window, signal_sums
from gearsieve.oracle import count_prime_tuples

TRIPLE = Constellation("triple", (0, 2, 6))
# Pairs of primes per vectorized step of the cross sum.
_PAIR_CHUNK = 1 << 17


def _odd_primes(bound):
    flags = np.ones(bound + 1, dtype=bool)
    flags[:3] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(bound) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    return np.flatnonzero(flags).astype(np.int64)


def _inverse_mod(x, m):
    """x^-1 mod m for each prime m that does not divide x: x^(m - 2) mod m."""
    result = np.ones_like(m)
    base = x % m
    e = m - 2
    while True:
        result = np.where(e & 1 == 1, result * base % m, result)
        e >>= 1
        if not e.any():
            return result
        base = base * base % m


def _moment_sums(anchor, n, ps, offsets):
    """Σ S and Σ S² of the literal signal over positions r < n, by counts."""
    hs = np.array(offsets, dtype=np.int64)
    rho = -(anchor + hs) * ((ps[:, None] + 1) // 2) % ps[:, None]
    hits = (n - 1 - rho) // ps[:, None] + 1
    squares = int(((rho[:, :, None] == rho[:, None, :]) * hits[:, :, None]).sum())
    small, large = np.triu_indices(ps.size, 1)
    cross = 0
    for lo in range(0, small.size, _PAIR_CHUNK):
        i, j = small[lo : lo + _PAIR_CHUNK], large[lo : lo + _PAIR_CHUNK]
        p, q = ps[i], ps[j]
        m = p * q
        # e_p is 1 mod p and 0 mod q, e_q the other way round, so the
        # residue of (a mod p, b mod q) is a e_p + b e_q mod pq.
        e_p = q * _inverse_mod(q, p)
        e_q = (1 - e_p) % m
        quot, rem = np.divmod(n, m)
        cross += len(offsets) ** 2 * int(quot.sum())
        for a in (rho[i, t] * e_p % m for t in range(len(offsets))):
            for b in (rho[j, t] * e_q % m for t in range(len(offsets))):
                r = a + b
                r -= m * (r >= m)
                cross += int(np.count_nonzero(r < rem))
    return int(hits.sum()), squares + 2 * cross


def _trial_signal(member, ps):
    """Literal and proper hits on one member, by trial division."""
    literal = int(np.count_nonzero(member % ps == 0))
    return literal, literal - int(member in ps)


def _oracle_sums(m0, window, offsets):
    ps = _odd_primes(m0)
    n, span = window.positions, offsets[-1]
    total, squares = _moment_sums(window.anchor, n, ps, offsets)
    twice = (ps[:, None] - np.array(offsets) - window.anchor).ravel()
    self_hits = twice[(twice >= 0) & (twice < 2 * n)] // 2
    proper_squares = squares
    for r in set(self_hits.tolist()):
        pairs = [_trial_signal(window.anchor + 2 * r + h, ps) for h in offsets]
        literal, proper = (sum(values) for values in zip(*pairs))
        proper_squares -= literal * literal - proper * proper
    return SignalSums(
        positions=n,
        literal_sum=total,
        literal_squares=squares,
        proper_sum=total - self_hits.size,
        proper_squares=proper_squares,
        # Literal zeros have every member prime and above m0; proper zeros
        # have every member prime.
        strict=count_prime_tuples(max(window.anchor, m0 + 1), window.end, offsets),
        inclusive=count_prime_tuples(window.anchor, window.end + span, offsets),
    )


def _tail_window(m0, offsets):
    """[7, n + 2) for the last tuple start n with every member below m0^2.

    n is the window's last position and a literal zero, out of range since
    n + span >= n + 2, so the in-range zeros stop short of the last block's.
    """
    ps = _odd_primes(m0)
    n = m0 * m0 - offsets[-1] - 1
    n -= 1 - n % 2
    while not all(np.all((n + h) % ps != 0) for h in offsets):
        n -= 2
    return Window(7, n + 2)


@pytest.mark.parametrize("m0", [4077, 10001])
@pytest.mark.parametrize("constellation", [TWINS, TRIPLE], ids=["twins", "triple"])
def test_signal_sums_match_residue_counts(m0, constellation):
    window = _tail_window(m0, constellation.offsets)
    want = _oracle_sums(m0, window, constellation.offsets)
    assert want.strict < want.inclusive
    assert signal_sums(SieveBasis(m0), window, constellation) == want


def test_residue_counts_match_a_brute_force_signal():
    # the oracle's own check, on a window small enough to enumerate: anchor
    # 5 puts self-hits (5, 7, 11, 13) in the first positions
    m0, offsets = 31, (0, 2, 6)
    window = Window(5, 701)
    ps = _odd_primes(m0)
    members = window.anchor + 2 * np.arange(window.positions)[:, None] + np.array(offsets)
    literal = (members[:, :, None] % ps == 0).sum(axis=(1, 2))
    proper = literal - np.isin(members, ps).sum(axis=1)
    in_range = window.in_range_positions(offsets[-1])
    assert _oracle_sums(m0, window, offsets) == SignalSums(
        positions=window.positions,
        literal_sum=int(literal.sum()),
        literal_squares=int(literal @ literal),
        proper_sum=int(proper.sum()),
        proper_squares=int(proper @ proper),
        strict=int(np.count_nonzero(literal[:in_range] == 0)),
        inclusive=int(np.count_nonzero(proper == 0)),
    )
