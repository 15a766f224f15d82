"""Acceptance gate: nine timed criteria over the reference computations.

Each test reproduces one published quantity (or exact identity) at its
stated tolerance and time budget, records a single PASS/FAIL line, and
fails loudly with the measured values when anything drifts.
"""

import math
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np

from conftest import record_criterion
from gearsieve.constellations import (
    COUSINS,
    SEXY,
    TWINS,
    Constellation,
    density_product,
    omega,
)
from gearsieve.correlation import (
    crt_average,
    fano_theoretical,
    tau,
    tau_table,
    universal_average,
)
from gearsieve.diophantine import canonical_seed, gear_sequence, structural_is_prime
from gearsieve.engine import (
    SieveBasis,
    Window,
    certify,
    classical_oracle_count,
    composite_signal,
    first_candidate_above,
    goldbach_count,
    torus_average,
)
from gearsieve.fourier import (
    fit_decay_exponent,
    product_variance_constant,
    tau_fourier,
    two_prime_checks,
    variance_stats,
    weighted_ergodic_sum,
    weighted_exp_sum,
)
from gearsieve.harness import RunConfig, run_table1, sweep_basis
from gearsieve.primes import is_prime_trial, odd_primes_upto, primes_upto

LADDER = (30, 50, 100, 200, 500, 1000)
EXPECTED_COUNTS = {30: 30, 50: 66, 100: 197, 200: 576, 500: 2564, 1000: 8134}
TRIPLE = Constellation("triple", (0, 2, 6))


@lru_cache(maxsize=1)
def _certified_counts():
    counts = {}
    for m0 in LADDER:
        basis = sweep_basis(m0)
        window = Window.for_capacity(m0)
        counts[m0] = certify(composite_signal(basis, window, TWINS)).count
    return counts


def test_criterion_1_certified_counts():
    t0 = time.perf_counter()
    counts = _certified_counts()
    failures = []
    for m0, expected in EXPECTED_COUNTS.items():
        if counts[m0] != expected:
            failures.append(f"m0={m0}: certified {counts[m0]} != {expected}")
        oracle_window = Window(first_candidate_above(m0), m0 * m0)
        oracle = classical_oracle_count(oracle_window, TWINS)
        if oracle != expected:
            failures.append(f"m0={m0}: oracle {oracle} != {expected}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    detail = "certified twin counts match the reference ladder and the oracle"
    if failures:
        detail = "; ".join(failures)
    line = record_criterion(1, ok, detail, elapsed)
    assert ok, line


def test_criterion_2_sigma_diag():
    t0 = time.perf_counter()
    pins = {30: 28.0, 50: 62.5, 100: 189.2, 200: 559.4, 500: 2511.4, 1000: 8001.7}
    counts = _certified_counts()
    failures = []
    for m0, pin in pins.items():
        positions = Window.for_capacity(m0).positions
        mu = counts[m0]
        sigma_diag = mu * (1.0 - mu / positions)
        if abs(sigma_diag - pin) >= 0.1:
            failures.append(f"m0={m0}: sigma_diag {sigma_diag:.4f} vs {pin}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    detail = "diagonal variance matches the reference column to 0.1"
    if failures:
        detail = "; ".join(failures)
    line = record_criterion(2, ok, detail, elapsed)
    assert ok, line


def test_criterion_3_equidistribution():
    t0 = time.perf_counter()
    sum_pins = {
        30: 5.277e3,
        50: 2.424e4,
        100: 2.196e5,
        200: 1.952e6,
        500: 4.217e7,
        1000: 4.496e8,
    }
    error_pins = {
        30: 1.41,
        50: 0.63,
        100: 0.20,
        200: 0.065,
        500: 0.014,
        1000: 0.0041,
    }
    failures = []
    observed_errors = []
    for m0 in LADDER:
        report = weighted_ergodic_sum(m0)
        observed_errors.append(report.rel_error_pct)
        if f"{report.weighted_sum:.2e}" != f"{sum_pins[m0]:.2e}":
            failures.append(
                f"m0={m0}: sum {report.weighted_sum:.4e} vs {sum_pins[m0]:.4e}"
            )
        pin = error_pins[m0]
        if abs(report.rel_error_pct - pin) > 0.10 * pin:
            failures.append(
                f"m0={m0}: rel error {report.rel_error_pct:.4f} vs {pin}"
            )
    alpha = fit_decay_exponent(list(LADDER), errors=observed_errors).alpha
    if not 1.5 <= alpha <= 1.85:
        failures.append(f"alpha {alpha:.4f} outside [1.5, 1.85]")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    detail = (
        f"weighted sums, relative errors, and decay alpha={alpha:.3f} match"
    )
    if failures:
        detail = "; ".join(failures)
    line = record_criterion(3, ok, detail, elapsed)
    assert ok, line


def test_criterion_4_signal_statistics():
    t0 = time.perf_counter()
    mean_pins = {30: 2.05, 50: 2.31, 100: 2.60, 500: 3.19, 1000: 3.40}
    ratio_pins = {30: 0.65, 50: 0.67, 100: 0.70, 500: 0.75, 1000: 0.76}
    rows = run_table1(RunConfig(m0_list=tuple(mean_pins)))
    failures = []
    for row in rows:
        m0 = row["m0"]
        if abs(row["mean"] - mean_pins[m0]) >= 0.03:
            failures.append(f"m0={m0}: mean {row['mean']:.4f} vs {mean_pins[m0]}")
        if abs(row["ratio"] - ratio_pins[m0]) >= 0.02:
            failures.append(f"m0={m0}: ratio {row['ratio']:.4f} vs {ratio_pins[m0]}")
        if m0 >= 100:
            predicted = fano_theoretical(m0)
            if abs(predicted - ratio_pins[m0]) >= 0.02:
                failures.append(
                    f"m0={m0}: fano_theoretical {predicted:.4f} vs {ratio_pins[m0]}"
                )
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    detail = "signal mean, variance ratio, and predicted ratio match"
    if failures:
        detail = "; ".join(failures)
    line = record_criterion(4, ok, detail, elapsed)
    assert ok, line


def test_criterion_5_exact_identities():
    t0 = time.perf_counter()
    tuples = (TWINS, COUSINS, SEXY, TRIPLE)
    failures = []
    for p in odd_primes_upto(200):
        p = int(p)
        for pattern in tuples:
            w = omega(pattern, p)
            total = sum(row.tau for row in tau_table(pattern, p))
            if total != Fraction((p - w) ** 2, p):
                failures.append(f"period sum failed at p={p}, {pattern.name}")
            if w < p and universal_average(pattern, p) != 1:
                failures.append(f"universal average failed at p={p}, {pattern.name}")
    base = (3, 5, 7, 11)
    subsets = [
        [base[i] for i in range(4) if mask >> i & 1] for mask in range(1, 16)
    ]
    for primes in subsets:
        for pattern in tuples:
            product = Fraction(1)
            for p in primes:
                mu = Fraction(p - omega(pattern, p), p)
                product *= mu * mu
            if crt_average(pattern, primes) != product:
                failures.append(f"crt failed for {primes}, {pattern.name}")
    for d in range(600):
        blocked = tau(TWINS, 3, d).tau == 0
        if blocked != (d % 3 != 0):
            failures.append(f"blocking mismatch at d={d}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    detail = "rational identities hold exactly over all checked primes"
    if failures:
        detail = "; ".join(failures[:4])
    line = record_criterion(5, ok, detail, elapsed)
    assert ok, line


def test_criterion_6_fourier_suite():
    t0 = time.perf_counter()
    failures = []
    worst_dft = 0.0
    for p in odd_primes_upto(97):
        p = int(p)
        if p < 5:
            continue
        for row in tau_fourier(p):
            worst_dft = max(
                worst_dft,
                abs(row.coeff_dft.real - row.coeff_closed),
                abs(row.coeff_dft.imag),
            )
        stats = variance_stats(p)
        if abs(stats.var_parseval - stats.var_closed) > 1e-14 * stats.var_closed:
            failures.append(f"parseval drift at p={p}")
    if worst_dft > 1e-12:
        failures.append(f"dft deviation {worst_dft:.2e} > 1e-12")
    cvar = product_variance_constant(10**5)
    if abs(cvar - 0.242) > 0.005:
        failures.append(f"variance constant {cvar:.5f} vs 0.242")
    small = [int(p) for p in primes_upto(31)]
    for i, p in enumerate(small):
        for q in small[i + 1 :]:
            if not two_prime_checks(p, q).injective:
                failures.append(f"injectivity failed for ({p}, {q})")
    rng = np.random.default_rng(8167)
    checked = 0
    for big_l in (99, 999, 9999):
        for theta in rng.uniform(1e-3, 1.0 - 1e-3, size=334):
            value = weighted_exp_sum(float(theta), big_l)
            dist = min(theta, 1.0 - theta)
            if abs(value) > big_l / (2 * dist) + 1e-9:
                failures.append(f"bound failed at theta={theta}, L={big_l}")
            checked += 1
    assert checked >= 1000
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    detail = (
        f"dft agreement {worst_dft:.1e}, variance constant {cvar:.4f}, "
        "injectivity and bounds hold"
    )
    if failures:
        detail = "; ".join(failures[:4])
    line = record_criterion(6, ok, detail, elapsed)
    assert ok, line


def test_criterion_7_singular_constants():
    t0 = time.perf_counter()
    failures = []
    twins = density_product(TWINS, 10**6).singular_constant
    if abs(twins - 0.66016) > 1e-4:
        failures.append(f"twin constant {twins:.6f} vs 0.66016")
    sexy = density_product(SEXY, 10**6).singular_constant
    ratio = sexy / twins
    if not 1.99 <= ratio <= 2.01:
        failures.append(f"sexy/twin ratio {ratio:.5f} outside [1.99, 2.01]")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    detail = f"twin constant {twins:.6f}, sexy/twin ratio {ratio:.4f}"
    if failures:
        detail = "; ".join(failures)
    line = record_criterion(7, ok, detail, elapsed)
    assert ok, line


def test_criterion_8_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    for n in range(5, 10**5 + 1):
        if math.gcd(n, 6) != 1:
            continue
        if structural_is_prime(n) != is_prime_trial(n):
            failures.append(f"primality mismatch at n={n}")
            break
    for m0 in range(3, 1000, 2):
        n = 3 * m0 + 2
        seed = canonical_seed(n)
        if (seed.n0, seed.m0) != (1, m0):
            failures.append(f"seed mismatch at m0={m0}")
            break
        gears = gear_sequence(seed)
        if [g.m_k for g in gears] != list(range(m0, 2, -2)):
            failures.append(f"gear coverage gap at m0={m0}")
            break
        if any(2 * g.n_k + 3 * g.m_k != n for g in gears):
            failures.append(f"gear identity broken at m0={m0}")
            break
    for m0 in (9, 15, 21, 31, 45, 99):
        basis = SieveBasis(m0)
        window = Window(first_candidate_above(m0), m0 * m0)
        for pattern in (TWINS, COUSINS, SEXY):
            certified = certify(composite_signal(basis, window, pattern)).count
            oracle = classical_oracle_count(window, pattern)
            if certified != oracle:
                failures.append(
                    f"certify {certified} != oracle {oracle} "
                    f"at m0={m0}, {pattern.name}"
                )
    for primes in ((3,), (3, 5), (5, 7), (3, 5, 7), (3, 5, 7, 11)):
        for pattern in (TWINS, SEXY):
            got = torus_average(primes, pattern)
            want = Fraction(1)
            for p in primes:
                want *= Fraction(p - omega(pattern, p), p)
            if got != want:
                failures.append(f"torus mismatch for {primes}, {pattern.name}")
    basis = SieveBasis(99)
    window = Window.for_capacity(99)
    reference = composite_signal(basis, window, TWINS, segments=1).values
    for segments in (3, 8, 17):
        values = composite_signal(basis, window, TWINS, segments=segments).values
        if not np.array_equal(values, reference):
            failures.append(f"partition drift at segments={segments}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    detail = "structural primality, gears, certification, torus, partitions agree"
    if failures:
        detail = "; ".join(failures[:4])
    line = record_criterion(8, ok, detail, elapsed)
    assert ok, line


def test_criterion_9_goldbach():
    t0 = time.perf_counter()
    failures = []
    limit = 10**4
    flags = np.zeros(limit + 1, dtype=bool)
    flags[2] = True
    flags[3::2] = True
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    for even in range(8, limit + 1, 2):
        n = np.arange(3, even // 2 + 1, 2)
        expected = int(np.count_nonzero(flags[n] & flags[even - n]))
        got = goldbach_count(even).count
        if got != expected:
            failures.append(f"E={even}: {got} != {expected}")
            break
    if goldbach_count(10).count != 2:
        failures.append("E=10 count drifted")
    if goldbach_count(100).count != 6:
        failures.append("E=100 count drifted")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    detail = "certified decompositions match exhaustive enumeration to 10^4"
    if failures:
        detail = "; ".join(failures[:4])
    line = record_criterion(9, ok, detail, elapsed)
    assert ok, line
