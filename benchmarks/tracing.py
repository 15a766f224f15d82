"""Span recording from outside the package, and the per-layer metrics.

The tracer rebinds names that one gearsieve module imported from another
(for example `harness.composite_signal`) to wrappers that record a span,
and restores the originals afterwards. No file of the package changes.
A span is [name, start, end, parent index, pass id, attributes]; spans
stay in memory and are written out once, when the run ends.

Layer names are the package's modules; a span named "engine.certify"
belongs to the engine layer. A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import inspect
import math
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

import oracles

NAME, START, END, PARENT, PASS, ATTRS = range(6)
ATTRS_SPAN = "trace.attrs"
# Span attributes that add up over a pass.
SUMMED_ATTRS = {"segments", "updates", "killed", "moduli", "tau_values", "terms", "bytes", "exit_nonzero"}


# Work counts. They are derived from the inputs alone, so they repeat
# exactly; check_work_counts pins each to a hand-worked case.

def element_updates(positions: int, primes, k: int) -> int:
    """Sum over (p, h) of ceil(positions / p): slice elements the pass touches."""
    ps = np.asarray(primes, dtype=np.int64)
    return k * int(np.sum((positions + ps - 1) // ps))


def ergodic_terms(m0: int) -> int:
    """N * pi_5(m0): one factor per (distance, prime) in the ergodic product."""
    return (m0 * m0 // 3) * sum(1 for p in oracles.small_primes(m0) if p >= 5)


def odd_moduli(n: int) -> int:
    """Odd moduli in [3, isqrt(n)] that structural primality walks for n.

    Numbers that are even or divisible by 3 are rejected before the walk.
    """
    if n % 2 == 0 or n % 3 == 0:
        return 0
    return max(0, (math.isqrt(n) - 1) // 2)


def check_work_counts() -> None:
    """Compare the work-count formulas with cases worked by hand.

    Window [7, 49) has 21 positions; basis {3, 5, 7} and twins give
    2 * (7 + 5 + 3) = 30 updates. At m0 = 11, N = 121 // 3 = 40 and the
    primes 5, 7, 11 give 120 terms. isqrt(10001) = 100 leaves the 49 odd
    moduli 3, 5, ..., 99.
    """
    cases = (
        ("element_updates", element_updates(21, [3, 5, 7], 2), 30),
        ("ergodic_terms", ergodic_terms(11), 120),
        ("odd_moduli", odd_moduli(10001), 49),
        ("odd_moduli of a multiple of 3", odd_moduli(10011), 0),
    )
    for name, got, want in cases:
        if got != want:
            raise RuntimeError(f"work count {name} drifted: {got} != {want}")


# Attribute functions run after the wrapped call returns. Each gets the
# bound arguments and the result and returns the counts for the span.

def _signal_attrs(args, result):
    window = args["window"]
    offsets = args["constellation"].offsets
    primes = args["basis"].primes
    if result.values is not None:
        data, killed = result.values, int(np.count_nonzero(result.values))
    else:
        data = result.zero_bits
        killed = window.positions - int(np.bitwise_count(data).sum())
    return {
        "mode": args.get("mode", "counts"),
        "segments": args.get("segments", 1),
        "updates": element_updates(window.positions, primes, len(offsets)),
        "killed": killed,
        "trace_bytes": int(data.nbytes),
    }


def _exit_attrs(args, result):
    return {"exit_nonzero": int(result != 0)}


def _is_prime_attrs(args, result):
    return {"moduli": odd_moduli(args["n"])}


def _tau_attrs(args, result):
    return {"tau_values": args["p"]}


def _ergodic_attrs(args, result):
    return {"m0": args["m0"], "terms": ergodic_terms(args["m0"])}


def _bytes_written_attrs(args, result):
    return {"bytes": sum(os.path.getsize(path) for path in result)}


def bindings(gs) -> list[tuple[object, str, str, object]]:
    """(module, attribute, span name, attribute function) to wrap.

    Besides the two entry points, only bindings a module imported from
    another are listed, plus the CLI command handlers, which `build_parser`
    looks up at every call.
    `fourier.tau` is left unwrapped: it runs once per (prime, distance)
    inside the ergodic sum, where a wrapper would cost as much as the call,
    so fourier.tau_s is timed directly instead (see `time_fourier_tau`).
    """
    cli, engine, harness = gs.cli, gs.engine, gs.harness
    correlation, fourier, constellations = gs.correlation, gs.fourier, gs.constellations
    # The benchmark's own entry points come first: cli.main for every
    # query and the classical oracle that large_window calls directly.
    out = [
        (cli, "main", "cli.main", _exit_attrs),
        (engine, "classical_oracle_count", "engine.classical_oracle_count", None),
    ]
    out += [
        (cli, name, f"cli.{name[5:]}", None)
        for name in sorted(vars(cli))
        if name.startswith("_cmd_")
    ]
    out += [(m, "primes_upto", "primes.table", None) for m in (constellations, engine)]
    out += [
        (m, "odd_primes_upto", "primes.table", None)
        for m in (constellations, engine, correlation, fourier, cli)
    ]
    out += [
        (cli, "structural_is_prime", "diophantine.structural_is_prime", _is_prime_attrs),
        (cli, "goldbach_count", "engine.goldbach_count", None),
        (cli, "tau_table", "correlation.tau_table", _tau_attrs),
        (correlation, "tau_numerators", "correlation.tau_numerators", _tau_attrs),
        (fourier, "tau_numerators", "correlation.tau_numerators", _tau_attrs),
    ]
    for m in (cli, engine, correlation):
        out.append((m, "is_admissible", "constellations.is_admissible", None))
    for m in (cli, harness, correlation):
        out.append((m, "composite_signal", "engine.composite_signal", _signal_attrs))
        out.append((m, "certify", "engine.certify", None))
    for m in (cli, harness):
        out.append((m, "variance_decomposition", "correlation.variance_decomposition", None))
        out.append((m, "weighted_ergodic_sum", "fourier.weighted_ergodic_sum", _ergodic_attrs))
    for name in ("write_table1", "write_table2", "write_table3", "run_figures"):
        out.append((cli, name, f"harness.{name}", _bytes_written_attrs))
    return out


class Tracer:
    """Records nested spans on one thread; installs and removes wrappers."""

    def __init__(self, gs) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pass_id = 0
        self._bindings = bindings(gs)
        self._originals = [getattr(m, attr) for m, attr, _, _ in self._bindings]
        self._wrappers = [
            self._wrap(name, orig, attrs)
            for (_, _, name, attrs), orig in zip(self._bindings, self._originals)
        ]

    def install(self) -> None:
        for (module, attr, _, _), wrapper in zip(self._bindings, self._wrappers):
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for (module, attr, _, _), orig in zip(self._bindings, self._originals):
            setattr(module, attr, orig)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.pass_id, None]
        self.spans.append(record)
        self.stack.append(index)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn, attrs):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attrs is not None:
                # Counting after the call (e.g. killed positions) is tracing
                # work: its own span keeps it out of every layer's self time.
                with self.span(ATTRS_SPAN):
                    bound = signature.bind(*args, **kwargs).arguments
                    record[ATTRS] = attrs(bound, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def time_fourier_tau(gs, m0_values) -> float:
    """Seconds that the ergodic sums' tau_p(d) evaluations take, timed directly.

    weighted_ergodic_sum(m0) evaluates float(tau(TWINS, p, d)) for every
    prime 5 <= p <= m0 and d < p; this replays exactly those calls.
    """
    if not m0_values:
        return 0.0
    tau, twins = gs.correlation.tau, gs.constellations.TWINS
    start = time.perf_counter()
    for m0 in m0_values:
        for p in oracles.small_primes(m0):
            if p >= 5:
                for d in range(p):
                    float(tau(twins, p, d).tau)
    return time.perf_counter() - start


def pass_metrics(spans: list[list], own: list[float], pass_id: int, wall: float,
                 tau_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    dur: dict[str, float] = {}
    self_t: dict[str, float] = {}
    counts: dict[str, float] = {}
    top_level = 0.0
    largest_trace = 0
    for span, own_t in zip(spans, own):
        if span[PASS] != pass_id:
            continue
        name = span[NAME]
        key = name
        attrs = span[ATTRS] or {}
        if name == "engine.composite_signal":
            key = f"{name}[{attrs.get('mode', 'counts')}]"
            largest_trace = max(largest_trace, attrs.get("trace_bytes", 0))
        dur[key] = dur.get(key, 0.0) + span[END] - span[START]
        self_t[key] = self_t.get(key, 0.0) + own_t
        for field in SUMMED_ATTRS.intersection(attrs):
            counts[field] = counts.get(field, 0) + attrs[field]
        if span[PARENT] < 0 and name != ATTRS_SPAN:
            top_level += span[END] - span[START]

    def layer_self(layer: str) -> float:
        return sum(t for key, t in self_t.items() if key.startswith(layer + "."))

    def per(numer_s: float, denom: float) -> float:
        return numer_s * 1e9 / denom if denom else 0.0

    stride_mask = self_t.get("engine.composite_signal[mask]", 0.0)
    stride_counts = self_t.get("engine.composite_signal[counts]", 0.0)
    updates = counts.get("updates", 0)
    is_prime_s = dur.get("diophantine.structural_is_prime", 0.0)
    tau_tables_s = dur.get("correlation.tau_numerators", 0.0) + dur.get("correlation.tau_table", 0.0)
    ergodic_s = max(0.0, self_t.get("fourier.weighted_ergodic_sum", 0.0) - tau_s)
    return {
        "diophantine.is_prime_s": is_prime_s,
        "diophantine.ns_per_modulus": per(is_prime_s, counts.get("moduli", 0)),
        "constellations.admissible_s": dur.get("constellations.is_admissible", 0.0),
        "engine.stride_mask_s": stride_mask,
        "engine.stride_counts_s": stride_counts,
        "engine.segments": counts.get("segments", 0),
        "engine.element_updates": updates,
        "engine.ns_per_update": per(stride_mask + stride_counts, updates),
        "engine.certify_s": dur.get("engine.certify", 0.0),
        "engine.trace_bytes": largest_trace,
        "engine.update_yield": counts.get("killed", 0) / updates if updates else 0.0,
        "engine.oracle_s": dur.get("engine.classical_oracle_count", 0.0),
        "engine.goldbach_s": dur.get("engine.goldbach_count", 0.0),
        "correlation.tau_tables_s": tau_tables_s,
        "correlation.tau_values": counts.get("tau_values", 0),
        "correlation.ns_per_tau_value": per(tau_tables_s, counts.get("tau_values", 0)),
        "correlation.variance_split_s": self_t.get("correlation.variance_decomposition", 0.0),
        "fourier.ergodic_s": ergodic_s,
        "fourier.ergodic_terms": counts.get("terms", 0),
        "fourier.ns_per_term": per(ergodic_s, counts.get("terms", 0)),
        "fourier.tau_s": tau_s,
        "harness.table1_s": dur.get("harness.write_table1", 0.0),
        "harness.table2_s": dur.get("harness.write_table2", 0.0),
        "harness.table3_s": dur.get("harness.write_table3", 0.0),
        "harness.figures_s": dur.get("harness.run_figures", 0.0),
        "harness.self_s": layer_self("harness"),
        "harness.bytes_written": counts.get("bytes", 0),
        "cli.self_s": layer_self("cli"),
        "cli.exit_nonzero": counts.get("exit_nonzero", 0),
        "trace.unaccounted_s": wall - top_level,
    }


def summarize(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    return {key: float(statistics.median(p[key] for p in per_pass)) for key in per_pass[0]}


def prime_table_seconds(spans: list[list], pass_id: int) -> float:
    """Time in prime-table calls during one pass (the fresh process's first)."""
    return sum(s[END] - s[START] for s in spans if s[PASS] == pass_id and s[NAME] == "primes.table")
