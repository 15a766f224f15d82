"""The three workloads: their seeded inputs, their operations and checks.

A workload is a list of operations that one pass runs in order, in a
closed loop with a single caller. Every operation is a call into the
public API or `gearsieve.cli.main`; its output is kept and checked after
the timed passes, against reference data recorded at the seed commit or
against the oracles in `oracles.py`. The seed fixes the inputs, and every
pass of a run repeats the same inputs, so per-pass work counts repeat
exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles

SEGMENT_COUNTS = (8, 32, 128)
FIT_REL_TOL = 1e-9


@dataclass
class Op:
    """One operation: run() returns its output, check(output) judges it.

    positions is the number of window positions the operation certifies.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    positions: int = 0


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op] = field(default_factory=list)
    # Tiny first result a fresh interpreter computes to measure set-up.
    setup_argv: list[str] = field(default_factory=list)
    # Builds what the checks need; runs after the timed passes.
    prepare_checks: Callable[[], None] = lambda: None


def call_cli(gs, argv: list[str]) -> tuple[int, str]:
    """Run `gearsieve <argv>` in this process; (exit code, captured stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = gs.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def _json_out(output) -> dict | None:
    code, text = output
    if code != 0:
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def window_positions(m0: int, anchor: int = 7) -> int:
    """Positions of the window [anchor, m0^2): odd values anchor + 2r."""
    return (m0 * m0 - anchor + 1) // 2


def first_candidate_above(m0: int) -> int:
    """Smallest integer > m0 coprime to 6, the strict window's anchor.

    Computed here rather than taken from the engine, so the window a
    certified count is checked on does not come from the code under test.
    """
    n = m0 + 1
    while n % 2 == 0 or n % 3 == 0:
        n += 1
    return n


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------- paper_tables

def _table_op(gs, command: str, extra: list[str], out_dir: Path, expected: dict) -> Op:
    argv = [command, "--out", str(out_dir), *extra]

    def run():
        code, text = call_cli(gs, argv)
        paths = [line for line in text.splitlines() if line]
        files = {}
        for path in paths:
            name = Path(path).name
            files[name] = json.loads(Path(path).read_text()) if name.endswith("_fit.json") else _sha256(path)
        return code, files

    def check(output) -> bool:
        code, files = output
        if code != 0 or set(files) != set(expected):
            return False
        for name, want in expected.items():
            got = files[name]
            if isinstance(want, str):
                if got != want:
                    return False
            elif not _fit_matches(got, want):
                return False
        return True

    m0s = _ladder(gs, command, extra)
    positions = 0 if command == "table3" else sum(window_positions(m0) for m0 in m0s)
    return Op(label=" ".join(argv[:1] + extra), run=run, check=check, positions=positions)


def _fit_matches(got: dict, want: dict) -> bool:
    """The decay fit: same keys and convention, numbers to 1e-9 relative.

    The fit's floats are printed with all their digits, so a change in
    summation order moves their last bits without changing any table; the
    CSV tables themselves are compared byte for byte.
    """
    if set(got) != set(want) or got["convention"] != want["convention"]:
        return False
    return all(
        math.isclose(got[key], want[key], rel_tol=FIT_REL_TOL, abs_tol=0.0)
        for key in ("alpha", "intercept")
    )


def _ladder(gs, command: str, extra: list[str]) -> tuple[int, ...]:
    if "--m0-list" in extra:
        return tuple(int(v) for v in extra[extra.index("--m0-list") + 1].split(","))
    harness = gs.harness
    return {
        "table1": harness.DEFAULT_TABLE1_M0,
        "table2": harness.DEFAULT_TABLE2_M0,
        "table3": harness.DEFAULT_TABLE3_M0,
        "figures": harness.DEFAULT_TABLE2_M0,
    }[command]


def paper_tables(gs, seed: int, size: str, ref: dict, work_dir: Path) -> Workload:
    """table1, table2, table3 and figures on their default ladders.

    The inputs are the paper's fixed ladders, so the seed changes nothing.
    The order is fixed too: a command's time depends on what ran before it.
    """
    expected = ref["paper_tables"][size]
    extra = [] if size == "full" else ["--m0-list", expected["m0_list"]]
    commands = ["table1", "table2", "table3", "figures"]
    out_dir = work_dir / "tables"
    ops = [_table_op(gs, c, extra, out_dir, expected["files"][c]) for c in commands]
    return Workload(
        ops=ops,
        warmup=ops,
        setup_argv=["table1", "--m0-list", "30", "--out", str(work_dir / "setup")],
    )


# ---------------------------------------------------------------- large_window

def _count_op(label: str, run: Callable[[], int | None], want: int, **kw) -> Op:
    return Op(label=label, run=run, check=lambda got: got == want, **kw)


def _scan_count(gs, argv: list[str], positions: int) -> int | None:
    payload = _json_out(call_cli(gs, argv))
    if payload is None or payload.get("positions") != positions:
        return None
    return payload.get("count")


def _table1_counts(gs, argv: list[str], table1_csv: Path) -> tuple | None:
    code, _ = call_cli(gs, argv)
    if code != 0:
        return None
    text = table1_csv.read_text()
    header, row = text.splitlines()[:2]
    cells = dict(zip(header.split(","), row.split(",")))
    return hashlib.sha256(text.encode()).hexdigest(), int(cells["twins_inclusive"]), int(cells["twins_strict"])


def large_window(gs, seed: int, size: str, ref: dict, work_dir: Path) -> Workload:
    """Mask-mode scans near m0 = 1e4 at several segment counts, a counts-mode
    table1 row near m0 = 4e3, and the classical oracle on every window.

    The seed picks each m0 from a narrow pool, so the work per pass barely
    depends on it. The order of the operations is fixed, because an
    operation's time depends on what ran before it.
    """
    expected = ref["large_window"][size]
    rng = random.Random(seed)
    twins_m0 = rng.choice(sorted(expected["twins"], key=int))
    triple_m0 = rng.choice(sorted(expected["triple"], key=int))
    table_m0 = rng.choice(sorted(expected["table1"], key=int))
    engine, twins = gs.engine, gs.constellations.TWINS
    triple = gs.constellations.Constellation("tuple_0_2_6", (0, 2, 6))
    out_dir = work_dir / "table1"

    def oracle(m0: str, constellation, strict: bool, want: int) -> Op:
        bound = int(m0)
        if strict:  # all members above the basis bound
            window = engine.Window(first_candidate_above(bound), bound * bound)
        else:  # zero-signal positions of [7, m0^2); the last member may pass m0^2
            window = engine.Window(7, bound * bound + constellation.span)
        label = f"oracle {constellation.name} {'strict' if strict else 'inclusive'} m0={m0}"
        # Looked up at call time, so a traced pass sees the wrapper.
        return _count_op(label, lambda: engine.classical_oracle_count(window, constellation), want)

    def scan(m0: str, tuple_text: str, segments: int, want: int) -> Op:
        argv = ["scan", "--m0", m0, "--tuple", tuple_text, "--segments", str(segments)]
        n = window_positions(int(m0))
        return _count_op(" ".join(argv), lambda: _scan_count(gs, argv, n), want, positions=n)

    row = expected["table1"][table_m0]
    table_argv = ["table1", "--m0-list", table_m0, "--diagnostic", "--out", str(out_dir)]
    ops = [scan(twins_m0, "0,2", s, expected["twins"][twins_m0]) for s in SEGMENT_COUNTS]
    ops += [
        scan(triple_m0, "0,2,6", 64, expected["triple"][triple_m0]),
        oracle(twins_m0, twins, True, expected["twins"][twins_m0]),
        oracle(triple_m0, triple, True, expected["triple"][triple_m0]),
        Op(
            label=" ".join(table_argv[:4]),
            run=lambda: _table1_counts(gs, table_argv, out_dir / "table1.csv"),
            check=lambda got: got == (row["sha256"], row["inclusive"], row["strict"]),
            positions=window_positions(int(table_m0)),
        ),
        oracle(table_m0, twins, True, row["strict"]),
        oracle(table_m0, twins, False, row["inclusive"]),
    ]
    return Workload(ops=ops, warmup=ops, setup_argv=["scan", "--m0", "101"])


# ---------------------------------------------------------------- point_queries

# Queries of each kind per pass (full size, then smoke size).
QUERY_MIX = {
    "full": {"prime": 140, "goldbach": 60, "tau": 100, "admissible": 50, "seed": 50},
    "smoke": {"prime": 4, "goldbach": 3, "tau": 3, "admissible": 2, "seed": 2},
}
QUERY_RANGES = {
    "full": {"prime": (10**10, 10**12), "goldbach": (10**6, 10**8), "tau_pmax": 2000},
    "smoke": {"prime": (10**6, 10**7), "goldbach": (10**4, 10**5), "tau_pmax": 100},
}


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of count equal slices of [lo, hi).

    Each draw is still uniform over [lo, hi) when the slice is picked at
    random; the slices only keep the total work of a pass from swinging
    with the seed.
    """
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


def _admissible_offsets(rng: random.Random) -> tuple[int, ...]:
    while True:
        k = rng.randint(2, 4)
        offsets = (0, *sorted(rng.sample(range(2, 21, 2), k - 1)))
        if oracles.admissibility(offsets)["admissible"]:
            return offsets


def _prime_op(gs, n: int) -> Op:
    want = oracles.is_prime_mr(n)
    return Op(label=f"prime {n}", run=lambda: call_cli(gs, ["prime", str(n)]),
              check=lambda out: _json_out(out) == {"n": n, "prime": want})


def _goldbach_op(gs, even: int, oracle_box: list) -> Op:
    def check(out) -> bool:
        payload = _json_out(out)
        return payload == {"even": even, "count": oracle_box[0].count(even)}

    return Op(label=f"goldbach --even {even}", run=lambda: call_cli(gs, ["goldbach", "--even", str(even)]),
              check=check, positions=(even // 2 - 3) // 2 + 1)


def _tau_op(gs, p: int, offsets: tuple[int, ...]) -> Op:
    text = ",".join(map(str, offsets))

    def check(out) -> bool:
        code, stdout = out
        lines = stdout.splitlines()
        if code != 0 or not lines or lines[0] != "d,tau_num,tau_den,case" or len(lines) != p + 1:
            return False
        want = oracles.tau_rows(offsets, p)
        for d, (line, (value, label)) in enumerate(zip(lines[1:], want)):
            cells = line.split(",")
            if cells != [str(d), str(value.numerator), str(value.denominator), label]:
                return False
        return True

    return Op(label=f"tau --p {p} --tuple {text}",
              run=lambda: call_cli(gs, ["tau", "--p", str(p), "--tuple", text]), check=check)


def _admissible_op(gs, offsets: tuple[int, ...]) -> Op:
    text = ",".join(map(str, offsets))
    want = oracles.admissibility(offsets)

    def check(out) -> bool:
        payload = _json_out(out)
        return payload is not None and {
            "offsets": payload["constellation"]["offsets"],
            "admissible": payload["admissible"],
            "per_prime": payload["per_prime"],
            "blocking": payload["blocking"],
        } == want

    return Op(label=f"admissible {text}", run=lambda: call_cli(gs, ["admissible", text]), check=check)


def _seed_op(gs, n: int) -> Op:
    want = oracles.canonical_seed(n)
    return Op(label=f"seed {n}", run=lambda: call_cli(gs, ["seed", str(n)]),
              check=lambda out: _json_out(out) == want)


def point_queries(gs, seed: int, size: str, ref: dict, work_dir: Path) -> Workload:
    """A shuffled stream of prime, goldbach, tau, admissible and seed queries.

    prime: n uniform over odd numbers, so composites and multiples of 3
    come at their natural rate; structural primality walks every odd
    modulus up to isqrt(n) for a prime and most of them for a composite.
    goldbach: E log-uniform, plus the top of the range. tau: a random
    prime and a random admissible tuple. admissible: random even offsets,
    admissible or not. seed: n uniform.
    """
    rng = random.Random(seed)
    mix, ranges = QUERY_MIX[size], QUERY_RANGES[size]
    oracle_box: list = []  # the Goldbach sieve, built when the checks start
    ops = []
    # Odd n is 1, 3 or 5 mod 6 in equal shares. Each run of three slices
    # gets the three classes in a random order, so multiples of 3 (rejected
    # at once) come at exactly that rate at every magnitude.
    lo, hi = ranges["prime"]
    classes = []
    for _ in range(mix["prime"] // 3 + 1):
        classes += rng.sample((1, 3, 5), 3)
    draws = _strata(rng, mix["prime"], lo, hi)
    ops += [_prime_op(gs, int(x) - int(x) % 6 + r) for x, r in zip(draws, classes)]
    # The top of the range is always asked once: the largest Goldbach sieve
    # sets peak RSS, which then does not move with the seed.
    lo, hi = ranges["goldbach"]
    logs = _strata(rng, mix["goldbach"] - 1, math.log(lo), math.log(hi))
    evens = [int(math.exp(x)) & ~1 for x in logs] + [hi]
    ops += [_goldbach_op(gs, e, oracle_box) for e in evens]
    primes = [p for p in oracles.small_primes(ranges["tau_pmax"]) if p >= 3]
    picks = _strata(rng, mix["tau"], 0, len(primes))
    ops += [_tau_op(gs, primes[int(x)], _admissible_offsets(rng)) for x in picks]
    for _ in range(mix["admissible"]):
        k = rng.randint(2, 6)
        ops.append(_admissible_op(gs, (0, *sorted(rng.sample(range(2, 31, 2), k - 1)))))
    ops += [_seed_op(gs, rng.randrange(4, 10**12)) for _ in range(mix["seed"])]
    rng.shuffle(ops)

    # The first query of each kind warms up lazy tables and code paths.
    seen, warmup = set(), []
    for op in ops:
        kind = op.label.split()[0]
        if kind not in seen:
            seen.add(kind)
            warmup.append(op)
    return Workload(
        ops=ops,
        warmup=warmup,
        setup_argv=["prime", "1000000007"],
        prepare_checks=lambda: oracle_box.append(oracles.GoldbachOracle(max(evens))),
    )


WORKLOADS = {
    "paper_tables": paper_tables,
    "large_window": large_window,
    "point_queries": point_queries,
}
