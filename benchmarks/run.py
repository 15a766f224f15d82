#!/usr/bin/env python3
"""gearsieve benchmark: seeded workloads, checked outputs, traced layers.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload paper_tables --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --smoke

One run imports the package from `src/`, builds the workload's inputs
from the seed, warms up, then runs passes over the same inputs until
--seconds have gone by, on one thread with a single caller, pinned to
one CPU. With --trace 0 it reports the end-to-end metrics, each timing
calibrated against the host's speed next to it (calibration.py); with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics in raw seconds.
Every output is checked after the timed passes. The last line of stdout
is the result object; the line before it records the machine, the
configuration and the extra figures behind the metrics.

--smoke runs every workload once at a tiny size, traced and untraced,
with all checks, and exits non-zero if anything fails.

Exit codes: 0 a result was printed, 1 the benchmark itself failed,
2 the package could not be imported from this checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Library thread pools are capped before numpy is first imported.
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)


def _fix_mmap_threshold() -> bool:
    """Serve every allocation above 1 MiB by mmap, returned on free.

    glibc otherwise raises its mmap threshold as large arrays are freed and
    then keeps later ones on the heap, so peak RSS would depend on the
    order of earlier allocations rather than on the largest live data.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    return libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1


M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 1 << 20
MMAP_THRESHOLD_FIXED = _fix_mmap_threshold()

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

SETUP_RUNS = 7
SETUP_SAMPLES = 3  # calibration samples on each side of a set-up launch
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); from gearsieve import cli; sys.exit(cli.main(sys.argv[2:]))"
PACKAGE_MODULES = (
    "primes", "diophantine", "constellations", "engine",
    "correlation", "fourier", "harness", "cli",
)
FAILED = object()  # output of an operation that raised


class Package:
    """The gearsieve modules, imported from this checkout's src/."""

    def __init__(self) -> None:
        import importlib

        src = ROOT / "src"
        sys.path.insert(0, str(src))
        for name in PACKAGE_MODULES:
            module = importlib.import_module(f"gearsieve.{name}")
            if not Path(module.__file__).resolve().is_relative_to(src):
                raise ImportError(f"gearsieve.{name} came from {module.__file__}, not {src}")
            setattr(self, name, module)


def pin_to_one_cpu() -> int:
    """Keep this process and the set-up launches on one CPU.

    The calibration kernel then measures the CPU the operations run on.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_op(op: Op) -> tuple[float, object]:
    start = time.perf_counter()
    try:
        output = op.run()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        output = FAILED
    return time.perf_counter() - start, output


def timed_passes(ops: list[Op], seconds: float, tracer, sampler=None) -> dict:
    """Passes until the deadline; with a tracer, even passes are traced.

    With a sampler, the calibration kernel runs between operations; its
    time is left out of the pass walls.

    Returns the pass walls split by traced/untraced, each op's latencies
    in the untraced passes and the midpoint of each, every (op, output)
    pair, and the traced pass ids.
    """
    walls = {False: [], True: []}
    latencies: list[list[float]] = [[] for _ in ops]
    midpoints: list[list[float]] = [[] for _ in ops]
    outputs: list[tuple[Op, object]] = []
    traced_ids: list[int] = []
    deadline = time.perf_counter() + seconds
    pass_id = 0
    while True:
        pass_id += 1
        traced = tracer is not None and pass_id % 2 == 0
        if traced:
            tracer.pass_id = pass_id
            tracer.install()
        start = time.perf_counter()
        calibrating = 0.0
        try:
            for op, op_latencies, op_midpoints in zip(ops, latencies, midpoints):
                if sampler is not None:
                    calibrating += sampler.maybe_sample()
                latency, output = run_op(op)
                outputs.append((op, output))
                if not traced:
                    op_latencies.append(latency)
                    op_midpoints.append(time.perf_counter() - latency / 2)
        finally:
            if traced:
                tracer.remove()
        walls[traced].append(time.perf_counter() - start - calibrating)
        if traced:
            traced_ids.append(pass_id)
        enough = tracer is None or (walls[True] and walls[False])
        if time.perf_counter() >= deadline and enough:
            break
    if sampler is not None:
        sampler.sample()  # so the last operations have samples on both sides
    return {"walls": walls, "latencies": latencies, "midpoints": midpoints,
            "outputs": outputs, "traced_ids": traced_ids}


def measure_setup(argv: list[str], sampler) -> tuple[list[float], list[float], int]:
    """Seconds from a fresh interpreter to the workload's first result.

    One unmeasured launch first, so every measured one finds the same
    compiled bytecode. The calibration kernel runs before each launch and
    after the last. Returns the measured times, their midpoints and the
    number of failed launches.
    """
    times, midpoints, failed = [], [], 0
    command = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), *argv]
    for i in range(SETUP_RUNS + 1):
        for _ in range(SETUP_SAMPLES):
            sampler.sample()
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            failed += 1
            sys.stderr.write(done.stderr.decode(errors="replace"))
        elif i > 0:
            times.append(elapsed)
            midpoints.append(start + elapsed / 2)
    for _ in range(SETUP_SAMPLES):
        sampler.sample()
    return times, midpoints, failed


def check_outputs(outputs: list[tuple[Op, object]]) -> int:
    failed = 0
    for op, output in outputs:
        ok = False
        if output is not FAILED:
            try:
                ok = bool(op.check(output))
            except Exception:
                traceback.print_exc(file=sys.stderr)
        if not ok:
            failed += 1
            print(f"check failed: {op.label}", file=sys.stderr)
    return failed


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _lscpu() -> dict[str, str]:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def machine_record(args) -> dict:
    cpu = _lscpu()
    model = cpu.get("Model name")
    if model is None:
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
        except OSError:
            pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "cpu_model": model or "unknown",
        "l2_cache": cpu.get("L2 cache", "unknown"),
        "l3_cache": cpu.get("L3 cache", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "workers": 1,
        "pinned_cpu": args.pinned_cpu,
        "malloc_mmap_threshold": MMAP_THRESHOLD_BYTES if MMAP_THRESHOLD_FIXED else "glibc default",
    }


def end_to_end(workload, passes: dict, setup: tuple[list[float], list[float]],
               run_speed, setup_speed) -> tuple[dict, dict]:
    """The end-to-end metrics, every timing divided by the host's slowdown
    next to it (see calibration.py).

    run_speed calibrated the timed passes and setup_speed the set-up
    launches; the raw figures go into the record.
    """
    def scaled(latencies, midpoints, speed):
        return [t / speed.slowdown_at(when) for t, when in zip(latencies, midpoints)]

    walls = passes["walls"][False]
    per_op = [scaled(ls, ms, run_speed) for ls, ms in zip(passes["latencies"], passes["midpoints"])]
    pass_walls = [sum(column) for column in zip(*per_op)]
    setup_times = scaled(*setup, setup_speed)
    # Every pass asks the same queries, so each query's latency is the mean
    # of its repeats (a mean moves less than a median of a few repeats when
    # the host switches between fast and slow spells); the percentiles run
    # over the distinct queries.
    lat = sorted(statistics.fmean(op_latencies) for op_latencies in per_op)
    wall = statistics.median(pass_walls)
    positions = sum(op.positions for op in workload.ops)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "positions_per_s": positions / wall,
        "query_p50_ms": 1000 * statistics.median(lat),
        "query_p95_ms": 1000 * nearest_rank(lat, 0.95),
    }
    extra = {
        "passes": len(walls),
        "pass_walls_s": pass_walls,
        "raw_pass_walls_s": walls,
        "query_samples": len(lat),
        "query_repeats": len(walls),
        "query_samples_beyond_p95": len(lat) - math.ceil(0.95 * len(lat)),
        "positions_per_pass": positions,
        "setup_runs_s": setup_times,
        "raw_setup_runs_s": setup[0],
        "host_slowdown": run_speed.slowdown(),
        "host_slowdown_setup": setup_speed.slowdown(),
        "calibration_samples": len(run_speed.samples) + len(setup_speed.samples),
        "calibration_reference_s": calibration.REFERENCE_S,
        "raw_wall_s": statistics.median(walls),
        "raw_setup_s": statistics.median(setup[0]),
    }
    return metrics, extra


def per_layer(gs, tracer, passes: dict, warmup_pass: int) -> tuple[dict, dict]:
    spans = tracer.spans
    own = tracing.self_times(spans)
    traced_walls = passes["walls"][True]
    ergodic_m0 = [
        s[tracing.ATTRS]["m0"]
        for s in spans
        if s[tracing.PASS] == passes["traced_ids"][0] and s[tracing.NAME] == "fourier.weighted_ergodic_sum"
    ]
    tau_s = tracing.time_fourier_tau(gs, ergodic_m0)
    rows = [
        tracing.pass_metrics(spans, own, pid, wall, tau_s)
        for pid, wall in zip(passes["traced_ids"], traced_walls)
    ]
    values = tracing.summarize(rows)
    values["primes.table_s"] = tracing.prime_table_seconds(spans, warmup_pass)
    untraced = statistics.median(passes["walls"][False])
    values["trace.overhead_pct"] = 100.0 * (statistics.median(traced_walls) / untraced - 1.0)
    extra = {
        "traced_passes": len(traced_walls),
        "untraced_passes": len(passes["walls"][False]),
        "methods": {
            "fourier.tau_s": "direct: tau(TWINS, p, d) replayed for the pass's ergodic-sum inputs",
            "fourier.ergodic_s": "weighted_ergodic_sum self time minus fourier.tau_s",
            "primes.table_s": "span time of prime-table calls in the warm-up pass of a fresh process",
            "other": "spans around rebound imports, median over traced passes",
        },
    }
    return values, extra




def run_benchmark(args, gs, ref: dict, units: dict[str, str], work_dir: Path) -> dict:
    workload = WORKLOADS[args.workload](gs, args.seed, "full", ref, work_dir)
    attempted = failed = 0
    setup_speed = calibration.Sampler()
    run_speed = None if args.trace else calibration.Sampler()
    if not args.trace:
        *setup, setup_failed = measure_setup(workload.setup_argv, setup_speed)
        attempted += SETUP_RUNS + 1
        failed += setup_failed
        if not setup[0]:
            raise RuntimeError("no set-up launch succeeded")

    tracer = tracing.Tracer(gs) if args.trace else None
    warmup_outputs = []
    if tracer is not None:
        tracer.install()
    try:
        for op in workload.warmup:
            warmup_outputs.append((op, run_op(op)[1]))
    finally:
        if tracer is not None:
            tracer.remove()
    passes = timed_passes(workload.ops, args.seconds, tracer, run_speed)

    if args.trace:
        metrics, extra = per_layer(gs, tracer, passes, warmup_pass=0)
    else:
        metrics, extra = end_to_end(workload, passes, setup, run_speed, setup_speed)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    workload.prepare_checks()
    outputs = warmup_outputs + passes["outputs"]
    attempted += len(outputs)
    failed += check_outputs(outputs)
    extra["error_ratio"] = failed / attempted
    extra["operations_per_pass"] = len(workload.ops)
    record = {"run": machine_record(args), "extra": extra}
    if tracer is not None:
        trace_file = BUILD_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({"record": record, "spans": tracer.spans}))
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(record, sort_keys=True))
    for name, value in sorted(metrics.items()):
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# error_ratio = {extra['error_ratio']:.6g} ratio ({failed} of {attempted} failed)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_smoke(gs, ref: dict, work_dir: Path) -> bool:
    """Every workload once at a tiny size, untraced then traced, all checks."""
    ok = True
    for name, build in WORKLOADS.items():
        start = time.perf_counter()
        workload = build(gs, 0, "smoke", ref, work_dir / name)
        tracer = tracing.Tracer(gs)
        outputs = [(op, run_op(op)[1]) for op in workload.ops]
        tracer.pass_id = 1
        tracer.install()
        try:
            outputs += [(op, run_op(op)[1]) for op in workload.ops]
        finally:
            tracer.remove()
        own = tracing.self_times(tracer.spans)
        layer = tracing.pass_metrics(tracer.spans, own, 1, 0.0, 0.0)
        workload.prepare_checks()
        failed = check_outputs(outputs)
        ok = ok and failed == 0
        busy = {k: v for k, v in layer.items() if v and not k.startswith("trace.")}
        print(f"{name}: {len(outputs)} operations, {failed} failed, "
              f"{time.perf_counter() - start:.2f}s; traced layers: {', '.join(sorted(busy))}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    try:
        gs = Package()
    except ImportError as exc:
        print(f"cannot import gearsieve from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    tracing.check_work_counts()
    args.pinned_cpu = pin_to_one_cpu()
    ref = json.loads((Path(__file__).parent / "reference.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_set = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[metric_set]}
    BUILD_DIR.mkdir(exist_ok=True)
    work_dir = BUILD_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        if args.smoke:
            return 0 if run_smoke(gs, ref, work_dir) else 1
        result = run_benchmark(args, gs, ref, units, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
