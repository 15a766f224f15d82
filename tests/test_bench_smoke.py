"""The benchmark harness runs: every workload once at a tiny size."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_passes():
    run = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    for workload in ("paper_tables", "large_window", "point_queries"):
        assert f"{workload}: " in run.stdout
