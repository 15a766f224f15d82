"""Sweep orchestration: table regeneration, figure data files, decay fit.

Every row is a pure function of (RunConfig, m0): reruns produce
byte-identical files, and the worker count only changes wall time, never
output. Rows are always written in ascending m0 order, and every CSV,
the sweeps' files and the `equidist` and `fourier` stdout alike, goes
through write_csv.

table1 and figure rows take their statistics from one streamed pass over
the window (`signal_sums`): exact integer sums and zero counts under both
signal variants, with no array that grows with the window. table2 counts
a mask trace.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

import numpy as np

from . import _lazy_attributes
from .constellations import Constellation, TWINS
from .domain import H_CONVENTIONS, MAX_WINDOW_END

if TYPE_CHECKING:
    from .engine import SieveBasis, Window
    from .fourier import EquidistReport, FitResult

# The engine, correlation and Fourier layers load on first use, so a
# process loads only the layers its rows run. Calls read each name from
# the module (_lazy.certify), at call time.
__getattr__, __dir__ = _lazy_attributes(__name__, {
    ".correlation": ("fano_theoretical", "mean_field", "variance_decomposition"),
    ".engine": ("SieveBasis", "Window", "certify", "composite_signal", "signal_sums"),
    ".fourier": ("fit_decay_exponent", "weighted_ergodic_sum"),
})
_lazy = sys.modules[__name__]

MEAN_SOURCES = ("proper", "literal")
SURVIVOR_RANGES = ("inclusive", "strict")
OUTPUT_FORMATS = ("csv", "json")

DEFAULT_TABLE1_M0 = (30, 50, 100, 500, 1000)
DEFAULT_TABLE2_M0 = (30, 50, 100, 200, 500, 1000)
DEFAULT_TABLE3_M0 = (30, 50, 100, 200, 500, 1000)

# The table headers of the default tuple. A count column is named after
# the sweep's constellation (_table_header): twins, or sexy for (0, 6).
TABLE1_HEADER = ("m0", "window", "twins", "mean", "var", "ratio")
TABLE1_DIAGNOSTIC_HEADER = (
    "m0", "window", "twins_inclusive", "twins_strict", "mean", "var", "ratio",
)
TABLE2_HEADER = ("m0", "L", "twins", "mu_N", "sigma_diag", "sigma_off", "variance")
# The columns no constellation name may take.
_FIXED_COLUMNS = frozenset(TABLE1_HEADER + TABLE2_HEADER) - {TWINS.name}
TABLE3_HEADER = ("m0", "L", "weighted_sum", "theory", "rel_error_pct")
FIGURE1_HEADER = ("m0", "fano_observed", "fano_theoretical")
FIGURE2_HEADER = ("m0", "count_observed", "count_theory")
FIGURE3_HEADER = ("m0", "cv_observed", "reference")


@dataclass(frozen=True)
class Conventions:
    """Resolved choices for the statistics that admit more than one reading.

    table1_mean_source picks which signal variant feeds the mean/variance
    columns: "proper" counts proper-multiple hits only (a prime never kills
    its own position), "literal" counts every divisor hit. survivor_range
    picks the twin-count column: "inclusive" counts zero-signal positions
    across the whole window under the proper variant, "strict" counts only
    certified positions whose members all exceed the basis bound.
    h_convention selects the correlation-weight indexing for the
    equidistribution sum.
    """

    table1_mean_source: str = "proper"
    survivor_range: str = "inclusive"
    h_convention: str = "appendix_c"

    def __post_init__(self) -> None:
        for name, choices in (
            ("table1_mean_source", MEAN_SOURCES),
            ("survivor_range", SURVIVOR_RANGES),
            ("h_convention", H_CONVENTIONS),
        ):
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(f"{name} must be one of {choices}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """One sweep: which m0 values, which tuple, and where output goes."""

    m0_list: tuple[int, ...]
    constellation: Constellation = TWINS
    anchor: int = 7
    conventions: Conventions = field(default_factory=Conventions)
    workers: int = 1
    output_dir: str = "."
    formats: tuple[str, ...] = ("csv",)

    def __post_init__(self) -> None:
        if not self.m0_list:
            raise ValueError("m0_list must be non-empty")
        if self.constellation.name in _FIXED_COLUMNS:
            raise ValueError(
                f"constellation name {self.constellation.name!r} is a table column of its own"
            )
        for m0 in self.m0_list:
            if m0 < 5:
                raise ValueError(f"every m0 must be >= 5, got {m0}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.formats:
            raise ValueError("formats must name at least one of csv, json")
        for fmt in self.formats:
            if fmt not in OUTPUT_FORMATS:
                raise ValueError(f"unknown output format {fmt!r}")


def sweep_basis(m0: int) -> SieveBasis:
    """Basis for a sweep value: even m0 uses the odd bound just below it."""
    if m0 < 5:
        raise ValueError(f"sweep m0 must be >= 5, got {m0}")
    # The window [anchor, m0^2) is checked before anything is sieved.
    if m0 * m0 > MAX_WINDOW_END:
        raise ValueError(f"window end {m0 * m0} exceeds the supported {MAX_WINDOW_END}")
    return _lazy.SieveBasis(m0 if m0 % 2 == 1 else m0 - 1)


def _ratio(var: float, mean: float, m0: int, window: Window) -> float:
    """Var S / mean S for a row; a window whose mean signal is 0 has none."""
    if mean == 0:
        raise ValueError(
            f"m0 {m0}: the mean signal over the window [{window.anchor}, {window.end}) "
            "is 0, so Var/mean is undefined"
        )
    return var / mean


def _table1_row(cfg: RunConfig, m0: int) -> dict:
    basis = sweep_basis(m0)
    window = _lazy.Window.for_capacity(m0, cfg.anchor)
    sums = _lazy.signal_sums(basis, window, cfg.constellation)
    mean, var = sums.moments(proper=cfg.conventions.table1_mean_source == "proper")
    count = sums.inclusive if cfg.conventions.survivor_range == "inclusive" else sums.strict
    name = cfg.constellation.name
    return {
        "m0": m0,
        "window": m0 * m0,
        name: count,
        f"{name}_inclusive": sums.inclusive,
        f"{name}_strict": sums.strict,
        "mean": mean,
        "var": var,
        "ratio": _ratio(var, mean, m0, window),
    }


def _table2_row(cfg: RunConfig, m0: int) -> dict:
    basis = sweep_basis(m0)
    window = _lazy.Window.for_capacity(m0, cfg.anchor)
    trace = _lazy.composite_signal(basis, window, cfg.constellation, mode="mask")
    count = _lazy.certify(trace).count
    report = _lazy.variance_decomposition(
        basis, window, cfg.constellation, observed_count=count
    )
    return {
        "m0": m0,
        "L": window.length,
        cfg.constellation.name: count,
        "mu_N": report.mu_N,
        "sigma_diag": report.sigma_diag,
        "sigma_off": report.sigma_off,
        "variance": report.variance,
    }


def _table_header(header: tuple[str, ...], constellation: Constellation) -> tuple[str, ...]:
    """header with its count columns named after constellation.

    twins, twins_inclusive and twins_strict become sexy, sexy_inclusive
    and sexy_strict for SEXY, and tuple_0_2_6... for a custom tuple; the
    rows of a sweep use the same keys.
    """
    return tuple(column.replace(TWINS.name, constellation.name) for column in header)


def table3_record(report: EquidistReport) -> dict:
    """The TABLE3_HEADER cells of one equidistribution report."""
    return {name: getattr(report, name) for name in TABLE3_HEADER}


def _table3_row(cfg: RunConfig, m0: int) -> dict:
    return table3_record(_lazy.weighted_ergodic_sum(m0, convention=cfg.conventions.h_convention))


def _figure_row(cfg: RunConfig, m0: int) -> dict:
    basis = sweep_basis(m0)
    window = _lazy.Window.for_capacity(m0, cfg.anchor)
    sums = _lazy.signal_sums(basis, window, cfg.constellation)
    mean, var = sums.moments(proper=True)
    count = sums.strict
    return {
        "m0": m0,
        "L": window.length,
        "fano_observed": _ratio(var, mean, m0, window),
        "fano_theoretical": _lazy.fano_theoretical(basis.m0),
        "count_observed": count,
        "count_theory": _lazy.mean_field(cfg.constellation, basis.m0, window.positions),
        "cv_observed": 1.0 / math.sqrt(count) if count > 0 else math.inf,
    }


def _sweep(row_fn, cfg: RunConfig) -> list[dict]:
    """row_fn(cfg, m0) for every m0 of the sweep, sorted by m0.

    A row depends on (cfg, m0) alone, so the rows may run on a pool of
    at most one process per row and CPU, up to cfg.workers, and the
    worker count changes wall time, never output.
    """
    workers = min(cfg.workers, len(cfg.m0_list), os.cpu_count() or 1)
    if workers > 1:
        # Imported only here: multiprocessing adds about 1 MB of memory and
        # 20 ms of start-up to every process that imports it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(functools.partial(row_fn, cfg), cfg.m0_list))
    else:
        rows = [row_fn(cfg, m0) for m0 in cfg.m0_list]
    rows.sort(key=lambda row: row["m0"])
    return rows


def run_table1(cfg: RunConfig) -> list[dict]:
    """Signal-statistics rows: window size, twin count, mean, var, ratio."""
    return _sweep(_table1_row, cfg)


def run_table2(cfg: RunConfig) -> list[dict]:
    """Certified counts with the diagonal/off-diagonal variance split."""
    return _sweep(_table2_row, cfg)


def fit_record(fit: FitResult, convention: str) -> dict:
    """A decay fit as run_table3 appends it and `gearsieve fit` prints it."""
    return {"alpha": fit.alpha, "intercept": fit.intercept, "convention": convention}


def run_table3(cfg: RunConfig) -> list[dict]:
    """Weighted equidistribution rows, plus a trailing fit record.

    Each row is table3_record of one m0's report. The fit_record
    {"alpha", "intercept", "convention"} is appended when the sweep holds
    at least three distinct m0 values; it is fitted to the rows' own
    errors, kept out of the fixed-schema CSV and written to a companion
    JSON file instead.
    """
    rows = _sweep(_table3_row, cfg)
    if len(set(cfg.m0_list)) >= 3:
        fit = _lazy.fit_decay_exponent(
            [row["m0"] for row in rows],
            errors=[row["rel_error_pct"] for row in rows],
        )
        rows.append(fit_record(fit, cfg.conventions.h_convention))
    return rows


def format_cell(value) -> str:
    """CSV cell text: integers verbatim, reals at six significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    return str(value)


def write_csv(fh: TextIO, header: tuple[str, ...], rows: Iterable[dict]) -> None:
    """Write header, then each row's header cells by format_cell, to a text stream.

    The one CSV writer: the sweep files (through _emit), and the stdout
    of `equidist` and `fourier`. Lines end in a bare newline; rows may be
    a generator, written as it yields.
    """
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(format_cell(row[name]) for name in header) + "\n")


def _finite(payload):
    """payload with every non-finite float replaced by None (JSON null)."""
    if isinstance(payload, float):
        return payload if math.isfinite(payload) else None
    if isinstance(payload, dict):
        return {key: _finite(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_finite(value) for value in payload]
    return payload


def json_text(payload) -> str:
    """payload as indented JSON, each inf or nan written as null.

    JSON has neither, and allow_nan=False refuses to write `Infinity`.
    Only a payload the encoder refuses is walked: most hold no float, and
    the walk would cost a CLI query several microseconds.
    """
    try:
        return json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        return json.dumps(_finite(payload), indent=2, allow_nan=False)


def write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(payload) + "\n")


def _emit(cfg: RunConfig, name: str, header: tuple[str, ...],
          rows: list[dict]) -> list[Path]:
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    if "csv" in cfg.formats:
        path = out_dir / f"{name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, header, rows)
        paths.append(path)
    if "json" in cfg.formats:
        path = out_dir / f"{name}.json"
        write_json(path, [{k: row[k] for k in header} for row in rows])
        paths.append(path)
    return paths


def write_table1(cfg: RunConfig, diagnostic: bool = False) -> list[Path]:
    rows = run_table1(cfg)
    header = TABLE1_DIAGNOSTIC_HEADER if diagnostic else TABLE1_HEADER
    return _emit(cfg, "table1", _table_header(header, cfg.constellation), rows)


def write_table2(cfg: RunConfig) -> list[Path]:
    header = _table_header(TABLE2_HEADER, cfg.constellation)
    return _emit(cfg, "table2", header, run_table2(cfg))


def write_table3(cfg: RunConfig) -> list[Path]:
    records = run_table3(cfg)
    rows = [r for r in records if "m0" in r]
    paths = _emit(cfg, "table3", TABLE3_HEADER, rows)
    fits = [r for r in records if "alpha" in r]
    if fits:
        fit_path = Path(cfg.output_dir) / "table3_fit.json"
        write_json(fit_path, fits[0])
        paths.append(fit_path)
    return paths


def run_figures(cfg: RunConfig) -> list[Path]:
    """Emit the three figure data series in each configured format.

    fig3's reference column is C * L^(-1/2) with C pinned so the reference
    meets the observed coefficient of variation at the first m0, which
    needs a positive count there. Every check runs before any file is
    written.
    """
    rows = _sweep(_figure_row, cfg)
    if rows[0]["count_observed"] == 0:
        raise ValueError(
            f"fig3 pins its reference at the first m0 ({rows[0]['m0']}), "
            "which needs a positive count there, got 0"
        )
    scale = rows[0]["cv_observed"] * math.sqrt(rows[0]["L"])
    for row in rows:
        row["reference"] = scale / math.sqrt(row["L"])
    paths = []
    for name, header in (
        ("fig1_fano", FIGURE1_HEADER),
        ("fig2_counts", FIGURE2_HEADER),
        ("fig3_cv", FIGURE3_HEADER),
    ):
        paths += _emit(cfg, name, header, rows)
    return paths

