"""Sweep configuration, table generation, and file output stability."""

import csv
import json
import math
import tracemalloc
from unittest import mock

import pytest

from gearsieve import harness
from gearsieve.engine import Window
from gearsieve.harness import (
    TABLE1_HEADER,
    TABLE2_HEADER,
    TABLE3_HEADER,
    Conventions,
    RunConfig,
    _table1_row,
    format_cell,
    run_figures,
    run_table1,
    run_table2,
    run_table3,
    sweep_basis,
    write_table1,
    write_table2,
    write_table3,
)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_conventions_validation():
    Conventions()  # defaults are valid
    with pytest.raises(ValueError):
        Conventions(table1_mean_source="mean")
    with pytest.raises(ValueError):
        Conventions(survivor_range="open")
    with pytest.raises(ValueError):
        Conventions(h_convention="appendix_d")


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(m0_list=())
    with pytest.raises(ValueError):
        RunConfig(m0_list=(4,))
    with pytest.raises(ValueError):
        RunConfig(m0_list=(30,), workers=0)
    with pytest.raises(ValueError):
        RunConfig(m0_list=(30,), formats=())
    with pytest.raises(ValueError):
        RunConfig(m0_list=(30,), formats=("xml",))


def test_sweep_basis_parity():
    assert sweep_basis(29).m0 == 29
    assert sweep_basis(30).m0 == 29
    assert sweep_basis(100).m0 == 99
    with pytest.raises(ValueError):
        sweep_basis(4)


def test_run_table1_values():
    cfg = RunConfig(m0_list=(30, 50))
    rows = run_table1(cfg)
    assert [row["m0"] for row in rows] == [30, 50]
    first = rows[0]
    assert first["window"] == 900
    assert first["twins"] == 33
    assert first["twins_inclusive"] == 33
    assert first["twins_strict"] == 30
    assert abs(first["mean"] - 2.05) < 0.03
    assert abs(first["ratio"] - 0.65) < 0.02
    second = rows[1]
    assert second["twins"] == 70
    assert second["twins_strict"] == 66
    assert abs(second["mean"] - 2.31) < 0.03


def test_table1_row_peak_memory_below_a_byte_per_position():
    # the row streams the signal block by block; whole-window traces and
    # their moment chunks took about 4 bytes per position
    window = Window.for_capacity(4001)
    tracemalloc.start()
    try:
        row = _table1_row(RunConfig(m0_list=(4001,)), 4001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row["twins_strict"] > 0
    assert peak < window.positions


def test_run_table1_strict_convention():
    cfg = RunConfig(
        m0_list=(30,), conventions=Conventions(survivor_range="strict")
    )
    rows = run_table1(cfg)
    assert rows[0]["twins"] == 30


def test_run_table1_literal_source():
    proper = run_table1(RunConfig(m0_list=(30,)))[0]
    literal = run_table1(
        RunConfig(
            m0_list=(30,),
            conventions=Conventions(table1_mean_source="literal"),
        )
    )[0]
    # literal counting includes each basis prime's hit on itself
    assert literal["mean"] > proper["mean"]


def test_run_table2_values():
    cfg = RunConfig(m0_list=(30,))
    row = run_table2(cfg)[0]
    assert row["L"] == 893
    assert row["twins"] == 30
    assert row["mu_N"] == 30
    assert abs(row["sigma_diag"] - 28.0) < 0.1
    assert abs(row["variance"] - (row["sigma_diag"] + row["sigma_off"])) < 1e-9


def test_run_table3_appends_fit():
    cfg = RunConfig(m0_list=(30, 50, 100))
    records = run_table3(cfg)
    rows = [r for r in records if "m0" in r]
    fits = [r for r in records if "alpha" in r]
    assert len(rows) == 3 and len(fits) == 1
    assert fits[0]["convention"] == "appendix_c"
    assert 1.0 < fits[0]["alpha"] < 2.0


def test_run_table3_skips_fit_when_underdetermined():
    records = run_table3(RunConfig(m0_list=(30, 50)))
    assert all("alpha" not in r for r in records)


def test_rows_sorted_regardless_of_input_order():
    rows = run_table1(RunConfig(m0_list=(100, 30, 50)))
    assert [row["m0"] for row in rows] == [30, 50, 100]


def test_format_cell():
    assert format_cell(30) == "30"
    assert format_cell(2.046980) == "2.04698"
    assert format_cell(1951530.123) == "1.95153e+06"
    assert format_cell(0.6448234567) == "0.644823"


def test_write_table1_csv_schema(tmp_path):
    cfg = RunConfig(m0_list=(30,), output_dir=str(tmp_path))
    paths = write_table1(cfg)
    header, rows = _read_csv(paths[0])
    assert tuple(header) == TABLE1_HEADER
    assert rows[0][0] == "30" and rows[0][1] == "900" and rows[0][2] == "33"
    # every cell parses back under the schema
    int(rows[0][0]), int(rows[0][1]), int(rows[0][2])
    float(rows[0][3]), float(rows[0][4]), float(rows[0][5])


def test_write_table1_diagnostic_schema(tmp_path):
    cfg = RunConfig(m0_list=(30,), output_dir=str(tmp_path))
    paths = write_table1(cfg, diagnostic=True)
    header, rows = _read_csv(paths[0])
    assert header == [
        "m0", "window", "twins_inclusive", "twins_strict", "mean", "var", "ratio",
    ]
    assert rows[0][2] == "33" and rows[0][3] == "30"


def test_write_table2_csv_schema(tmp_path):
    cfg = RunConfig(m0_list=(30, 50), output_dir=str(tmp_path))
    header, rows = _read_csv(write_table2(cfg)[0])
    assert tuple(header) == TABLE2_HEADER
    assert [r[0] for r in rows] == ["30", "50"]
    assert rows[0][2] == "30" and rows[1][2] == "66"


def test_write_table3_emits_fit_json(tmp_path):
    cfg = RunConfig(m0_list=(30, 50, 100), output_dir=str(tmp_path))
    paths = write_table3(cfg)
    header, rows = _read_csv(paths[0])
    assert tuple(header) == TABLE3_HEADER
    assert len(rows) == 3
    fit_path = tmp_path / "table3_fit.json"
    assert fit_path in paths
    fit = json.loads(fit_path.read_text())
    assert set(fit) == {"alpha", "intercept", "convention"}


def test_json_format_output(tmp_path):
    cfg = RunConfig(
        m0_list=(30,), output_dir=str(tmp_path), formats=("csv", "json")
    )
    paths = write_table2(cfg)
    assert {p.suffix for p in paths} == {".csv", ".json"}
    payload = json.loads((tmp_path / "table2.json").read_text())
    assert payload[0]["twins"] == 30
    assert list(payload[0]) == list(TABLE2_HEADER)


def test_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for target in (a, b):
        cfg = RunConfig(
            m0_list=(30, 50), output_dir=str(target), formats=("csv", "json")
        )
        write_table1(cfg)
        write_table3(RunConfig(m0_list=(30, 50, 100), output_dir=str(target)))
    for name in ("table1.csv", "table1.json", "table3.csv", "table3_fit.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_workers_do_not_change_output(tmp_path):
    serial = run_table2(RunConfig(m0_list=(30, 50, 100)))
    parallel = run_table2(RunConfig(m0_list=(30, 50, 100), workers=3))
    assert serial == parallel


def test_sweep_starts_at_most_one_process_per_row_and_cpu():
    # the pool class is a recorder that runs the rows in this process, so
    # no process starts whatever max_workers it is asked for
    started = []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    serial = run_table2(RunConfig(m0_list=(30, 50, 100)))
    cfg = RunConfig(m0_list=(30, 50, 100), workers=10**6)
    with mock.patch("concurrent.futures.ProcessPoolExecutor", Recorder):
        for cpus in (8, 2, 1, None):
            with mock.patch.object(harness.os, "cpu_count", return_value=cpus):
                assert run_table2(cfg) == serial
    # three rows on eight CPUs, two CPUs; one CPU (or an unknown count)
    # runs the rows serially, with no pool
    assert started == [3, 2]


def test_run_figures_files(tmp_path):
    cfg = RunConfig(m0_list=(30, 50, 100), output_dir=str(tmp_path))
    paths = run_figures(cfg)
    names = sorted(p.name for p in paths)
    assert names == ["fig1_fano.csv", "fig2_counts.csv", "fig3_cv.csv"]

    header, rows = _read_csv(tmp_path / "fig1_fano.csv")
    assert header == ["m0", "fano_observed", "fano_theoretical"]
    assert abs(float(rows[2][1]) - 0.70) < 0.02

    header, rows = _read_csv(tmp_path / "fig2_counts.csv")
    assert header == ["m0", "count_observed", "count_theory"]
    assert rows[2][1] == "197"
    assert abs(float(rows[2][2]) - 191.37) < 0.01

    header, rows = _read_csv(tmp_path / "fig3_cv.csv")
    assert header == ["m0", "cv_observed", "reference"]
    # reference decays exactly like L^(-1/2), pinned at the first row
    assert float(rows[0][1]) == pytest.approx(float(rows[0][2]))
    l_values = [893, 2493, 9993]
    want = float(rows[0][2]) * math.sqrt(l_values[0] / l_values[2])
    assert float(rows[2][2]) == pytest.approx(want, rel=1e-5)
