"""Command-line surface: subcommands, formats, exit codes."""

import argparse
import hashlib
import json
import time
from unittest import mock

import pytest

from gearsieve import cli, correlation, engine, fourier
from gearsieve.cli import main
from gearsieve.engine import MAX_FOURIER_PMAX, MAX_TAU_P, MAX_WINDOW_END


def test_seed_command(capsys):
    assert main(["seed", "37"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"n": 37, "n0": 2, "m0": 11, "candidate": True}


def test_prime_command(capsys):
    assert main(["prime", "97"]) == 0
    assert json.loads(capsys.readouterr().out)["prime"] is True
    assert main(["prime", "91"]) == 0
    assert json.loads(capsys.readouterr().out)["prime"] is False


def test_admissible_command(capsys):
    assert main(["admissible", "0,2,6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["admissible"] is True
    assert main(["admissible", "0,2,4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["admissible"] is False


def test_scan_command(tmp_path, capsys):
    survivors = tmp_path / "starts.txt"
    rc = main(["scan", "--m0", "30", "--survivors", str(survivors)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 30
    assert payload["window_end"] == 900
    lines = survivors.read_text().splitlines()
    assert len(lines) == 30
    assert lines[:3] == ["41", "59", "71"]
    values = [int(line) for line in lines]
    assert values == sorted(values)
    assert survivors.read_text().endswith("\n")


def test_scan_count_builds_no_bits(capsys):
    with mock.patch.object(engine, "_survivor_positions", side_effect=AssertionError):
        assert main(["scan", "--m0", "301", "--tuple", "0,2,6"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 227


@pytest.mark.parametrize(
    "tuple_text, count, sha256",
    [
        ("0,2", 1104, "9ba435ae3fa6a2da78004aeb30be5bd202129559758df294bb129eab4a8f005b"),
        ("0,2,6", 227, "6b206644de0f457f4e7315db6598aeb847e1cb07394af95544fdf3e8c80bc1d1"),
    ],
)
def test_scan_survivor_file_is_unchanged(tmp_path, capsys, tuple_text, count, sha256):
    # digests of the files written before mask traces built their bits lazily
    path = tmp_path / "starts.txt"
    argv = ["scan", "--m0", "301", "--anchor", "11", "--tuple", tuple_text]
    assert main([*argv, "--survivors", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == count
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_count_wheel_follows_window_size(capsys):
    chosen = []
    choose = engine._count_wheel

    def spy(count, primes):
        chosen.append(choose(count, primes))
        return chosen[-1]

    with mock.patch.object(engine, "_count_wheel", spy):
        assert main(["goldbach", "--even", str(10**8)]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 291400
        assert chosen == [(3, 5)]
        assert main(["scan", "--m0", "10001"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 440191
        assert chosen == [(3, 5), (3, 5, 7)]


def test_scan_segments_agree(capsys):
    main(["scan", "--m0", "45"])
    one = json.loads(capsys.readouterr().out)
    main(["scan", "--m0", "45", "--segments", "7"])
    many = json.loads(capsys.readouterr().out)
    assert one == many


def test_tau_command(capsys):
    assert main(["tau", "--p", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "d,tau_num,tau_den,case"
    assert lines[1] == "0,3,5,C"
    assert lines[2] == "1,2,5,B"
    assert lines[3] == "2,1,5,A"


def test_moments_command(capsys):
    assert main(["moments", "--m0", "100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m0"] == 100
    assert payload["mu_N"] == 197.0
    assert abs(payload["sigma_diag"] - 189.2) < 0.1


def test_equidist_command(capsys):
    assert main(["equidist", "--m0", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m0,L,weighted_sum,theory,rel_error_pct"
    cells = lines[1].split(",")
    assert cells[0] == "30" and cells[1] == "900"
    assert abs(float(cells[2]) - 5279.37) < 0.01


def test_float_sum_commands_past_window_cap_exit_two(capsys):
    # m0 = 31623 puts m0^2 past MAX_WINDOW_END; both commands would build
    # float arrays of about m0^2/3 entries, so the cap is checked first
    assert 31623**2 > MAX_WINDOW_END
    unreachable = AssertionError("the window cap was not checked first")
    with mock.patch.object(fourier, "sparse_factors", side_effect=unreachable), \
            mock.patch.object(correlation, "_sigma_off_split_float", side_effect=unreachable):
        assert main(["equidist", "--m0", "31623"]) == 2
        assert main(["moments", "--m0", "31623", "--mu-source", "expected"]) == 2
    err = capsys.readouterr().err
    assert err.count(str(MAX_WINDOW_END)) == 2


def test_moments_without_split_past_exact_limit_exits_two_before_counting(capsys):
    # (0, 6) has no blocking prime, and m0 = 20001 has more positions than
    # the exact sum takes, so the report is refused before any striding
    unreachable = AssertionError("the window was counted before the size check")
    with mock.patch.object(correlation, "composite_signal", side_effect=unreachable), \
            mock.patch.object(correlation, "certify", side_effect=unreachable):
        assert main(["moments", "--m0", "20001", "--tuple", "0,6"]) == 2
    assert "no blocking prime" in capsys.readouterr().err


def test_fourier_command(capsys):
    assert main(["fourier", "--pmax", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p,k,closed,dft_re,dft_im"
    assert len(lines) == 1 + 5 + 7
    assert lines[1].startswith("5,0,0.36,")


def test_fourier_pmax_above_cap_exits_two(capsys):
    assert main(["fourier", "--pmax", str(MAX_FOURIER_PMAX + 1)]) == 2
    assert capsys.readouterr().out == ""


def test_prime_above_bound_exits_two_at_once(capsys):
    start = time.perf_counter()
    assert main(["prime", "1000000000000000003"]) == 2
    # an unbounded walk over its 5e8 moduli would take minutes
    assert time.perf_counter() - start < 2.0
    assert "10000000000000000" in capsys.readouterr().err


def test_tau_above_cap_exits_two_at_once(capsys):
    # 10^8 rows of Fraction survival values would run for minutes
    start = time.perf_counter()
    assert main(["tau", "--p", "100000007"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(MAX_TAU_P) in captured.err


def test_main_parses_once_and_dispatches_by_command(capsys):
    cli.build_parser.cache_clear()
    assert main(["seed", "37"]) == 0
    assert json.loads(capsys.readouterr().out)["m0"] == 11
    assert main(["prime", "91"]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 91, "prime": False}
    assert cli.build_parser.cache_info().misses == 1
    # handlers are looked up when called, so a rebound one is the one run
    with mock.patch.object(cli, "_cmd_seed", return_value=0) as handler:
        assert main(["seed", "37"]) == 0
    handler.assert_called_once()
    assert capsys.readouterr().out == ""


def test_every_subcommand_has_a_handler():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(commands.choices) == 14
    for name in commands.choices:
        assert callable(getattr(cli, f"_cmd_{name}")), name


def test_goldbach_command(capsys):
    assert main(["goldbach", "--even", "100", "--survivors"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 6
    assert payload["survivors"] == [3, 11, 17, 29, 41, 47]


def test_goldbach_above_window_cap_exits_two(capsys):
    assert main(["goldbach", "--even", str(MAX_WINDOW_END + 2)]) == 2
    capsys.readouterr()


def test_table_commands_write_files(tmp_path, capsys):
    rc = main(["table1", "--m0-list", "30,50", "--out", str(tmp_path),
               "--format", "csv,json"])
    assert rc == 0
    assert (tmp_path / "table1.csv").exists()
    assert (tmp_path / "table1.json").exists()
    rc = main(["table2", "--m0-list", "30", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "table2.csv").exists()
    rc = main(["table3", "--m0-list", "30,50,100", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "table3.csv").exists()
    assert (tmp_path / "table3_fit.json").exists()
    capsys.readouterr()


def test_table1_diagnostic_flag(tmp_path, capsys):
    rc = main(["table1", "--m0-list", "30", "--out", str(tmp_path),
               "--diagnostic"])
    assert rc == 0
    capsys.readouterr()
    header = (tmp_path / "table1.csv").read_text().splitlines()[0]
    assert header == "m0,window,twins_inclusive,twins_strict,mean,var,ratio"


def test_figures_command(tmp_path, capsys):
    rc = main(["figures", "--m0-list", "30,50", "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    for name in ("fig1_fano.csv", "fig2_counts.csv", "fig3_cv.csv"):
        assert (tmp_path / name).exists()


def test_fit_command(capsys):
    assert main(["fit", "--m0-list", "30,50,100,200"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["alpha"] - 1.6115) < 5e-4
    assert payload["convention"] == "appendix_c"


def test_invalid_configuration_exit_code(capsys):
    assert main(["scan", "--m0", "4"]) == 2
    assert main(["seed", "2"]) == 2
    assert main(["fit", "--m0-list", "30,50"]) == 2
    assert main(["table1", "--m0-list", "30;50"]) == 2
    assert main(["scan", "--m0", "101", "--anchor", "1"]) == 2
    assert main(["scan", "--m0", "101", "--segments", "0"]) == 2
    assert main(["tau", "--p", "9"]) == 2
    assert main(["tau", "--p", "4"]) == 2
    capsys.readouterr()


def test_io_failure_exit_code(capsys):
    rc = main(["table1", "--m0-list", "30", "--out", "/proc/missing/dir"])
    assert rc == 3
    capsys.readouterr()


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["table1", "--bogus"])
    assert info.value.code == 2
    capsys.readouterr()
