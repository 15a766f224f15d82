"""Command-line surface: subcommands, formats, exit codes."""

import argparse
import hashlib
import inspect
import json
import math
import re
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import gearsieve
from gearsieve import cli, correlation, engine, fourier, harness, primes
from gearsieve.cli import main
from gearsieve.constellations import TWINS, Constellation, density_product, is_admissible
from gearsieve.engine import (
    MAX_FOURIER_PMAX, MAX_PRIME_N, MAX_PRODUCT_PMAX, MAX_TAU_P, MAX_WINDOW_END,
)


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


@pytest.mark.parametrize("chunk", [1, 7, 1103, 1104, 1105])
def test_scan_survivor_file_does_not_depend_on_the_chunk(tmp_path, capsys, chunk):
    # the starts are written a chunk at a time; the file is the one the
    # tuple of Python ints gave, one start per line, whatever the chunk
    path = tmp_path / "starts.txt"
    argv = ["scan", "--m0", "301", "--anchor", "11", "--survivors", str(path)]
    with mock.patch.object(cli, "_LIST_CHUNK", chunk):
        assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1104
    want = "9ba435ae3fa6a2da78004aeb30be5bd202129559758df294bb129eab4a8f005b"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want


def test_scan_with_no_survivors_writes_an_empty_file(tmp_path, capsys):
    # [23, 25) has one position and no twin pair fits below 25
    path = tmp_path / "starts.txt"
    assert main(["scan", "--m0", "5", "--anchor", "23", "--survivors", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 0
    assert path.read_bytes() == b""


@pytest.mark.parametrize(
    "even, sha256",
    [
        (100, "9b07b897231296f1d33ef7aa8805ea860eb9be06264f9d6398a3cb7f6a85588c"),
        (10**4, "18e96d91eec04af438cecbc5cb09dd270f1d99e5f41fd487ca15dbc4d2302acd"),
        (10**6, "74f123475ddb9c5c84f4a1173fae5aa2b209925af6f3dd0107cb0f6417286995"),
    ],
)
def test_goldbach_survivor_output_is_unchanged(capsys, even, sha256):
    # digests of the stdout written when the survivors were a tuple of ints
    assert main(["goldbach", "--even", str(even), "--survivors"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("even", [8, 100, 10**4, 10**6])
def test_goldbach_survivor_stream_equals_json_text(capsys, even):
    # the list is written in chunks; every chunk size gives json_text's bytes
    result = engine.goldbach_count(even, survivors=True)
    want = harness.json_text(
        {"even": even, "count": result.count, "survivors": result.survivors.tolist()}
    ) + "\n"
    for chunk in (1, 7, cli._LIST_CHUNK):
        with mock.patch.object(cli, "_LIST_CHUNK", chunk):
            assert main(["goldbach", "--even", str(even), "--survivors"]) == 0
        assert capsys.readouterr().out == want


@pytest.mark.parametrize("offsets", ["0", "0,2,4", "0,2,6", "0,4,998"])
def test_admissible_stream_equals_json_text(capsys, offsets):
    # per_prime is written in chunks, with blocking empty ("0,2,6") or not
    # ("0,2,4") after it; every chunk size gives json_text's bytes
    report = is_admissible(cli._parse_offsets(offsets))
    want = harness.json_text(
        {
            "constellation": {"name": report.constellation.name,
                              "offsets": report.constellation.offsets},
            "admissible": report.admissible,
            "per_prime": report.per_prime,
            "blocking": report.blocking,
        }
    ) + "\n"
    for chunk in (1, 7, cli._LIST_CHUNK):
        with mock.patch.object(cli, "_LIST_CHUNK", chunk):
            assert main(["admissible", offsets]) == 0
        assert capsys.readouterr().out == want


def test_goldbach_empty_survivor_list_is_json_text(capsys):
    empty = engine.CertifiedResult(count=0, survivors=np.empty(0, dtype=np.int64))
    with mock.patch.object(cli, "goldbach_count", return_value=empty):
        assert main(["goldbach", "--even", "8", "--survivors"]) == 0
    want = harness.json_text({"even": 8, "count": 0, "survivors": []}) + "\n"
    assert capsys.readouterr().out == want


# the default-ladder figure files, in the order run_figures writes them
_FIGURE_SHA256 = {
    "fig1_fano.csv": "587fc189feef4b25de4f5e29fadbe54d918fbeaefa9a2b5f4ecd2af17a487254",
    "fig2_counts.csv": "0cd4998a89ebe6aa6ffc095aae50031e4e5b84ead231fb5cb1d6d173a5f6d5dc",
    "fig3_cv.csv": "ce613e0d284490b043e35e40e3fad2b54bc251164237134f8d16c668a9c824ad",
}


@pytest.mark.parametrize(
    "argv, name, sha256",
    [
        (["table1"], "table1.csv",
         "ef8dafe10199d5f038cc677e840e975df11bfc901e4e20cc137ac2fcccde867f"),
        (["table1", "--diagnostic"], "table1.csv",
         "5f07244c0507374a1d5e9c09bb25aee16b7a8638bcc64927d01b35ba77558d84"),
        (["table1", "--mean-source", "literal"], "table1.csv",
         "1a73ddd8e8581e344950976a966ee3fb8f721f02a930a74f2491599db44452b3"),
        (["table1", "--survivor-range", "strict"], "table1.csv",
         "655403efbc3c2f8b154922c1b56a93ddfdea75297084d5c8268c49129f1a6d54"),
        (["table1", "--tuple", "0,2,6"], "table1.csv",
         "d5641c0cf122d65ec23b4b3e0adc1ed3ec29c7a3017bddd8e3af28cb380c13ff"),
        *[(["figures"], name, sha256) for name, sha256 in _FIGURE_SHA256.items()],
    ],
)
def test_sweep_files_are_unchanged(tmp_path, capsys, argv, name, sha256):
    # digests of the default-ladder files written when the rows summed
    # whole-window counts traces
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("command", ["table1", "figures"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--tuple", "0,2,4"], "error: constellation tuple_0_2_4 is not admissible"),
        (["--m0-list", "40000"],
         f"error: window end 1600000000 exceeds the supported {MAX_WINDOW_END}"),
    ],
)
def test_sweeps_reject_bad_input_before_striding(tmp_path, capsys, command, argv, message):
    with mock.patch.object(engine, "_stride_blocks", side_effect=AssertionError):
        assert main([command, *argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == message


_HUGE_M0 = "100000000001"
# the commands whose bound is not a window end
_PROBE_MESSAGES = {
    "tau": f"tau supports primes up to {MAX_TAU_P}",
    "fourier": f"pmax must be in [5, {MAX_FOURIER_PMAX}]",
    "goldbach": f"goldbach count supports even integers up to {MAX_WINDOW_END}",
    "prime": f"structural test supports n up to {MAX_PRIME_N}",
}


@pytest.mark.parametrize(
    "probe",
    [
        ["scan", "--m0", _HUGE_M0],
        ["moments", "--m0", _HUGE_M0],
        ["table1", "--m0-list", _HUGE_M0],
        ["table2", "--m0-list", _HUGE_M0],
        ["figures", "--m0-list", _HUGE_M0],
        (harness.sweep_basis, int(_HUGE_M0)),
        (fourier.product_variance_constant, MAX_PRODUCT_PMAX + 1),
        (fourier.product_variance_constant, 10**11),
        ["admissible", "0,1000000000"],
        (lambda n: engine.SieveBasis(n + 1), 10**11),
        (correlation.fano_theoretical, 10**11),
        (lambda n: correlation.mean_field(TWINS, n, 100), 10**11),
        (lambda n: correlation.asymptotic_report(n, TWINS), 10**11),
        (lambda n: density_product(TWINS, n), 10**11),
        (lambda n: is_admissible(Constellation("far", (0, n))), 10**9),
        (primes.primes_upto, primes.MAX_PRIME_TABLE + 1),
        ["tau", "--p", _HUGE_M0],
        ["fourier", "--pmax", _HUGE_M0],
        ["goldbach", "--even", str(int(_HUGE_M0) + 1)],
        ["prime", str(MAX_PRIME_N + 1)],
        ["table3", "--m0-list", _HUGE_M0],
        ["fit", "--m0-list", f"{_HUGE_M0},100000000003,100000000005"],
        ["equidist", "--m0", _HUGE_M0],
    ],
)
def test_huge_bounds_are_rejected_before_sieving(tmp_path, capsys, probe):
    # a prime table to 1e11 would ask for about 93 GiB, so each bound is
    # checked before the shared table grows; primes_upto itself refuses
    # any bound past MAX_PRIME_TABLE
    began = time.perf_counter()
    with mock.patch.object(primes, "_rebuild", side_effect=AssertionError("sieved")):
        if isinstance(probe, list):
            sweep = probe[0] in ("table1", "table2", "table3", "figures")
            assert main([*probe, *(["--out", str(tmp_path)] if sweep else [])]) == 2
            message = _PROBE_MESSAGES.get(probe[0], "exceeds the supported")
            assert message in capsys.readouterr().err
        else:
            fn, bound = probe
            with pytest.raises(ValueError, match="supported|supports"):
                fn(bound)
    assert time.perf_counter() - began < 1.0
    assert not any(tmp_path.iterdir())


_BIG_WINDOW = engine.Window(7, 2 * 10**9)
_BIG_P = 10**11 + 3
_BIG_M0 = (10**11 + 1, 10**11 + 3, 10**11 + 5)
_WINDOW_MESSAGE = f"window end 2000000000 exceeds the supported {MAX_WINDOW_END}"
_TAU_MESSAGE = f"tau supports primes up to {MAX_TAU_P}"
_M0_MESSAGE = "m0^2 = 10000000000200000000001 exceeds the supported window end"
_SWEEP_MESSAGE = f"window end 10000000000200000000001 exceeds the supported {MAX_WINDOW_END}"
# public callable -> (a too-large call, given a small basis; its message)
_PUBLIC_PROBES = {
    "gear_sequence": (
        lambda basis: gearsieve.gear_sequence(gearsieve.canonical_seed(10**12)),
        "gear sequence supports m0 up to 31622",
    ),
    "classical_oracle_count": (
        lambda basis: engine.classical_oracle_count(_BIG_WINDOW, TWINS), _WINDOW_MESSAGE,
    ),
    "composite_signal": (
        lambda basis: engine.composite_signal(basis, _BIG_WINDOW, TWINS, mode="mask"),
        _WINDOW_MESSAGE,
    ),
    "signal_sums": (lambda basis: engine.signal_sums(basis, _BIG_WINDOW, TWINS), _WINDOW_MESSAGE),
    "variance_decomposition": (
        lambda basis: correlation.variance_decomposition(basis, _BIG_WINDOW, TWINS),
        _WINDOW_MESSAGE,
    ),
    "signal_values": (
        lambda basis: engine.signal_values(7, 10**10, basis.primes, (0, 2)),
        f"position count 10000000000 exceeds the supported {MAX_WINDOW_END // 2}",
    ),
    "goldbach_count": (
        lambda basis: engine.goldbach_count(10**10),
        f"goldbach count supports even integers up to {MAX_WINDOW_END}",
    ),
    "structural_is_prime": (
        lambda basis: gearsieve.structural_is_prime(10**17 + 3),
        f"structural test supports n up to {MAX_PRIME_N}",
    ),
    "tau": (lambda basis: correlation.tau(TWINS, _BIG_P, 1), _TAU_MESSAGE),
    "tau_table": (lambda basis: correlation.tau_table(TWINS, _BIG_P), _TAU_MESSAGE),
    "tau_fourier": (lambda basis: fourier.tau_fourier(_BIG_P), _TAU_MESSAGE),
    "variance_stats": (lambda basis: fourier.variance_stats(_BIG_P), _TAU_MESSAGE),
    "universal_average": (
        lambda basis: correlation.universal_average(TWINS, _BIG_P), _TAU_MESSAGE,
    ),
    "torus_average": (
        lambda basis: engine.torus_average([_BIG_P], TWINS),
        f"residue ring {_BIG_P} too large to enumerate",
    ),
    "crt_average": (
        lambda basis: correlation.crt_average(TWINS, [_BIG_P]),
        f"period {_BIG_P} too large to enumerate",
    ),
    "two_prime_checks": (
        lambda basis: fourier.two_prime_checks(10**6 + 3, 10**6 + 33),
        f"product {(10**6 + 3) * (10**6 + 33)} too large",
    ),
    "weighted_exp_sum": (
        lambda basis: fourier.weighted_exp_sum(0.25, 10**10),
        f"weighted exponential sum supports L <= {MAX_WINDOW_END}",
    ),
    "weighted_ergodic_sum": (lambda basis: fourier.weighted_ergodic_sum(_BIG_M0[0]), _M0_MESSAGE),
    "fit_decay_exponent": (lambda basis: fourier.fit_decay_exponent(_BIG_M0), _M0_MESSAGE),
    "goldbach_oscillating_factor": (
        lambda basis: gearsieve.goldbach_oscillating_factor(10, 10**11),
        f"prime bound 100000000000 exceeds the supported {primes.MAX_PRIME_TABLE}",
    ),
    "run_table1": (
        lambda basis: harness.run_table1(harness.RunConfig(m0_list=_BIG_M0[:1])), _SWEEP_MESSAGE,
    ),
    "run_table2": (
        lambda basis: harness.run_table2(harness.RunConfig(m0_list=_BIG_M0[:1])), _SWEEP_MESSAGE,
    ),
    "run_table3": (lambda basis: harness.run_table3(harness.RunConfig(m0_list=_BIG_M0)), _M0_MESSAGE),
}
# public callables that test_huge_bounds_are_rejected_before_sieving probes
_PROBED_ABOVE = (
    "SieveBasis", "asymptotic_report", "density_product", "fano_theoretical",
    "is_admissible", "mean_field", "product_variance_constant",
)
# public functions with no argument that sizes their work: O(1) in it, or
# bounded by an input a probed function made (certify's trace) or by the
# data handed in (fit_power_law's points)
_SIZE_INDEPENDENT = (
    "canonical_seed", "certify", "first_candidate_above", "fit_power_law",
    "is_prime_candidate", "omega",
)


@pytest.mark.parametrize("name", sorted(_PUBLIC_PROBES))
def test_public_callables_reject_huge_arguments(name):
    call, message = _PUBLIC_PROBES[name]
    basis = engine.SieveBasis(31)
    began = time.perf_counter()
    with mock.patch.object(primes, "_rebuild", side_effect=AssertionError("sieved")):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(basis)
    assert time.perf_counter() - began < 1.0


def test_every_public_callable_is_probed_or_size_independent():
    # a new public function with no probe fails here; classes are records
    # (and InvariantError), whose constructors do no work that grows,
    # except SieveBasis, which sieves to its bound and is probed above
    unlisted = [
        name for name in gearsieve.__all__
        if callable(getattr(gearsieve, name))
        and not isinstance(getattr(gearsieve, name), type)
        and name not in (*_PUBLIC_PROBES, *_PROBED_ABOVE, *_SIZE_INDEPENDENT)
    ]
    assert unlisted == []
    listed = (*_PUBLIC_PROBES, *_PROBED_ABOVE, *_SIZE_INDEPENDENT)
    assert len(set(listed)) == len(listed) and set(listed) <= set(gearsieve.__all__)


def test_prime_table_growth_stops_at_its_bound(monkeypatch):
    # the table doubles its bound on growth, but never past MAX_PRIME_TABLE
    grown = []
    monkeypatch.setattr(primes, "_limit", primes.MAX_PRIME_TABLE // 2 + 1)
    monkeypatch.setattr(primes, "_rebuild", grown.append)
    primes.primes_upto(primes.MAX_PRIME_TABLE // 2 + 2)
    primes.primes_upto(primes.MAX_PRIME_TABLE)
    assert grown == [primes.MAX_PRIME_TABLE] * 2


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


def _reject_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


def test_moments_writes_non_finite_values_as_null(capsys):
    # one position, and 79 is prime: the variance is 0, so snr has no
    # finite value and fano none either
    assert main(["moments", "--m0", "9", "--anchor", "79", "--tuple", "0"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["snr"] is None
    assert payload["variance"] == 0.0


def test_json_files_write_non_finite_values_as_null(tmp_path):
    path = tmp_path / "out.json"
    harness.write_json(path, {"a": [math.inf, 1.5, (math.nan, 2)], "b": -math.inf})
    payload = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert payload == {"a": [None, 1.5, [None, 2]], "b": None}


@pytest.mark.parametrize("command", ["table1", "figures"])
def test_sweeps_reject_a_window_with_zero_mean_signal(tmp_path, capsys, command):
    # one position, and 79 is prime: Var/mean would divide by zero
    argv = [command, "--m0-list", "9", "--anchor", "79", "--tuple", "0", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == (
        "error: m0 9: the mean signal over the window [79, 81) is 0, so Var/mean is undefined"
    )
    assert list(tmp_path.iterdir()) == []


def test_figures_reject_a_zero_count_at_the_first_m0(tmp_path, capsys):
    # m0 = 7 counts no pair below in_range, so fig3's C would be inf and
    # every reference cell inf, although m0 = 9 counts 2
    argv = ["figures", "--m0-list", "7,9", "--anchor", "47", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "first m0 (7)" in err and "positive count" in err
    assert list(tmp_path.iterdir()) == []


def test_equidist_command(capsys):
    assert main(["equidist", "--m0", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m0,L,weighted_sum,theory,rel_error_pct"
    cells = lines[1].split(",")
    assert cells[0] == "30" and cells[1] == "900"
    assert abs(float(cells[2]) - 5279.37) < 0.01


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["equidist", "--m0", "1000"],
         "4114aff966ae1733c939de513140231b910ecdac731a0b240ffad0f0c7855a77"),
        (["equidist", "--m0", "1000", "--convention", "section4"],
         "b65e3d802665e9a453c5d28eb18159af7d78fa121850ec2a9145890fc5455f16"),
        (["moments", "--m0", "200"],
         "04901f6cb4f30775d414fdf6d690cb418b50be3385431fe295e43e89c1ab9a79"),
        (["moments", "--m0", "200", "--tuple", "0,2,6"],
         "73abc2e97976396a935224f0f29f214d09aa3a78b1a44c92b78ee23bb161197f"),
    ],
)
def test_report_stdout_is_unchanged(capsys, argv, sha256):
    # digests of the stdout written when equidist formatted its cells by
    # hand and moments assigned the requested m0 into its report
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["admissible", "0,2,6"],
         "25ed12d597620b2669ced2172ecfa88c330fc53961bae6eedd0f08b4209b538f"),
        (["admissible", "0,2,4"],
         "1c50119ee79d3d117e82a7708aa2202af649e60c92428b2096487cc8c88abc76"),
        (["admissible", "0"],
         "d06b1fa3e7d5810d735a4ed7f8b100f9600ade5855bd2c288144b909a77399e5"),
        (["admissible", "0,3"],
         "c8029fe4a7e98375240e18497603a6842fde44b2ae5b2da60b9969785a2b386d"),
        (["prime", "1000000007"],
         "5273264ca2913c41269ac40cccfe1fa470679f1bedf3c9de31f06f440bd93081"),
        (["prime", "999999999"],  # 3 * 333333333
         "63b94d4b0802c03a7d8b77e8d7fd3bd92575b07174a5e2f3bf522e33e5eff7a7"),
        (["prime", "1000000001"],  # 7 * 11 * 13 * 19 * 52579
         "eac51db01ff31cacdc314bb14eee287dd3332e1a6b1770a061f014dbd8efdd78"),
        (["prime", "9999399973"],  # 99991 * 100003
         "18708d074a0180b6d97f96c43b627829e79a167da0c0ba950d81f6270da7ee36"),
        (["seed", "37"],
         "0571beb97677b0070606c9ab8f47ecd96b32daa8339ff6c0f8451acc4dd831b2"),
        (["seed", "999999999989"],
         "ec476dbd034cfa484f11e2c19f2ebed332e9e5fe1e855e3f845c11524eda0873"),
        # 78,498 primes up to the span, more than one list chunk
        (["admissible", "0,2,6,999998"],
         "35b2efdea1c907e4c667943767030bf92ba5cb980b351b88d29a93219fadc5ff"),
        # taken when tau printed its header and each row with its own print
        (["tau", "--p", "5"],
         "19531c59731cd0cc90c293d9b6455e95e88e1bf173c8449410319451f399a585"),
        (["tau", "--p", "997", "--tuple", "0,2,6"],
         "d2299abc3e17eb594a28ea0e183594231832ef49a5d46228b091826f4d12c4f8"),
        (["tau", "--p", "1999", "--tuple", "0,4"],
         "0a92637a9175d23b086c3f854d70269a1fe8272aea5a400ab76eb4ba2d69cca1"),
    ],
)
def test_point_query_stdout_is_unchanged(capsys, argv, sha256):
    # a parsed-JSON check would miss a change of key order or indentation
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


def test_fit_prints_the_table3_fit_file(tmp_path, capsys):
    # one fit record for both; the fit's last digits come from np.polyfit,
    # so the two are compared with each other, not with a digest
    assert main(["fit"]) == 0
    printed = capsys.readouterr().out
    assert main(["table3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert printed == (tmp_path / "table3_fit.json").read_text()


def test_float_sum_commands_past_window_cap_exit_two(capsys):
    # m0 = 31623 puts m0^2 past MAX_WINDOW_END; both commands would build
    # float arrays of about m0^2/3 entries, so the cap is checked first
    assert 31623**2 > MAX_WINDOW_END
    unreachable = AssertionError("the window cap was not checked first")
    with mock.patch.object(fourier, "weighted_float_sum", side_effect=unreachable), \
            mock.patch.object(correlation, "_sigma_off_split_float", side_effect=unreachable):
        assert main(["equidist", "--m0", "31623"]) == 2
        assert main(["moments", "--m0", "31623", "--mu-source", "expected"]) == 2
    err = capsys.readouterr().err
    assert err.count(str(MAX_WINDOW_END)) == 2


def test_moments_without_split_past_exact_limit_exits_two_before_counting(capsys):
    # (0, 6) has no blocking prime, so its split runs at stride 1 on any
    # window: it used to be refused past the exact limit (m0 = 20001 exited
    # 2), and now the window cap is its domain edge, checked before any
    # striding
    assert 31623**2 > MAX_WINDOW_END
    unreachable = AssertionError("the window was counted before the cap check")
    with mock.patch.object(correlation, "composite_signal", side_effect=unreachable), \
            mock.patch.object(correlation, "certify", side_effect=unreachable):
        assert main(["moments", "--m0", "31623", "--tuple", "0,6"]) == 2
    assert str(MAX_WINDOW_END) in capsys.readouterr().err


def test_table2_runs_a_tuple_without_blocking_prime(tmp_path, capsys):
    # (0, 6) past the exact limit: the certified counts are the oracle's
    # over the same windows, counted from the first candidate above m0
    assert main(["table2", "--tuple", "0,6", "--m0-list", "500,1000", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "table2.csv").read_text().splitlines()[1:]
    sexy = Constellation("sexy", (0, 6))
    for row, m0 in zip(rows, (500, 1000), strict=True):
        cells = row.split(",")
        assert int(cells[0]) == m0
        window = engine.Window(engine.first_candidate_above(m0), m0 * m0)
        assert int(cells[2]) == engine.classical_oracle_count(window, sexy)


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


@pytest.mark.parametrize("command", ["table1", "table2", "table3", "figures"])
def test_sweep_flag_defaults_are_the_dataclass_defaults(command):
    # a sweep given no flags runs RunConfig's and Conventions' defaults
    args = cli.build_parser().parse_args([command])
    assert cli._config_from(args, (30,)) == harness.RunConfig(m0_list=(30,))


def test_query_flag_defaults_are_the_library_defaults():
    parse = cli.build_parser().parse_args
    run = harness.RunConfig(m0_list=(30,))
    for argv in (["scan", "--m0", "101"], ["moments", "--m0", "101"], ["tau", "--p", "5"]):
        assert cli._parse_offsets(parse(argv).tuple) == run.constellation, argv
    for argv in (["scan", "--m0", "101"], ["moments", "--m0", "101"]):
        assert parse(argv).anchor == run.anchor, argv
    for argv, function in ((["equidist", "--m0", "11"], fourier.weighted_ergodic_sum),
                           (["fit"], fourier.fit_decay_exponent)):
        default = inspect.signature(function).parameters["convention"].default
        assert parse(argv).convention == run.conventions.h_convention == default, argv
    mu_default = inspect.signature(correlation.variance_decomposition).parameters["mu_source"]
    assert parse(["moments", "--m0", "101"]).mu_source == mu_default.default


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


def test_figures_write_every_format(tmp_path, capsys):
    # --format reaches the figure series as it does the tables; the CSVs
    # keep their digests
    assert main(["figures", "--out", str(tmp_path), "--format", "csv,json"]) == 0
    printed = capsys.readouterr().out.split()
    names = [f"{stem}.{ext}" for stem in ("fig1_fano", "fig2_counts", "fig3_cv")
             for ext in ("csv", "json")]
    assert [Path(path).name for path in printed] == names
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)
    for name, sha256 in _FIGURE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha256
    row = json.loads((tmp_path / "fig2_counts.json").read_text())[2]
    assert list(row) == ["m0", "count_observed", "count_theory"]
    assert (row["m0"], row["count_observed"]) == (100, 197)


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
    assert main(["tau", "--p", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["table1", "table2", "table3", "figures", "fit"])
@pytest.mark.parametrize("m0_list", ["", " "])
def test_blank_m0_list_exits_two(tmp_path, capsys, command, m0_list):
    # an empty list is refused like a blank one, not read as the default ladder
    out = [] if command == "fit" else ["--out", str(tmp_path)]
    assert main([command, "--m0-list", m0_list, *out]) == 2
    assert capsys.readouterr().err.strip() == (
        f"error: m0 list must be comma-separated integers, got {m0_list!r}"
    )
    assert not any(tmp_path.iterdir())


def test_io_failure_exit_code(capsys):
    rc = main(["table1", "--m0-list", "30", "--out", "/proc/missing/dir"])
    assert rc == 3
    capsys.readouterr()


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["table1", "--bogus"])
    assert info.value.code == 2
    capsys.readouterr()
