"""Command-line front end.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 I/O
failure, 4 internal invariant violation. All behaviour is controlled by
flags; there are no environment variables or config files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from collections.abc import Callable

import numpy as np

from . import _lazy_attributes
from .constellations import (
    COUSINS,
    SEXY,
    TWINS,
    Constellation,
    is_admissible,
)
from .diophantine import canonical_seed, is_prime_candidate, structural_is_prime
from .domain import H_CONVENTIONS, MAX_FOURIER_PMAX, MAX_PRIME_N, MU_SOURCES
from .errors import InvariantError
from .harness import (
    DEFAULT_TABLE1_M0,
    DEFAULT_TABLE2_M0,
    DEFAULT_TABLE3_M0,
    MEAN_SOURCES,
    SURVIVOR_RANGES,
    TABLE3_HEADER,
    Conventions,
    RunConfig,
    fit_record,
    json_text,
    run_figures,
    sweep_basis,
    table3_record,
    write_csv,
    write_table1,
    write_table2,
    write_table3,
)
from .primes import odd_primes_upto

# The engine, correlation and Fourier layers load on first use, so a
# command loads only the layers it runs (README, "CLI start-up"); the top
# of this module imports light modules only. Handlers read each name from
# the module (_lazy.certify) at call time, so a rebound name is the one
# that runs.
__getattr__, __dir__ = _lazy_attributes(__name__, {
    ".correlation": ("tau_table", "variance_decomposition"),
    ".engine": ("Window", "certify", "composite_signal", "goldbach_count"),
    ".fourier": ("fit_decay_exponent", "tau_fourier", "weighted_ergodic_sum"),
})
_lazy = sys.modules[__name__]

_NAMED_TUPLES = {(0, 2): TWINS, (0, 4): COUSINS, (0, 6): SEXY}
# Entries per write of a long list (scan's survivor file, the JSON lists
# of goldbach and admissible), so the text of the whole list is never held.
_LIST_CHUNK = 1 << 16
# Stands in for the streamed list in json_text's output. No payload string
# holds a NUL, while "[]" could also be an empty list beside it.
_LIST_SLOT = "\0"
# The flags that fill a RunConfig default to its fields' defaults, so each
# default is stated once, in the dataclasses.
_RUN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}
_CONVENTIONS = Conventions()
_TUPLE_DEFAULT = ",".join(map(str, _RUN_DEFAULTS["constellation"].offsets))


def _parse_offsets(text: str) -> Constellation:
    try:
        offsets = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"tuple must be comma-separated integers, got {text!r}")
    named = _NAMED_TUPLES.get(offsets)
    if named is not None:
        return named
    name = "tuple_" + "_".join(str(h) for h in offsets)
    return Constellation(name, offsets)


def _parse_m0_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"m0 list must be comma-separated integers, got {text!r}")


def _parse_formats(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(","))


def _config_from(args: argparse.Namespace, default_m0: tuple[int, ...]) -> RunConfig:
    conventions = Conventions(
        table1_mean_source=getattr(args, "mean_source", _CONVENTIONS.table1_mean_source),
        survivor_range=getattr(args, "survivor_range", _CONVENTIONS.survivor_range),
        h_convention=getattr(args, "convention", _CONVENTIONS.h_convention),
    )
    m0_list = default_m0 if args.m0_list is None else _parse_m0_list(args.m0_list)
    return RunConfig(
        m0_list=m0_list,
        constellation=_parse_offsets(getattr(args, "tuple", _TUPLE_DEFAULT)),
        anchor=getattr(args, "anchor", _RUN_DEFAULTS["anchor"]),
        conventions=conventions,
        workers=args.workers,
        output_dir=args.out,
        formats=_parse_formats(args.format),
    )


def _print_json(payload) -> None:
    print(json_text(payload))


def _print_json_list(payload: dict, key: str) -> None:
    """Print payload as _print_json does, writing payload[key] a chunk at a time.

    payload[key] holds ints, or int tuples of one length, in a sequence or
    an int array. An array becomes Python ints one chunk at a time, so
    neither a Python int per entry nor the whole text is ever held; the
    bytes are json_text's.
    """
    rows = payload[key]
    head, tail = json_text({**payload, key: _LIST_SLOT}).split(json.dumps(_LIST_SLOT))
    if not len(rows):
        sys.stdout.write(head + "[]" + tail + "\n")
        return
    key_line = head.rsplit("\n", 1)[-1]
    indent = "\n" + " " * (len(key_line) - len(key_line.lstrip(" ")))
    pad = indent + "  "
    text = str
    if isinstance(rows[0], tuple):
        text = ("[" + ",".join([pad + "  %d"] * len(rows[0])) + pad + "]").__mod__
    sys.stdout.write(head + "[")
    for lo in range(0, len(rows), _LIST_CHUNK):
        chunk = rows[lo : lo + _LIST_CHUNK]
        if isinstance(chunk, np.ndarray):
            chunk = chunk.tolist()
        sys.stdout.write(("," if lo else "") + pad + ("," + pad).join(map(text, chunk)))
    sys.stdout.write(indent + "]" + tail + "\n")


def _cmd_seed(args: argparse.Namespace) -> int:
    seed = canonical_seed(args.n)
    _print_json(
        {
            "n": seed.n,
            "n0": seed.n0,
            "m0": seed.m0,
            "candidate": is_prime_candidate(seed),
        }
    )
    return 0


def _cmd_prime(args: argparse.Namespace) -> int:
    _print_json({"n": args.n, "prime": structural_is_prime(args.n)})
    return 0


def _cmd_admissible(args: argparse.Namespace) -> int:
    report = is_admissible(_parse_offsets(args.offsets))
    # The report's fields in order; json writes each tuple as a list.
    _print_json_list(
        {
            "constellation": {
                "name": report.constellation.name,
                "offsets": report.constellation.offsets,
            },
            "admissible": report.admissible,
            "per_prime": report.per_prime,
            "blocking": report.blocking,
        },
        "per_prime",
    )
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    basis = sweep_basis(args.m0)
    window = _lazy.Window.for_capacity(args.m0, args.anchor)
    constellation = _parse_offsets(args.tuple)
    trace = _lazy.composite_signal(
        basis, window, constellation, segments=args.segments, mode="mask"
    )
    result = _lazy.certify(trace, survivors=args.survivors is not None)
    if args.survivors is not None:
        with open(args.survivors, "w", encoding="utf-8") as fh:
            for lo in range(0, result.count, _LIST_CHUNK):
                chunk = result.survivors[lo : lo + _LIST_CHUNK]
                fh.write("\n".join(map(str, chunk.tolist())) + "\n")
    _print_json(
        {
            "m0": args.m0,
            "anchor": args.anchor,
            "tuple": list(constellation.offsets),
            "window_end": window.end,
            "positions": window.positions,
            "in_range": trace.in_range,
            "count": result.count,
        }
    )
    return 0


def _cmd_tau(args: argparse.Namespace) -> int:
    rows = _lazy.tau_table(_parse_offsets(args.tuple), args.p)
    # One write of the whole table: at p = 997, a print per row into a
    # file took 1.6-1.7 ms against 0.42-0.47 ms.
    lines = "".join(
        f"{row.d},{row.tau.numerator},{row.tau.denominator},{row.case_label}\n" for row in rows
    )
    sys.stdout.write("d,tau_num,tau_den,case\n" + lines)
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    basis = sweep_basis(args.m0)
    window = _lazy.Window.for_capacity(args.m0, args.anchor)
    report = _lazy.variance_decomposition(
        basis, window, _parse_offsets(args.tuple), mu_source=args.mu_source
    )
    _print_json({**dataclasses.asdict(report), "m0": args.m0})
    return 0


def _cmd_equidist(args: argparse.Namespace) -> int:
    report = _lazy.weighted_ergodic_sum(args.m0, convention=args.convention)
    write_csv(sys.stdout, TABLE3_HEADER, [table3_record(report)])
    return 0


def _cmd_fourier(args: argparse.Namespace) -> int:
    if not 5 <= args.pmax <= MAX_FOURIER_PMAX:
        raise ValueError(f"pmax must be in [5, {MAX_FOURIER_PMAX}], got {args.pmax}")
    rows = (
        {"p": row.p, "k": row.k, "closed": row.coeff_closed,
         "dft_re": row.coeff_dft.real, "dft_im": row.coeff_dft.imag}
        for p in odd_primes_upto(args.pmax) if p >= 5
        for row in _lazy.tau_fourier(int(p))
    )
    write_csv(sys.stdout, ("p", "k", "closed", "dft_re", "dft_im"), rows)
    return 0


def _cmd_goldbach(args: argparse.Namespace) -> int:
    result = _lazy.goldbach_count(args.even, survivors=args.survivors)
    payload = {"even": args.even, "count": result.count}
    if args.survivors:
        _print_json_list({**payload, "survivors": result.survivors}, "survivors")
    else:
        _print_json(payload)
    return 0


def _print_paths(paths) -> int:
    for path in paths:
        print(path)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    cfg = _config_from(args, DEFAULT_TABLE1_M0)
    return _print_paths(write_table1(cfg, diagnostic=args.diagnostic))


def _cmd_table2(args: argparse.Namespace) -> int:
    return _print_paths(write_table2(_config_from(args, DEFAULT_TABLE2_M0)))


def _cmd_table3(args: argparse.Namespace) -> int:
    return _print_paths(write_table3(_config_from(args, DEFAULT_TABLE3_M0)))


def _cmd_figures(args: argparse.Namespace) -> int:
    return _print_paths(run_figures(_config_from(args, DEFAULT_TABLE2_M0)))


def _cmd_fit(args: argparse.Namespace) -> int:
    m0_list = DEFAULT_TABLE3_M0 if args.m0_list is None else _parse_m0_list(args.m0_list)
    # Checked before any ergodic sum runs.
    if len(set(m0_list)) < 3:
        raise ValueError("fit needs at least three distinct m0 values")
    fit = _lazy.fit_decay_exponent(m0_list, convention=args.convention)
    _print_json(fit_record(fit, args.convention))
    return 0


def _add_shared_flags(sub: argparse.ArgumentParser, *flags: str) -> None:
    """Add the named flags that several commands take, each with its one
    default and help text."""
    specs = {
        "--tuple": dict(default=_TUPLE_DEFAULT,
                        help="offset pattern, comma-separated (default: %(default)s)"),
        "--anchor": dict(type=int, default=_RUN_DEFAULTS["anchor"],
                         help="window anchor, >= 5 and coprime to 6 (default: %(default)s)"),
        "--convention": dict(choices=H_CONVENTIONS, default=_CONVENTIONS.h_convention,
                             help="weight-table indexing (default: %(default)s)"),
    }
    for flag in flags:
        sub.add_argument(flag, **specs[flag])


def _add_sweep_flags(sub: argparse.ArgumentParser, *flags: str) -> None:
    sub.add_argument("--m0-list", default=None,
                     help="comma-separated m0 values (default: built-in ladder)")
    _add_shared_flags(sub, *flags)
    sub.add_argument("--workers", type=int, default=_RUN_DEFAULTS["workers"],
                     help="parallel jobs across m0 values (default: %(default)s)")
    sub.add_argument("--out", default=_RUN_DEFAULTS["output_dir"],
                     help="output directory (default: current directory)")
    sub.add_argument("--format", default=",".join(_RUN_DEFAULTS["formats"]),
                     help="output formats, comma-separated csv,json (default: %(default)s)")


# Each command's add_parser keywords and the function that adds its
# arguments, in the order the full parser lists them.
_COMMANDS: dict[str, tuple[dict, Callable[[argparse.ArgumentParser], None]]] = {}


def _command(name: str, **parser_kwargs):
    """Register the decorated function as the arguments of command name."""
    def register(add_arguments):
        _COMMANDS[name] = (parser_kwargs, add_arguments)
        return add_arguments
    return register


@_command("seed", help="canonical two-three decomposition of n")
def _seed_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)


@_command("prime", help="structural primality of n")
def _prime_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int, help=f"integer in (3, {MAX_PRIME_N}]")


@_command("admissible", help="admissibility report for a pattern")
def _admissible_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("offsets", help="offset pattern, comma-separated, e.g. 0,2,6")


@_command("scan", help="certified constellation count over a window")
def _scan_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m0", type=int, required=True,
                   help="basis bound; window is [anchor, m0^2)")
    _add_shared_flags(p, "--anchor", "--tuple")
    p.add_argument("--survivors", default=None, metavar="PATH",
                   help="also write surviving start values, one per line")
    p.add_argument("--segments", type=int, default=1,
                   help="partition count, >= 1; accepted for compatibility, the "
                        "striding pass always runs fixed cache-sized blocks "
                        "(default: 1)")


@_command("tau", help="per-distance survival table for one prime")
def _tau_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, required=True)
    _add_shared_flags(p, "--tuple")


@_command(
    "moments",
    help="count moments and derived ratios",
    description="Count moments and derived ratios, as JSON. A ratio with "
                "no finite value (snr or cv of a window with zero "
                "variance, for instance) is written as null.",
)
def _moments_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m0", type=int, required=True)
    _add_shared_flags(p, "--tuple", "--anchor")
    p.add_argument("--mu-source", choices=MU_SOURCES, default=MU_SOURCES[0],
                   help="mean source for the report (default: %(default)s)")


@_command("equidist", help="weighted equidistribution sum at one m0")
def _equidist_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m0", type=int, required=True)
    _add_shared_flags(p, "--convention")


@_command("fourier", help="closed-form vs DFT coefficient table")
def _fourier_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pmax", type=int, required=True,
                   help=f"largest prime, 5 to {MAX_FOURIER_PMAX}")


@_command("goldbach", help="certified two-prime decompositions")
def _goldbach_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--even", type=int, required=True)
    p.add_argument("--survivors", action="store_true",
                   help="include the surviving first members")


@_command("table1", help="signal statistics sweep")
def _table1_arguments(p: argparse.ArgumentParser) -> None:
    _add_sweep_flags(p, "--tuple", "--anchor")
    p.add_argument("--mean-source", choices=MEAN_SOURCES,
                   default=_CONVENTIONS.table1_mean_source,
                   help="signal variant for mean/var (default: %(default)s)")
    p.add_argument("--survivor-range", choices=SURVIVOR_RANGES,
                   default=_CONVENTIONS.survivor_range,
                   help="twin-count convention (default: %(default)s)")
    p.add_argument("--diagnostic", action="store_true",
                   help="emit both twin-count conventions side by side")


@_command("table2", help="variance decomposition sweep")
def _table2_arguments(p: argparse.ArgumentParser) -> None:
    _add_sweep_flags(p, "--tuple", "--anchor")


@_command("table3", help="equidistribution sweep with decay fit")
def _table3_arguments(p: argparse.ArgumentParser) -> None:
    _add_sweep_flags(p, "--convention")


@_command("figures", help="figure data series, one file per series and format")
def _figures_arguments(p: argparse.ArgumentParser) -> None:
    _add_sweep_flags(p, "--tuple", "--anchor")


@_command("fit", help="decay-exponent fit over an m0 ladder")
def _fit_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m0-list", default=None,
                   help="comma-separated m0 values (default: built-in ladder)")
    _add_shared_flags(p, "--convention")


def _subcommands() -> tuple[argparse.ArgumentParser, argparse._SubParsersAction]:
    """The top-level parser, with no command added to it yet."""
    parser = argparse.ArgumentParser(
        prog="gearsieve",
        description="Deterministic constellation sieve and its statistics",
    )
    return parser, parser.add_subparsers(dest="command", required=True)


def _add_command(sub: argparse._SubParsersAction, name: str) -> argparse.ArgumentParser:
    parser_kwargs, add_arguments = _COMMANDS[name]
    parser = sub.add_parser(name, **parser_kwargs)
    add_arguments(parser)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser, every command nested in it.

    main parses a valid command line with its command's parser alone, and
    builds this one only for the top-level help or a command line it must
    refuse.
    """
    parser, sub = _subcommands()
    for name in _COMMANDS:
        _add_command(sub, name)
    return parser


@functools.cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """Command name's parser, built as build_parser nests it, once per process.

    Its prog, help, usage and errors are the nested parser's.
    """
    return _add_command(_subcommands()[1], name)


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed by its command's parser alone.

    With no command, an unknown one, a top-level flag or an argument the
    command does not take, the full parser parses argv instead and prints
    the help or the error.
    """
    if argv and argv[0] in _COMMANDS:
        namespace = argparse.Namespace(command=argv[0])
        args, unrecognized = command_parser(argv[0]).parse_known_args(argv[1:], namespace)
        if not unrecognized:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    # Looked up at call time, so a rebound handler is the one that runs.
    handler = globals()[f"_cmd_{args.command}"]
    try:
        return handler(args)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
