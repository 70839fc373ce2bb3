"""Command-line interface.

Four subcommands cover the workflow:

* ``solve``: one scenario, contract menus plus traces and a summary.
* ``sweep``: one CSV row per swept load or height value.
* ``oracle-check``: randomized solver-vs-exhaustive-search audit.
* ``dump-config``: echo the canonical form of a scenario file.

``--config`` takes a filesystem path, or the bare name of a shipped
preset (see ``spectrum_contracts/presets/``).  Exit codes: 0 success,
1 validation error, 2 oracle mismatch, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .config import ConfigError, canonical_dump, load_config, loads_config
from .runner import (
    DEFAULT_ORACLE_INSTANCES,
    DEFAULT_ORACLE_SEED,
    run_oracle_check,
    run_solve,
    run_sweep,
)
from .solver import DEFAULT_BRUTE_FORCE_CAP

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISMATCH = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; this tool reserves 2
    for oracle mismatches, so usage problems are rethrown and mapped
    to the validation exit code."""

    def error(self, message):
        raise _UsageError(message)


def _resolve_config(name: str):
    """A filesystem path, or the name of a preset shipped in the package."""
    path = Path(name)
    if path.exists():
        return load_config(path)
    stem = name if name.endswith(".yaml") else f"{name}.yaml"
    candidate = resources.files("spectrum_contracts").joinpath("presets", stem)
    if "/" not in name and "\\" not in name and candidate.is_file():
        return loads_config(candidate.read_text(encoding="utf-8"))
    raise FileNotFoundError(f"no such config file or preset: {name}")


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="scenario file or preset name")
    parser.add_argument("--out", default=None, help="output directory (default: from config)")
    parser.add_argument(
        "--no-kcap",
        action="store_true",
        help="disable the per-type saturation cap in the solver",
    )
    parser.add_argument(
        "--threads",
        type=_thread_count,
        default=1,
        help="worker threads for sweep points, at least 1 (default 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectrum-contracts",
        description="Optimal spectrum contracts between a base station and UAV operators.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve one scenario")
    _add_run_flags(solve)

    sweep = commands.add_parser("sweep", help="solve per sweep value")
    _add_run_flags(sweep)

    oracle = commands.add_parser(
        "oracle-check", help="audit the solver against exhaustive search"
    )
    oracle.add_argument(
        "--instances",
        type=int,
        default=DEFAULT_ORACLE_INSTANCES,
        help=f"random instances to check (default {DEFAULT_ORACLE_INSTANCES})",
    )
    oracle.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_ORACLE_SEED,
        help=f"base seed; instance i uses seed+i (default {DEFAULT_ORACLE_SEED})",
    )
    oracle.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_BRUTE_FORCE_CAP,
        help="refuse instances whose search space exceeds this many assignments",
    )
    oracle.add_argument(
        "--corrupt-tiebreak",
        action="store_true",
        help="negative control: sabotage the exhaustive side's tie rule",
    )
    oracle.add_argument("--out", default=None, help="also write oracle_report.csv here")

    dump = commands.add_parser("dump-config", help="echo the canonical scenario form")
    dump.add_argument("--config", required=True, help="scenario file or preset name")
    dump.add_argument("--out", default=None, help="write canonical_config.yaml here instead")

    return parser


def _dispatch(args) -> int:
    if args.command == "solve":
        config = _resolve_config(args.config)
        report = run_solve(
            config,
            out_dir=args.out,
            threads=args.threads,
            use_k_cap=False if args.no_kcap else None,
        )
        for line in report.lines:
            print(line)
        return EXIT_OK
    if args.command == "sweep":
        config = _resolve_config(args.config)
        report = run_sweep(
            config,
            out_dir=args.out,
            threads=args.threads,
            use_k_cap=False if args.no_kcap else None,
        )
        for line in report.lines:
            print(line)
        return EXIT_OK
    if args.command == "oracle-check":
        report = run_oracle_check(
            instances=args.instances,
            seed=args.seed,
            cap=args.cap,
            corrupt_tiebreak=args.corrupt_tiebreak,
            out_dir=args.out,
        )
        for line in report.lines:
            print(line)
        return EXIT_OK if report.passed else EXIT_MISMATCH
    if args.command == "dump-config":
        config = _resolve_config(args.config)
        text = canonical_dump(config)
        if args.out is None:
            sys.stdout.write(text)
        else:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "canonical_config.yaml").write_text(text, encoding="utf-8")
            print(f"wrote {out / 'canonical_config.yaml'}")
        return EXIT_OK
    raise AssertionError(f"unreachable command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
