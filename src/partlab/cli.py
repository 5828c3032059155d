"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 a PartlabError
(bad input, an exhausted budget); a bug escapes with its traceback.

Large counts are printed as decimal strings in JSON output so nothing
downstream has to parse big integers. A record's JSON keys are its own
fields, through _asdict(), and a CSV table projects its dict rows on one
header.

This module is the dispatcher: the exit-code contract, the helpers the
subcommands share, and a parser that names each subcommand with its help line
only. Each subcommand's arguments and handler live in its own module,
`_cmd_<name>.py`, which its parser imports the first time it parses; printing
the subcommand's help is parsing too. So a call compiles and builds the one
subcommand it runs, and `plab --help` loads none. Each handler imports the
layers it runs inside itself, and the parser's choices are literal names, so
`plab count` loads `_cmd_count` and the engines but never the rewrite, DAG,
code or verify layers. The tests check the literals against the package's own
lists. json loads only when a command prints JSON, and no subcommand loads
dataclasses.

Every argument has one spelling, a positional or a single flag, so argparse
alone checks how it is given, and help reads the same on Python 3.10 to 3.13,
whose argparse differs only on an option with several flags.

`plab ...`, `python -m partlab ...` and `python -m partlab.cli ...` run the
same command line.
"""

from __future__ import annotations

import argparse
import signal
import sys
from importlib import import_module

from . import budget
from .errors import InvalidArgument, PartlabError

# str(kind) for kind in EngineKind, and rewrite.BUILTIN_NAMES
ENGINE_NAMES = ("euler", "integral", "sigma", "minpart", "bounded", "maxpart")
SYSTEM_NAMES = ("minpart", "bounded", "maxpart")

# subcommand -> its help line; the module _cmd_<subcommand> holds the rest
_COMMANDS = {
    "count": "number of partitions of n",
    "coeffs": "coefficient series, exact",
    "verify": "run a self-check suite",
    "dag": "reduction graph of a built-in system",
    "involution": "sign-cancelling pairing at valuation j",
    "codes": "path-code utilities",
    "bench": "work counters and wall time per engine",
}


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


class _UsageError(Exception):
    """A misuse argparse cannot see; main prints it and exits 2."""


def _check_budget_setting() -> None:
    try:
        budget.env_budget()
    except InvalidArgument as exc:
        raise _UsageError(exc) from None


def _emit_json(obj) -> None:
    import json

    print(json.dumps(obj, indent=2))


def _emit_csv(header: tuple[str, ...], rows: list[dict]) -> None:
    """The header line, then each row's values under it; rows are dicts."""
    print(",".join(header))
    for row in rows:
        print(",".join(str(row[key]) for key in header))


class _Command(argparse.ArgumentParser):
    """A subcommand's parser, empty until its first parse, which imports its
    module and lets it add the arguments and the handler. argparse 3.10 to
    3.13 hands a subcommand's strings to its parser's parse_known_args."""

    module = None  # the subcommand's module, until it is loaded

    def parse_known_args(self, args=None, namespace=None):
        if self.module is not None:
            import_module(self.module, __package__).arguments(self)
            self.module = None
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plab",
        description="Exact partition counting, coefficient series, rewrite-"
        "system reductions, and the path-code combinatorics behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    for name, line in _COMMANDS.items():
        command = sub.add_parser(name, help=line)
        command.module = f"._cmd_{name}"
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with an int: 0 for help, 2 for misuse
        return exc.code
    try:
        _check_budget_setting()
        return args.func(args)
    except (_UsageError, PartlabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 3


def console_main() -> None:
    # plab ... | head: die of SIGPIPE like any filter, not with a traceback and exit 1
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    # run as partlab.cli, the module whose helpers and _UsageError the
    # subcommands import, not as this __main__ copy of it
    from partlab.cli import console_main

    console_main()
