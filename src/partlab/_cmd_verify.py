"""plab verify: a self-check suite, or all of them, at the default bounds or
at one size bound."""

import sys

from .cli import _emit_json, _positive

# sorted(verify.SUITES)
SUITE_NAMES = ("claim", "engines", "involution", "lemmas", "rewrite")

# verify --upto sets every VerifyConfig field, each clamped at its cap where
# run gives one. The oracle enumerates every partition of each n, so its cost
# grows exponentially: the sweep to 45 takes seconds, the sweep to 80 many
# minutes.
VERIFY_ORACLE_CAP = 45
VERIFY_DAG_CAP = 60


def arguments(p) -> None:
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=list(SUITE_NAMES) + ["all"],
    )
    p.add_argument(
        "--upto",
        type=_positive,
        default=None,
        help="override the size-indexed bounds (length-indexed ones keep "
        "their defaults)",
    )
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.set_defaults(func=run)


def run(args) -> int:
    from . import verify as verify_mod

    config = None
    if args.upto is not None:
        from .oracle import ORACLE_CAP

        defaults = verify_mod.VerifyConfig()
        caps = {
            "oracle_limit": VERIFY_ORACLE_CAP,
            "dag_limit": VERIFY_DAG_CAP,
            # B_j is listed from the oracle's strict partitions of j
            "involution_limit": ORACLE_CAP,
        }
        bounds = (min(args.upto, caps.get(f, args.upto)) for f in defaults._fields)
        config = verify_mod.VerifyConfig(*bounds)
        if any(value > default for value, default in zip(config, defaults)):
            print(
                "warning: bound raised above its default; this may take a while",
                file=sys.stderr,
            )
    report = verify_mod.run_verify(args.suite, config)
    if args.format == "json":
        _emit_json(
            {
                "suite": args.suite,
                "ok": report.ok,
                "checks": [c._asdict() for c in report.checks],
            }
        )
    else:
        for line in report.lines():
            print(line)
    return 0 if report.ok else 1
