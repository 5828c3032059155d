"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 domain or
computation error (bad input ranges, exhausted budgets, and the like).

Large counts are printed as decimal strings in JSON output so nothing
downstream has to parse big integers.

Each subcommand imports the layers it runs inside its handler, and the
parser's choices are literal names, so `plab count` never loads the rewrite,
DAG, code or verify layers. The tests check the literals against the
package's own lists. json loads only when a command prints JSON, and no
subcommand loads dataclasses.

`plab ...`, `python -m partlab ...` and `python -m partlab.cli ...` run the
same command line.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time

from . import budget
from .errors import PartlabError

# str(kind) for kind in EngineKind, rewrite.BUILTIN_NAMES and sorted(verify.SUITES)
ENGINE_NAMES = ("euler", "integral", "sigma", "minpart", "bounded", "maxpart")
SYSTEM_NAMES = ("minpart", "bounded", "maxpart")
SUITE_NAMES = ("claim", "engines", "involution", "lemmas", "rewrite")


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


def _once(args, name: str, what: str, flag: str):
    """The value given positionally as `name` or as flag (dest name_opt)."""
    positional, flagged = getattr(args, name), getattr(args, f"{name}_opt")
    if (positional is None) == (flagged is None):
        raise _UsageError(f"give the {what} exactly once, positionally or as {flag}")
    return flagged if positional is None else positional


def _check_budget_setting() -> None:
    try:
        budget.env_budget()
    except ValueError as exc:
        raise _UsageError(exc) from None


def _emit_json(obj) -> None:
    import json

    print(json.dumps(obj, indent=2))


def _emit_csv(header: list[str], rows: list[list]) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(str(cell) for cell in row))


# ---------------------------------------------------------------- count

COUNT_METHODS = (
    ENGINE_NAMES + ("all", "oracle") + tuple(f"rewrite:{name}" for name in SYSTEM_NAMES)
)


def _cmd_count(args) -> int:
    method = args.method
    if method == "oracle":
        from .oracle import p_oracle

        results = [("oracle", p_oracle(args.n))]
    elif method.startswith("rewrite:"):
        from .rewrite import Primary, builtin_system, eval_atom

        system = builtin_system(method.removeprefix("rewrite:"))
        results = [(method, eval_atom(system, Primary(args.n)))]
    else:
        from .engines import make_engine

        names = ENGINE_NAMES if method == "all" else (method,)
        results = [(name, make_engine(name).p(args.n)) for name in names]
    if args.format == "json":
        _emit_json(
            {
                "n": args.n,
                "counts": {name: str(value) for name, value in results},
            }
        )
    elif len(results) == 1:
        print(results[0][1])
    else:
        for name, value in results:
            print(f"{name} {value}")
    return 0


# ---------------------------------------------------------------- coeffs

# series kind -> the coefficients function that computes it
_SERIES_KINDS = {
    "e": "euler_seq",
    "f": "integrated_f",
    "c-product": "c_from_product",
    "c-recurrence": "c_from_recurrence",
    "e-recurrence": "e_from_recurrence",
}
_DAG_KINDS = {"dag-minpart": "minpart", "dag-maxpart": "maxpart"}
COEFF_KINDS = tuple(_SERIES_KINDS) + tuple(_DAG_KINDS)


def _cmd_coeffs(args) -> int:
    upto = _once(args, "upto", "bound", "--upto")
    if args.kind in _SERIES_KINDS:
        from . import coefficients

        seq = getattr(coefficients, _SERIES_KINDS[args.kind])(upto)
        indexed = list(enumerate(seq.values))
        constant = None
    else:
        from .dag import build_dag, extract_from_dag
        from .rewrite import builtin_system

        system = builtin_system(_DAG_KINDS[args.kind])
        extracted = extract_from_dag(build_dag(system, upto))
        indexed = [(j, extracted.coeffs[j]) for j in range(1, upto + 1)]
        constant = extracted.constant
    if args.format == "csv":
        _emit_csv(["index", "value"], [[i, v] for i, v in indexed])
    elif args.format == "plain":
        if constant is not None:
            print(f"constant {constant}")
        for i, v in indexed:
            print(f"{i} {v}")
    else:
        payload = {"kind": args.kind, "upto": upto, "values": {str(i): v for i, v in indexed}}
        if constant is not None:
            payload["constant"] = constant
        _emit_json(payload)
    return 0


# ---------------------------------------------------------------- verify

# verify --upto sets these size-indexed VerifyConfig fields, each clamped at
# its cap where one is given. The oracle enumerates every partition of each
# n, so its cost grows exponentially: the sweep to 45 takes seconds, the
# sweep to 80 many minutes.
VERIFY_ORACLE_CAP = 45
VERIFY_DAG_CAP = 60


def _cmd_verify(args) -> int:
    from . import verify as verify_mod
    from .oracle import ORACLE_CAP  # loaded by verify already

    config = None
    if args.upto is not None:
        defaults = verify_mod.VerifyConfig()
        caps = {
            "oracle_limit": VERIFY_ORACLE_CAP,
            "engine_limit": None,
            "series_limit": None,
            "dag_limit": VERIFY_DAG_CAP,
            # B_j is listed from the oracle's strict partitions of j
            "involution_limit": ORACLE_CAP,
            "region_bound": None,
        }
        bounds = {
            field: args.upto if cap is None else min(args.upto, cap)
            for field, cap in caps.items()
        }
        config = defaults._replace(**bounds)
        if any(value > getattr(defaults, field) for field, value in bounds.items()):
            print(
                "warning: bound raised above its default; this may take a while",
                file=sys.stderr,
            )
    report = verify_mod.run(args.suite, config)
    if args.format == "json":
        _emit_json(
            {
                "suite": args.suite,
                "ok": report.ok,
                "checks": [
                    {
                        "suite": c.suite,
                        "name": c.name,
                        "passed": c.passed,
                        "detail": c.detail,
                    }
                    for c in report.checks
                ],
            }
        )
    else:
        for line in report.lines():
            print(line)
    return 0 if report.ok else 1


# ---------------------------------------------------------------- dag

class _SystemSlot(tuple):
    """The choices of dag's first positional: the system names, or a decimal.

    argparse fills positionals in order, so `dag --system minpart 6` puts the
    6 in the system's slot, and _cmd_dag moves it to the root index. Help and
    the invalid-choice message list the names only.
    """

    def __contains__(self, value) -> bool:
        return tuple.__contains__(self, value) or value.isdecimal()


def _cmd_dag(args) -> int:
    if args.system is not None and args.system.isdecimal():
        if args.n_tilde is not None:
            raise _UsageError("give the root index exactly once, positionally or as --n")
        args.system, args.n_tilde = None, int(args.system)
    system_name = _once(args, "system", "system", "--system")
    n_tilde = _once(args, "n_tilde", "root index", "--n")
    if args.completion and system_name != "maxpart":
        raise _UsageError("--completion applies to the maxpart system only")
    from .dag import (
        build_dag,
        emit_dot,
        extract_from_dag,
        signed_multiplicities,
        terminating_paths,
    )
    from .rewrite import builtin_system

    system = builtin_system(system_name, completion=args.completion)
    dag = build_dag(system, n_tilde)
    if args.format == "dot":
        print(emit_dot(dag), end="")
        return 0
    extracted = extract_from_dag(dag)
    if args.format == "plain":
        mult = signed_multiplicities(dag)
        print(f"system {system.name}  n~ {n_tilde}")
        print(
            f"vertices {len(dag.vertices)}  edges {len(dag.edges)}  "
            f"constant {extracted.constant}"
        )
        for vertex in dag.vertices:
            print(f"  {vertex.dot_name()}  multiplicity {mult[vertex]}")
        return 0
    payload = {
        "system": system.name,
        "n_tilde": n_tilde,
        "vertices": [
            {
                "name": v.dot_name(),
                "constant": dag.constant_at(v),
            }
            for v in dag.vertices
        ],
        "edges": [
            {
                "source": e.source.dot_name(),
                "target": e.target.dot_name(),
                "sign": e.sign,
                "rule": e.rule,
            }
            for e in dag.edges
        ],
        "constant": extracted.constant,
        "coefficients": {
            str(j): extracted.coeffs[j] for j in range(1, n_tilde + 1)
        },
    }
    if args.paths:
        payload["paths"] = [
            {
                "vertices": [v.dot_name() for v in path.vertices],
                "sign": path.sign,
                "j": path.j,
            }
            for path in terminating_paths(dag)
        ]
    _emit_json(payload)
    return 0


# ---------------------------------------------------------------- involution

def _cmd_involution(args) -> int:
    from .codes import enumerate_Bj, involution, polarity, valuation

    j = args.j
    rows = []
    for code in enumerate_Bj(j) + enumerate_Bj(j - 1):
        image = involution(j, code)
        v = valuation(code)
        if image == code:
            relation = "fixed"
        elif valuation(image) != v:
            relation = "same-sign-pair"
        else:
            relation = "opposite-sign-pair"
        rows.append(
            {
                "code": code.bits,
                "valuation": v,
                "polarity": polarity(code),
                "image": image.bits,
                "relation": relation,
            }
        )
    sum_here = sum(r["polarity"] for r in rows if r["valuation"] == j)
    sum_prev = sum(r["polarity"] for r in rows if r["valuation"] == j - 1)
    if args.format == "csv":
        _emit_csv(
            ["code", "valuation", "polarity", "image", "relation"],
            [[r["code"], r["valuation"], r["polarity"], r["image"], r["relation"]] for r in rows],
        )
    elif args.format == "json":
        _emit_json(
            {
                "j": j,
                "pairs": rows,
                "signed_sum_j": sum_here,
                "signed_sum_prev": sum_prev,
                "difference": sum_here - sum_prev,
            }
        )
    else:
        for r in rows:
            sign = "+" if r["polarity"] > 0 else "-"
            print(f"{r['code']:>12}  v={r['valuation']:<3} {sign}  ->  "
                  f"{r['image']:>12}  {r['relation']}")
        print(f"signed sums: {sum_here} - {sum_prev} = {sum_here - sum_prev}")
    return 0


# ---------------------------------------------------------------- codes

def _cmd_codes_pentagonal(args) -> int:
    from .codes import pentagonal_codes, polarity, valuation

    codes = pentagonal_codes(args.count)
    if args.format == "json":
        _emit_json(
            [
                {"code": c.bits, "valuation": valuation(c), "polarity": polarity(c)}
                for c in codes
            ]
        )
    else:
        for c in codes:
            print(f"{c.bits}  valuation {valuation(c)}  polarity {polarity(c):+d}")
    return 0


def _cmd_codes_decode(args) -> int:
    from .codes import decode_path, lemma51, polarity, to_strict_partition, valuation

    walked = decode_path(args.n_tilde, args.bits)
    report = lemma51(args.n_tilde, args.bits)
    payload = {
        "n_tilde": args.n_tilde,
        "code": args.bits,
        "valuation": valuation(args.bits),
        "polarity": polarity(args.bits),
        "walk": [[n, k] for n, k in walked.walk],
        "classification": walked.classification.value,
        "terminating": report.terminating,
        "strictly_below": report.strictly_below,
        "at_boundary": report.at_boundary,
        "leftmost_one": report.leftmost_one,
        "partition": list(to_strict_partition(args.bits)),
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        walk = " -> ".join(f"({n},{k})" for n, k in walked.walk)
        print(f"walk: {walk}")
        print(f"classification: {walked.classification.value}")
        print(
            f"valuation {payload['valuation']}  polarity {payload['polarity']:+d}  "
            f"partition {payload['partition']}"
        )
        print(
            f"terminating={report.terminating} strictly_below={report.strictly_below} "
            f"at_boundary={report.at_boundary} leftmost_one={report.leftmost_one}"
        )
    return 0


def _cmd_codes_encode(args) -> int:
    from .codes import from_strict_partition, valuation

    code = from_strict_partition(args.parts)
    if args.format == "json":
        _emit_json({"parts": args.parts, "code": code.bits, "valuation": valuation(code)})
    else:
        print(code.bits)
    return 0


def _cmd_codes_bj(args) -> int:
    from .codes import enumerate_Bj, polarity, to_strict_partition

    codes = enumerate_Bj(args.j)
    if args.format == "json":
        _emit_json(
            [
                {
                    "code": c.bits,
                    "polarity": polarity(c),
                    "partition": list(to_strict_partition(c)),
                }
                for c in codes
            ]
        )
    else:
        for c in codes:
            print(f"{c.bits}  polarity {polarity(c):+d}  parts {list(to_strict_partition(c))}")
    return 0


# ---------------------------------------------------------------- bench

def _cmd_bench(args) -> int:
    from .engines import EngineKind, make_engine

    max_n = _once(args, "max", "sweep bound", "--upto")
    names = list(args.engine or [])
    for chunk in args.methods or []:
        named = [part.strip() for part in chunk.split(",") if part.strip()]
        if not named:
            raise _UsageError(f"--methods {chunk!r} names no engine")
        names.extend(named)
    if not names or "all" in names:
        kinds = list(EngineKind)
    else:
        try:
            kinds = [EngineKind(name) for name in names]
        except ValueError as exc:
            raise _UsageError(exc) from None
    rows = []
    for kind in kinds:
        engine = make_engine(kind)
        start = time.perf_counter()
        value = 0
        for n in range(max_n + 1):
            value = engine.p(n)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "engine": str(kind),
                "n": max_n,
                "terms": engine.recurrent_terms,
                "seconds": round(elapsed, 6),
                "p": str(value),
            }
        )
    if args.format == "json":
        _emit_json(rows)
    elif args.format == "csv":
        _emit_csv(
            ["engine", "n", "terms", "seconds"],
            [[r["engine"], r["n"], r["terms"], r["seconds"]] for r in rows],
        )
    else:
        for r in rows:
            print(
                f"{r['engine']:<9} n={r['n']}  terms={r['terms']:<12} "
                f"seconds={r['seconds']:.4f}"
            )
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plab",
        description="Exact partition counting, coefficient series, rewrite-"
        "system reductions, and the path-code combinatorics behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="number of partitions of n")
    p.add_argument("n", type=_nonneg)
    p.add_argument(
        "--method",
        "--engine",
        dest="method",
        choices=list(COUNT_METHODS),
        default="euler",
    )
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("coeffs", help="coefficient series, exact")
    p.add_argument("kind", choices=COEFF_KINDS)
    p.add_argument("upto", nargs="?", type=_positive)
    p.add_argument("--upto", dest="upto_opt", type=_positive)
    p.add_argument("--format", choices=["json", "csv", "plain"], default="json")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("verify", help="run a self-check suite")
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
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dag", help="reduction graph of a built-in system")
    p.add_argument("system", nargs="?", choices=_SystemSlot(sorted(SYSTEM_NAMES)))
    p.add_argument("--system", dest="system_opt", choices=sorted(SYSTEM_NAMES))
    p.add_argument("n_tilde", nargs="?", type=_nonneg)
    p.add_argument("--n", "--n-tilde", dest="n_tilde_opt", metavar="N_OPT", type=_nonneg)
    p.add_argument("--format", choices=["dot", "json", "plain"], default="dot")
    p.add_argument("--paths", action="store_true", help="include terminating paths (json)")
    p.add_argument(
        "--completion",
        action="store_true",
        help="maxpart only: add the optional completion rules",
    )
    p.set_defaults(func=_cmd_dag)

    p = sub.add_parser("involution", help="sign-cancelling pairing at valuation j")
    p.add_argument("j", type=_positive)
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.set_defaults(func=_cmd_involution)

    p = sub.add_parser("codes", help="path-code utilities")
    codes_sub = p.add_subparsers(dest="codes_command", required=True)

    q = codes_sub.add_parser("pentagonal", help="the (100)*(1+011) language")
    q.add_argument("count", type=_nonneg)
    q.add_argument("--format", choices=["plain", "json"], default="plain")
    q.set_defaults(func=_cmd_codes_pentagonal)

    q = codes_sub.add_parser("decode", help="replay a code against n~")
    q.add_argument("n_tilde", type=_positive)
    q.add_argument("bits")
    q.add_argument("--format", choices=["plain", "json"], default="plain")
    q.set_defaults(func=_cmd_codes_decode)

    q = codes_sub.add_parser("encode", help="code of a strict partition (parts >= 2)")
    q.add_argument("parts", type=_positive, nargs="+")
    q.add_argument("--format", choices=["plain", "json"], default="plain")
    q.set_defaults(func=_cmd_codes_encode)

    q = codes_sub.add_parser("bj", help="all leading-1 codes of valuation j")
    q.add_argument("j", type=_nonneg)
    q.add_argument("--format", choices=["plain", "json"], default="plain")
    q.set_defaults(func=_cmd_codes_bj)

    p = sub.add_parser("bench", help="work counters and wall time per engine")
    p.add_argument("max", nargs="?", type=_nonneg)
    p.add_argument("--upto", dest="max_opt", metavar="UPTO", type=_nonneg)
    p.add_argument(
        "--engine",
        action="append",
        choices=list(ENGINE_NAMES) + ["all"],
        default=None,
    )
    p.add_argument(
        "--methods",
        action="append",
        default=None,
        metavar="NAME[,NAME...]",
        help="comma-separated engine names (same set as --engine)",
    )
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        _check_budget_setting()
        return args.func(args)
    except (_UsageError, PartlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 3


def console_main() -> None:
    # plab ... | head: die of SIGPIPE like any filter, not with a traceback and exit 1
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
