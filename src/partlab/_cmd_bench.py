"""plab bench: each engine's sweep p(0..N), with its work counter and wall
time."""

import time

from .cli import ENGINE_NAMES, _emit_csv, _emit_json, _nonneg, _once, _UsageError
from .errors import InvalidArgument


def arguments(p) -> None:
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
    p.set_defaults(func=run)


def run(args) -> int:
    from .engines import make_engine

    max_n = _once(args, "max", "sweep bound", "--upto")
    names = list(args.engine or [])
    for chunk in args.methods or []:
        named = [part.strip() for part in chunk.split(",") if part.strip()]
        if not named:
            raise _UsageError(f"--methods {chunk!r} names no engine")
        names.extend(named)
    if not names or "all" in names:
        names = ENGINE_NAMES
    try:
        engines = [make_engine(name) for name in names]
    except InvalidArgument as exc:
        raise _UsageError(exc) from None
    header = ("engine", "n", "terms", "seconds", "p")
    rows = []
    for name in names:
        engine = engines.pop(0)  # dropped after its sweep: maxpart's p(1500) holds 40 MB
        start = time.perf_counter()
        for n in range(max_n + 1):  # max_n >= 0, so value is set
            value = engine.p(n)
        elapsed = time.perf_counter() - start
        row = (name, max_n, engine.recurrent_terms, round(elapsed, 6), str(value))
        rows.append(dict(zip(header, row)))
    if args.format == "json":
        _emit_json(rows)
    elif args.format == "csv":
        _emit_csv(header[:-1], rows)  # every column but p
    else:
        line = "{engine:<9} n={n}  terms={terms:<12} seconds={seconds:.4f}"
        for r in rows:
            print(line.format_map(r))
    return 0
