"""plab bench: each engine's sweep p(0..N), with its work counter and wall
time."""

import time

from .cli import ENGINE_NAMES, _emit_csv, _emit_json, _nonneg


def arguments(p) -> None:
    p.add_argument("max", type=_nonneg)
    p.add_argument("--engine", action="append", choices=list(ENGINE_NAMES) + ["all"])
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.set_defaults(func=run)


def run(args) -> int:
    from .engines import make_engine

    names = args.engine or ENGINE_NAMES
    if "all" in names:
        names = ENGINE_NAMES
    header = ("engine", "n", "terms", "seconds", "p")
    rows = []
    for name in names:
        engine = make_engine(name)  # rebinding frees the last table: maxpart's p(1500) holds 40 MB
        start = time.perf_counter()
        for n in range(args.max + 1):  # args.max >= 0, so value is set
            value = engine.p(n)
        elapsed = time.perf_counter() - start
        row = (name, args.max, engine.recurrent_terms, round(elapsed, 6), str(value))
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
