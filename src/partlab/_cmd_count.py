"""plab count: the number of partitions of n, by an engine, every engine, the
oracle or a rewrite system."""

from .cli import ENGINE_NAMES, SYSTEM_NAMES, _emit_json, _nonneg

COUNT_METHODS = (
    ENGINE_NAMES + ("all", "oracle") + tuple(f"rewrite:{name}" for name in SYSTEM_NAMES)
)


def arguments(p) -> None:
    p.add_argument("n", type=_nonneg)
    p.add_argument("--method", choices=list(COUNT_METHODS), default="euler")
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.set_defaults(func=run)


def run(args) -> int:
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
