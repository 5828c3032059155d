"""plab dag: the reduction graph of a built-in system at a root index, as
DOT, as plain text or as JSON with its terminating paths."""

from .cli import SYSTEM_NAMES, _emit_json, _nonneg, _once, _UsageError


class _SystemSlot(tuple):
    """The choices of dag's first positional: the system names, or a decimal.

    argparse fills positionals in order, so `dag --system minpart 6` puts the
    6 in the system's slot, and run moves it to the root index. Help and the
    invalid-choice message list the names only.
    """

    def __contains__(self, value) -> bool:
        return tuple.__contains__(self, value) or value.isdecimal()


def arguments(p) -> None:
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
    p.set_defaults(func=run)


def run(args) -> int:
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
        dot_name,
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
            print(f"  {dot_name(vertex, n_tilde)}  multiplicity {mult[vertex]}")
        return 0
    payload = {
        "system": system.name,
        "n_tilde": n_tilde,
        "vertices": [
            {
                "name": dot_name(v, n_tilde),
                "constant": dag.constant_at(v),
            }
            for v in dag.vertices
        ],
        "edges": [
            {
                **e._asdict(),
                "source": dot_name(e.source, n_tilde),
                "target": dot_name(e.target, n_tilde),
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
            {**path._asdict(), "vertices": [dot_name(v, n_tilde) for v in path.vertices]}
            for path in terminating_paths(dag)
        ]
    _emit_json(payload)
    return 0
