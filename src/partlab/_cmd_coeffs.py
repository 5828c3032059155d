"""plab coeffs: a coefficient series, exact, from its own route or from a
reduction DAG."""

from .cli import _emit_csv, _emit_json, _once, _positive

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


def arguments(p) -> None:
    p.add_argument("kind", choices=COEFF_KINDS)
    p.add_argument("upto", nargs="?", type=_positive)
    p.add_argument("--upto", dest="upto_opt", type=_positive)
    p.add_argument("--format", choices=["json", "csv", "plain"], default="json")
    p.set_defaults(func=run)


def run(args) -> int:
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
        header = ("index", "value")
        _emit_csv(header, [dict(zip(header, pair)) for pair in indexed])
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
