"""plab involution: the sign-cancelling pairing on B_j + B_{j-1}, each code
with its image, and the two signed sums."""

from .cli import _emit_csv, _emit_json, _positive


def arguments(p) -> None:
    p.add_argument("j", type=_positive)
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.set_defaults(func=run)


def run(args) -> int:
    from .codes import enumerate_Bj, involution, polarity, valuation

    j = args.j
    header = ("code", "valuation", "polarity", "image", "relation")
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
        rows.append(dict(zip(header, (code.bits, v, polarity(code), image.bits, relation))))
    sum_here = sum(r["polarity"] for r in rows if r["valuation"] == j)
    sum_prev = sum(r["polarity"] for r in rows if r["valuation"] == j - 1)
    if args.format == "csv":
        _emit_csv(header, rows)
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
        line = "{code:>12}  v={valuation:<3} {sign}  ->  {image:>12}  {relation}"
        for r in rows:
            print(line.format(sign="+" if r["polarity"] > 0 else "-", **r))
        print(f"signed sums: {sum_here} - {sum_prev} = {sum_here - sum_prev}")
    return 0
