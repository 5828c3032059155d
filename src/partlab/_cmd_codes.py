"""plab codes: path-code utilities, each its own subcommand: the pentagonal
codes, decoding a code against n~, the code of a strict partition, and B_j."""

import argparse

from .cli import _emit_json, _nonneg, _positive


def arguments(p) -> None:
    # plain parsers: their arguments are added here, not on first parse
    codes_sub = p.add_subparsers(
        dest="codes_command", required=True, parser_class=argparse.ArgumentParser
    )

    q = codes_sub.add_parser("pentagonal", help="the (100)*(1+011) language")
    q.add_argument("count", type=_nonneg)
    q.add_argument("--format", choices=["plain", "json"], default="plain")
    q.set_defaults(func=_pentagonal)

    q = codes_sub.add_parser("decode", help="replay a code against n~")
    q.add_argument("n_tilde", type=_positive)
    q.add_argument("bits")
    q.add_argument("--format", choices=["plain", "json"], default="plain")
    q.set_defaults(func=_decode)

    q = codes_sub.add_parser("encode", help="code of a strict partition (parts >= 2)")
    q.add_argument("parts", type=_positive, nargs="+")
    q.add_argument("--format", choices=["plain", "json"], default="plain")
    q.set_defaults(func=_encode)

    q = codes_sub.add_parser("bj", help="all leading-1 codes of valuation j")
    q.add_argument("j", type=_nonneg)
    q.add_argument("--format", choices=["plain", "json"], default="plain")
    q.set_defaults(func=_bj)


def _pentagonal(args) -> int:
    from .codes import pentagonal_codes, polarity, valuation

    rows = [
        {"code": c.bits, "valuation": valuation(c), "polarity": polarity(c)}
        for c in pentagonal_codes(args.count)
    ]
    if args.format == "json":
        _emit_json(rows)
    else:
        for r in rows:
            print("{code}  valuation {valuation}  polarity {polarity:+d}".format_map(r))
    return 0


def _decode(args) -> int:
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
        **report._asdict(),
        "partition": list(to_strict_partition(args.bits)),
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        walk = " -> ".join(f"({n},{k})" for n, k in walked.walk)
        print(f"walk: {walk}")
        print(f"classification: {walked.classification.value}")
        line = "valuation {valuation}  polarity {polarity:+d}  partition {partition}"
        print(line.format_map(payload))
        print(" ".join(f"{name}={value}" for name, value in report._asdict().items()))
    return 0


def _encode(args) -> int:
    from .codes import from_strict_partition, valuation

    code = from_strict_partition(args.parts)
    if args.format == "json":
        _emit_json({"parts": args.parts, "code": code.bits, "valuation": valuation(code)})
    else:
        print(code.bits)
    return 0


def _bj(args) -> int:
    from .codes import enumerate_Bj, polarity, to_strict_partition

    rows = [
        {"code": c.bits, "polarity": polarity(c), "partition": list(to_strict_partition(c))}
        for c in enumerate_Bj(args.j)
    ]
    if args.format == "json":
        _emit_json(rows)
    else:
        for r in rows:
            print("{code}  polarity {polarity:+d}  parts {partition}".format_map(r))
    return 0
