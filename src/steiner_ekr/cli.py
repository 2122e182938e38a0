"""Command-line front end.

Verbs: generate, validate, enumerate, classify, onan, max-size (design verbs),
bound, sweep (parameter verbs).  Exit status 0 on success, 1 on a domain
error (diagnostic on stderr), 2 on a usage error.  Identical argv always
produces byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import Counter
from fractions import Fraction

from . import bounds, designs
from .designs import Design, load_design, save_design
from .ekr import classify, enumerate_maximal_ekr, find_onan, max_ekr_size
from .errors import DomainError, Record
from .exactnum import CubeRootBound, icbrt_floor

_BUILTINS = {
    "projective": designs.projective_plane,
    "affine": designs.affine_plane,
    "pg3": designs.pg3_line_design,
    "unital": designs.hermitian_unital,
    "hermitian-unital": designs.hermitian_unital,
    "sts13": designs.sts13,
    "kgraph": designs.complete_graph,
    "complete": designs.complete_graph,
}


def _parse_design(spec: str) -> Design:
    if spec.startswith("file:"):
        return load_design(spec[5:])
    name, _, arg = spec.partition(":")
    maker = _BUILTINS.get(name)
    if maker is None:
        known = ", ".join(sorted(set(_BUILTINS)))
        raise DomainError(f"unknown design '{name}'; expected one of {known}, or file:PATH")
    if not arg:
        if name == "sts13":
            arg = "1"
        else:
            raise DomainError(f"design '{name}' needs a parameter, e.g. {name}:3")
    try:
        value = int(arg)
    except ValueError:
        raise DomainError(f"design parameter {arg!r} is not an integer") from None
    return maker(value)


def _summary(design: Design, spec: str) -> dict:
    return {"source": spec, "v": design.v, "k": design.k, "b": design.b, "r": design.r}


def _frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _value(x):
    """A result in JSON form: ints stay, every rational is "p/q".

    A CubeRootBound names its coefficients coef_cbrt_sq and coef_cbrt; any
    other record (BoundReport, SweepCertificate, SurdExpr) gives its fields
    in field order, leaving out a field that is None.  Lists and dicts are
    rendered member by member.
    """
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return _frac(x)
    if isinstance(x, CubeRootBound):
        return {
            "const": _frac(x.const),
            "coef_cbrt_sq": _frac(x.sq_coef),
            "coef_cbrt": _frac(x.lin_coef),
            "radicand": x.radicand,
        }
    if isinstance(x, Record):
        items = ((name, getattr(x, name)) for name in x._fields)
        return {k: _value(v) for k, v in items if v is not None}
    if isinstance(x, (tuple, list)):
        return [_value(e) for e in x]
    if isinstance(x, dict):
        return {str(k): _value(v) for k, v in x.items()}
    return str(x)


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (dict, list)):
        return json.dumps(v, separators=(",", ":"))
    return str(v)


def _flat_text(payload: dict) -> str:
    lines = []
    for key, val in payload.items():
        if isinstance(val, dict):
            cell = " ".join(f"{k}={_scalar(v)}" for k, v in val.items())
        elif isinstance(val, list):
            cell = "; ".join(_scalar(v) for v in val)
        else:
            cell = _scalar(val)
        lines.append(f"{key}: {cell}\n")
    return "".join(lines)


def _emit(fmt: str, payload: dict, header=None, rows=None, text=None) -> int:
    """Write a verb's result to stdout in the chosen format.

    json dumps the payload; csv writes header and rows; text writes the text
    lines.  Without header or text, csv is one row of the payload's keys and
    values and text is one ``key: value`` line per key.
    """
    if fmt == "json":
        out = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        if header is None:
            header, rows = list(payload), [list(payload.values())]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [_scalar(c) for c in row] for row in [header, *rows]
        )
        out = buf.getvalue()
    elif text is None:
        out = _flat_text(payload)
    else:
        out = "".join(line + "\n" for line in text)
    sys.stdout.write(out)
    return 0


def _ids(blocks) -> str:
    return " ".join(map(str, blocks))


# -- design verbs ------------------------------------------------------------


def _cmd_generate(args) -> int:
    design = _parse_design(args.design)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            save_design(design, fh)
    else:
        save_design(design, sys.stdout)
    return 0


def _cmd_validate(args) -> int:
    design = _parse_design(args.design)
    info = {**_summary(design, args.design), "valid": True}
    header = ["v", "k", "b", "r", "valid"]
    return _emit(
        args.format,
        info,
        header,
        [[info[h] for h in header]],
        [
            f"valid 2-({info['v']},{info['k']},1) design: "
            f"{info['b']} blocks, replication {info['r']}"
        ],
    )


def _cmd_enumerate(args) -> int:
    design = _parse_design(args.design)
    families = enumerate_maximal_ekr(design, min_size=args.min_size, max_count=args.max_count)
    head = {"design": _summary(design, args.design), "min_size": args.min_size}
    if args.size_only:
        sizes = sorted(Counter(map(len, families)).items(), reverse=True)
        return _emit(
            args.format,
            {**head, "sizes": {str(s): c for s, c in sizes}},
            ["size", "count"],
            sizes,
            [f"maximal families with at least {args.min_size} blocks:"]
            + [f"  size {s}: {c}" for s, c in sizes],
        )
    listed = [(len(f), f.indices()) for f in families]
    return _emit(
        args.format,
        {
            **head,
            "count": len(listed),
            "families": [{"size": s, "blocks": list(ix)} for s, ix in listed],
        },
        ["size", "blocks"],
        [[s, _ids(ix)] for s, ix in listed],
        [f"maximal families: {len(listed)}"] + [f"  [{s}] {_ids(ix)}" for s, ix in listed],
    )


def _cmd_classify(args) -> int:
    design = _parse_design(args.design)
    families = enumerate_maximal_ekr(design, min_size=args.min_size, max_count=args.max_count)
    types = []
    for etype, count in classify(design, families):
        hist = etype.profile.k_hist
        types.append(
            {
                "label": etype.label,
                "size": etype.size,
                "count": count,
                "covered": etype.profile.covered,
                "max_multiplicity": etype.profile.k_s,
                "k_hist": {str(i): hist[i] for i in range(1, len(hist)) if hist[i]},
                "canonical_code": etype.code,
                "witness": list(etype.witness.indices()),
            }
        )
    report = {
        "design": _summary(design, args.design),
        "family_count": len(families),
        "types": types,
    }
    text = [f"types: {len(types)} (maximal families: {report['family_count']})"]
    for t in types:
        text.append(
            f"  {t['label']}: size {t['size']}, count {t['count']}, "
            f"covered {t['covered']}, max multiplicity {t['max_multiplicity']}"
        )
        text.append(f"    witness: {_ids(t['witness'])}")
    header = ["label", "size", "count", "covered", "max_multiplicity", "witness"]
    rows = [[t[h] for h in header[:-1]] + [_ids(t["witness"])] for t in types]
    return _emit(args.format, report, header, rows, text)


def _cmd_onan(args) -> int:
    design = _parse_design(args.design)
    witness = find_onan(design)
    found = witness is not None
    return _emit(
        args.format,
        {
            "design": _summary(design, args.design),
            "found": found,
            "blocks": list(witness) if found else None,
        },
        ["found", "blocks"],
        [[found, _ids(witness or ())]],
        [f"o'nan configuration: blocks {_ids(witness)}" if found else "o'nan configuration: none"],
    )


def _cmd_max_size(args) -> int:
    design = _parse_design(args.design)
    best = max_ekr_size(design)
    witness = best.indices()
    return _emit(
        args.format,
        {"design": _summary(design, args.design), "size": len(best), "witness": list(witness)},
        ["size", "witness"],
        [[len(best), _ids(witness)]],
        [f"maximum family size: {len(best)}", f"  witness: {_ids(witness)}"],
    )


# -- parameter verbs ---------------------------------------------------------


def _unital_second(a):
    """The bound, with the integer cube roots of q^2 and q beside a cube-root value."""
    report = bounds.unital_second_max_bound(a.q)
    if not isinstance(report.value, CubeRootBound):
        return report
    brackets = {"cbrt_bracket_q2": icbrt_floor(a.q * a.q), "cbrt_bracket_q": icbrt_floor(a.q)}
    return {"inputs": {"q": a.q, **brackets}, **_value(report)}


# formula -> (options it needs, result); the --formula choices.  The payload
# is the formula, its inputs (the options listed here, unless the result
# carries its own), then the result's fields.
_FORMULAS = {
    "counting": (["k", "r", "excess"], lambda a: bounds.counting_bound(a.k, a.r, a.excess)),
    "counting-deficit": (
        ["k", "deficit", "excess"],
        lambda a: bounds.counting_bound_deficit(a.k, a.deficit, a.excess),
    ),
    "multiplicity-cap": (
        ["k", "max-mult"],
        lambda a: dict.fromkeys(
            ["value", "floor_value"], bounds.multiplicity_cap_bound(a.k, a.max_mult)
        ),
    ),
    "cover-range": (
        ["k", "shortfall"],
        lambda a: dict(zip(["low", "high"], bounds.cover_range_submax(a.k, a.shortfall))),
    ),
    "replication": (
        ["k", "r"],
        lambda a: {
            "threshold": a.k * a.k - a.k + 1,
            "verdict": bounds.replication_threshold(a.k, a.r).value,
        },
    ),
    "near-extremal": (
        ["k", "r"],
        lambda a: {
            "window_low": bounds.near_extremal_cutoff(a.k),
            "window_high": a.k * a.k - a.k,
            "verdict": bounds.near_extremal_threshold(a.k, a.r).value,
        },
    ),
    "unital-counting": (["q", "excess"], lambda a: bounds.unital_counting_bound(a.q, a.excess)),
    "unital-second": (["q"], _unital_second),
    "pencil-uniqueness": (
        ["k", "v"],
        lambda a: {
            "threshold": 1 + a.k * a.k * (a.k - 1),
            "met": bounds.pencil_uniqueness_threshold(a.k, a.v),
        },
    ),
    "discriminant": (
        ["k", "excess"],
        lambda a: {"inputs": {"k": a.k, "b": a.excess}, "value": bounds.discriminant(a.excess, a.k)},
    ),
}


def _deficit_grid(a) -> bounds.SweepCertificate:
    if a.k == "all":
        k = "all"
    else:
        try:
            k = int(a.k)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--k must be an integer or 'all', got {a.k!r}"
            ) from None
    return bounds.sweep_deficit_grid(k)


# check -> (options it needs, certificate); the --check choices.  The payload
# is the check, then the certificate's fields.
_CHECKS = {
    "deficit-grid": (["k"], _deficit_grid),
    "large-k": ([], lambda a: bounds.sweep_large_k(k_max=a.k_max, budget=a.budget)),
    "moments": (
        ["l", "a", "excess", "r"],
        lambda a: bounds.certify_moment_inequality(a.l, a.a, a.excess, a.r, budget=a.budget),
    ),
}


def _cmd_table(parser, table: dict, choice: str):
    """bound and sweep: check the chosen entry's options, then emit its payload.

    The payload opens with the entry's name under ``choice``; a formula's
    ``inputs`` follow, the options its entry lists unless its result gives them.
    """

    def run(args) -> int:
        name = getattr(args, choice)
        needs, build = table[name]
        given = {n: getattr(args, n.replace("-", "_")) for n in needs}
        missing = [n for n, v in given.items() if v is None]
        if missing:
            parser.error(f"{choice} '{name}' needs {' '.join('--' + n for n in missing)}")
        head = {choice: name}
        if choice == "formula":
            head["inputs"] = {n.replace("-", "_"): v for n, v in given.items()}
        try:
            return _emit(args.format, {**head, **_value(build(args))})
        except argparse.ArgumentTypeError as exc:
            parser.error(str(exc))
        except ValueError as exc:
            # str() refuses an int of more than sys.get_int_max_str_digits() digits
            raise DomainError(f"{choice} '{name}': {exc}") from None

    return run


# -- parser ------------------------------------------------------------------


def _add_design_opts(p, enumerating=False):
    p.add_argument("--design", required=True, help="builtin name:param or file:PATH")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    if enumerating:
        p.add_argument("--min-size", type=int, default=1)
        p.add_argument("--max-count", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steiner-ekr",
        description="Construct 2-(v,k,1) designs and analyze their maximal "
        "intersecting block families.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="write a design file")
    p.add_argument("--design", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("validate", help="check the pair axiom and report parameters")
    _add_design_opts(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("enumerate", help="list all maximal intersecting families")
    _add_design_opts(p, enumerating=True)
    p.add_argument("--size-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("classify", help="group maximal families by isomorphism type")
    _add_design_opts(p, enumerating=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("onan", help="search for an O'Nan configuration")
    _add_design_opts(p)
    p.set_defaults(func=_cmd_onan)

    p = sub.add_parser("max-size", help="find one maximum intersecting family")
    _add_design_opts(p)
    p.set_defaults(func=_cmd_max_size)

    p = sub.add_parser("bound", help="evaluate one bound or threshold exactly")
    p.add_argument("--formula", required=True, choices=list(_FORMULAS))
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--v", type=int)
    p.add_argument("--deficit", type=int)
    p.add_argument("--excess", type=int)
    p.add_argument("--max-mult", type=int)
    p.add_argument("--shortfall", type=int)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=_cmd_table(p, _FORMULAS, "formula"))

    p = sub.add_parser("sweep", help="run an inequality sweep and print its certificate")
    p.add_argument("--check", required=True, choices=list(_CHECKS))
    p.add_argument("--k", help="block size, or 'all' for the whole table")
    p.add_argument("--k-max", type=int, default=50)
    p.add_argument("--l", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--excess", type=int)
    p.add_argument("--r", type=int)
    p.add_argument(
        "--budget",
        type=int,
        default=2_000_000,
        help="case cap of the large-k and moments checks, which exit 1 before they "
        "search when they must pass it; deficit-grid ignores it",
    )
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=_cmd_table(p, _CHECKS, "check"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DomainError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
