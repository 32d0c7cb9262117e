"""Command-line front end.

Exit codes: 0 success, 1 mathematical check failure, 2 usage or IO error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .classify import classify
from .errors import (
    ClassificationError,
    HomogeneityError,
    KernelError,
    LatticeDataError,
    ParseError,
    RetriesExhaustedError,
    RingMismatchError,
)
from .flat_limit import Family, flatness_probe, limit_ideal
from .hilbert import hilbert_function, hilbert_series
from .ideals import (
    dumps_ideal,
    intersect,
    load_ideal,
    quotient,
    saturate,
)
from .picard import HN, WN, canonical_class, chamber_of, hn_lattice, is_fano, wn_lattice
from .rings import GREVLEX, LEX, parse
from .tangent import hom_degree_zero
from .verify import MAX_N, run_battery

_MATH_ERRORS = (
    ClassificationError,
    RetriesExhaustedError,
    LatticeDataError,
    HomogeneityError,
)
_USAGE_ERRORS = (ParseError, RingMismatchError, ValueError, OSError, KeyError)


def _Sub(common):
    class _Parser(argparse.ArgumentParser):
        def __init__(self, *a, **kw):
            kw.setdefault("parents", []).append(common)
            super().__init__(*a, **kw)

    return _Parser


def _build_parser():
    p = argparse.ArgumentParser(
        prog="hilbcomp",
        description="Exact commutative-algebra toolkit for pairs of "
        "codimension-two linear subspaces: Groebner bases, Hilbert data, "
        "flat limits, tangent spaces, classification, chamber decomposition.",
    )
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", choices=("lex", "grevlex"), default="grevlex")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--order", choices=("lex", "grevlex"), default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Sub(common))

    gb = sub.add_parser("gb", help="reduced Groebner basis of an ideal file")
    gb.add_argument("file")

    nf = sub.add_parser("nf", help="normal form of a polynomial against an ideal")
    nf.add_argument("file")
    nf.add_argument("poly")

    hb = sub.add_parser("hilbert", help="Hilbert polynomial and series data")
    hb.add_argument("file")

    hf = sub.add_parser("hf", help="Hilbert function value at a degree")
    hf.add_argument("file")
    hf.add_argument("-d", "--degree", type=int, required=True)

    for name in ("intersect", "quotient", "saturate"):
        sp = sub.add_parser(name, help=f"{name} of two ideal files")
        sp.add_argument("file1")
        sp.add_argument("file2")

    lm = sub.add_parser("limit", help="flat limit at t=0 of a family file (param=1)")
    lm.add_argument("file")
    lm.add_argument("--probe", action="store_true", help="also run the flatness probe")

    tg = sub.add_parser("tangent", help="tangent-space dimension report (JSON)")
    tg.add_argument("file")

    cl = sub.add_parser("classify", help="four-type classification (JSON)")
    cl.add_argument("file")

    cn = sub.add_parser("cone", help="chamber report for a divisor class")
    cn.add_argument("--space", choices=(HN, WN), required=True)
    cn.add_argument("--n", type=int, required=True)
    cn.add_argument(
        "--divisor",
        required=True,
        help="comma-separated integers, as in --divisor 0,6; a negative first "
        "coordinate may be written --divisor -1,2 or --divisor=-1,2",
    )

    vf = sub.add_parser("verify", help="run the full verification battery")
    vf.add_argument("--n-min", type=int, default=3)
    vf.add_argument("--n-max", type=int, default=5)
    vf.add_argument(
        "--deep",
        action="store_true",
        help=f"extend the range to n={MAX_N}",
    )
    vf.add_argument("--out", default=None)
    vf.add_argument("--timings", action="store_true")
    return p


def _order_of(args):
    return LEX if args.order == "lex" else GREVLEX


def _emit(args, json_payload, text):
    if args.format == "json":
        print(json.dumps(json_payload, indent=2, sort_keys=True))
    else:
        print(text)


def _cmd_gb(args):
    ideal = load_ideal(args.file)
    gb = ideal.groebner_basis(order=_order_of(args))
    elements = [str(g) for g in gb.elements]
    _emit(args, {"order": args.order, "elements": elements}, "\n".join(elements) or "0")
    return 0


def _cmd_nf(args):
    ideal = load_ideal(args.file)
    f = parse(args.poly, ideal.ring)
    r = ideal.groebner_basis(order=_order_of(args)).reduce(f)
    _emit(args, {"normal_form": str(r)}, str(r))
    return 0


def _cmd_hilbert(args):
    data = hilbert_series(load_ideal(args.file))
    payload = {
        "hilbert_polynomial": str(data.hilbert_polynomial),
        "series_numerator": list(data.series_numerator),
        "reduced_numerator": list(data.reduced_numerator),
        "denominator_power": data.denominator_power,
        "dimension": data.dimension,
        "degree": data.degree,
        "agreement_bound": data.agreement_bound,
    }
    _emit(args, payload, str(data.hilbert_polynomial))
    return 0


def _cmd_hf(args):
    value = hilbert_function(load_ideal(args.file), args.degree)
    _emit(args, {"degree": args.degree, "value": value}, str(value))
    return 0


def _cmd_binary(args, op):
    a = load_ideal(args.file1)
    b = load_ideal(args.file2)
    result = op(a, b)
    gens = [str(g) for g in result.canonical_generators()]
    _emit(
        args,
        {"generators": gens},
        dumps_ideal(result.canonical()).rstrip("\n"),
    )
    return 0


def _cmd_limit(args):
    fam = Family(load_ideal(args.file))
    limit = limit_ideal(fam)
    payload = {"limit_generators": [str(g) for g in limit.generators]}
    text = dumps_ideal(limit).rstrip("\n")
    if args.probe:
        report = flatness_probe(fam)
        payload["probe"] = report.to_json()
        flatline = "flat" if report.flat else "NOT flat"
        text += f"\n# probe: {flatline}"
    _emit(args, payload, text)
    return 0


def _cmd_tangent(args):
    report = hom_degree_zero(load_ideal(args.file))
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return 0


def _cmd_classify(args):
    result = classify(load_ideal(args.file), seed=args.seed)
    print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    return 0


def _cmd_cone(args):
    try:
        coords = tuple(int(c) for c in args.divisor.split(","))
    except ValueError:
        raise ValueError(f"bad divisor coordinates {args.divisor!r}") from None
    lattice = hn_lattice(args.n) if args.space == HN else wn_lattice(args.n)
    report = chamber_of(lattice.divisor(coords), args.n)
    payload = report.to_json()
    payload["fano"] = is_fano(args.space, args.n)
    payload["anticanonical"] = [-c for c in canonical_class(args.space, args.n).coords]
    text = (
        f"chamber {report.chamber}  base locus: "
        f"{', '.join(report.base_locus) or 'empty'}  model: {report.model or '-'}"
        f"\nample: {report.ample}  base-point-free: {report.base_point_free}"
        f"\nFano={payload['fano']}"
    )
    _emit(args, payload, text)
    return 0


def _cmd_verify(args):
    n_max = MAX_N if args.deep else args.n_max
    report = run_battery(n_min=args.n_min, n_max=n_max, seed=args.seed, deep=args.deep)
    if args.format == "json":
        rendered = json.dumps(report.to_json(timings=args.timings), indent=2, sort_keys=True)
    else:
        rendered = report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)
    return report.exit_code()


_COMMANDS = {
    "gb": _cmd_gb,
    "nf": _cmd_nf,
    "hilbert": _cmd_hilbert,
    "hf": _cmd_hf,
    "intersect": lambda a: _cmd_binary(a, intersect),
    "quotient": lambda a: _cmd_binary(a, quotient),
    "saturate": lambda a: _cmd_binary(a, saturate),
    "limit": _cmd_limit,
    "tangent": _cmd_tangent,
    "classify": _cmd_classify,
    "cone": _cmd_cone,
    "verify": _cmd_verify,
}


def _normalized_argv(argv):
    """argv as argparse must see it.  argparse reads a separate argument
    that starts with '-' as an option unless it is a plain negative number,
    so `--divisor -1,2` is written `--divisor=-1,2`, and any other argument
    that starts with '-' and a digit, such as the polynomial of
    `nf <file> "-1*x0"`, moves behind a '--' at the end.  Arguments after a
    given '--' are kept as they are."""
    out, positional = [], []
    for k, arg in enumerate(argv):
        if arg == "--":
            positional.extend(argv[k + 1:])
            break
        if out and out[-1] == "--divisor" and re.match(r"-\d", arg):
            out[-1] = f"--divisor={arg}"
        elif re.match(r"-\d", arg) and not re.fullmatch(r"-\d+", arg):
            positional.append(arg)
        else:
            out.append(arg)
    return out + ["--"] + positional if positional else out


def run_subcommand(argv=None):
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_normalized_argv(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except _MATH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()
