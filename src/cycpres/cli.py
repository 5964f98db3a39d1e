"""Command-line interface.

Subcommands: rewrite, classify, sweep, enumerate, orbits.  Exit codes:
0 success, 2 invalid input (including an invalid retraction exponent,
with the failing congruence printed), 3 undecided (coset limit reached).
main reports any ValueError or OSError as ``error: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import dynamics, enumerate as enum, relative, taxonomy
from .cyclic import gnkl
from .words import parse_word

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNDECIDED = 3


def _order_value(cls: taxonomy.Classification):
    """The order, or its formula when its decimal would pass the int-to-str limit.

    2^n - (-1)^n has as many digits as 2^n, so the limit is checked before
    the int is built, which at n = 10^9 would take 125 MB.  With no limit
    set, the default of 4,300 digits applies.
    """
    if cls.order_formula is None:
        return None
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if int(cls.n * math.log10(2)) + 1 > limit:
        return cls.order_formula
    return cls.order


def _classification_report(cls: taxonomy.Classification) -> dict:
    return {
        "command": "classify",
        "n": cls.n,
        "k": cls.k,
        "l": cls.l,
        "d": cls.d,
        "conditions": {"A": cls.conditions.A, "B": cls.conditions.B, "C": cls.conditions.C},
        "finite": cls.finite,
        "order": _order_value(cls),
        "ca": cls.ca,
        "free_shift": cls.free_shift,
        "theta_fixed": cls.theta_fixed,
        "exceptional_n18": cls.exceptional_n18,
        "branch": cls.branch,
        "structure": cls.structure_note,
    }


def _print_classification(cls: taxonomy.Classification):
    cond = cls.conditions
    print(f"G_{cls.n}({cls.k},{cls.l})  [branch: {cls.branch}]")
    print(f"  gcd(n,k,l) = {cls.d}; conditions: A={cond.A} B={cond.B} C={cond.C}")
    order = _order_value(cls)
    print(f"  finite: {cls.finite}" + (f" of order {order}" if order else ""))
    print(f"  combinatorially aspherical: {cls.ca}")
    print(f"  shift acts freely on nonidentity elements: {cls.free_shift}")
    print(f"  shift has a nonidentity fixed point: {cls.theta_fixed}")
    if cls.exceptional_n18:
        print("  exceptional n=18 case")
    print(f"  structure: {cls.structure_note}")


def _orbit_report_dict(report: dynamics.OrbitReport) -> dict:
    return {
        "command": "orbits",
        "n": report.n,
        "total_points": report.total_points,
        "cycle_type": list(report.cycle_type),
        "fixed_counts": {str(j): c for j, c in sorted(report.fixed_counts.items())},
        "free_action_on_nonbase": report.free_action_on_nonbase,
    }


def _print_orbit_report(report: dynamics.OrbitReport):
    parts = " + ".join(str(c) for c in report.cycle_type)
    print(f"{report.total_points} points: {parts}")
    for j in sorted(report.fixed_counts):
        print(f"  fixed by a^{j}: {report.fixed_counts[j]}")
    print(f"  free action away from basepoint: {report.free_action_on_nonbase}")


def cmd_rewrite(args) -> int:
    W = relative.RelativeWord.from_text(args.word)
    print(relative.rho(W, args.n, args.f))
    return EXIT_OK


def cmd_classify(args) -> int:
    cls = taxonomy.classify(args.n, args.k, args.l)
    if args.json:
        print(json.dumps(_classification_report(cls)))
    else:
        _print_classification(cls)
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Print each triple's report as it is classified, holding none of them.

    The JSON output is the bytes ``json.dumps`` gives for the whole
    ``{"command", "nmax", "triples"}`` object, written one triple at a time.
    """
    if args.nmax < 1:
        raise ValueError("--nmax must be positive")
    reports = map(_classification_report, taxonomy.sweep(args.nmax))
    if args.json:
        head = json.dumps({"command": "sweep", "nmax": args.nmax, "triples": []})
        print(head[:-2], end="")  # up to the open bracket of "triples"
        for i, rep in enumerate(reports):
            print(", " if i else "", json.dumps(rep), sep="", end="")
        print("]}")
        return EXIT_OK
    for rep in reports:
        flags = []
        if rep["d"] > 1:
            flags.append(f"d={rep['d']}")
        flags.append("finite" if rep["finite"] else "infinite")
        if rep["order"] is not None:
            flags.append(f"order {rep['order']}")
        flags.append("CA" if rep["ca"] else "not CA")
        flags.append("theta-fixed" if rep["theta_fixed"] else "fixed-point free")
        print(
            f"G_{rep['n']}({rep['k']},{rep['l']}): "
            + ", ".join(flags)
            + f"  [{rep['branch']}]"
        )
    return EXIT_OK


def cmd_enumerate(args) -> int:
    with open(args.file) as fh:
        pres = enum.parse_presentation(fh.read())
    table = enum.todd_coxeter(pres, max_cosets=args.max_cosets)
    if not table.complete:
        print(
            f"undecided: limit of {args.max_cosets} cosets reached"
            f" ({table.count} live, {table.defined} defined)"
        )
        return EXIT_UNDECIDED
    print(f"{table.count} cosets")
    if args.table:
        print(table.dump())
    return EXIT_OK


def cmd_orbits(args) -> int:
    if args.word is not None:
        if args.k is not None or args.l is not None:
            raise ValueError("give either --word or --k and --l, not both")
        w = parse_word(args.word, args.n)
    elif args.k is None or args.l is None:
        raise ValueError("need either --word or both --k and --l")
    else:
        w = gnkl(args.n, args.k, args.l).word
    try:
        report = dynamics.shift_orbits(args.n, w, max_cosets=args.max_cosets)
    except dynamics.EnumerationIncomplete as exc:
        print(f"undecided: {exc}")
        if args.word is None:
            cls = taxonomy.classify(args.n, args.k, args.l)
            if cls.finite:
                what = f"G_{cls.n}({cls.k},{cls.l}) is finite"
                if cls.order_formula is not None:
                    what += f" of order {cls.order_formula}"
                print(f"{what}; raise --max-cosets")
        return EXIT_UNDECIDED
    if args.json:
        print(json.dumps(_orbit_report_dict(report)))
    else:
        _print_orbit_report(report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycpres",
        description="Cyclically presented groups: rewriting, classification,"
        " coset enumeration, and shift dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rewrite", help="rewrite a relative word into a cyclic defining word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f", type=int, required=True, help="retraction exponent")
    p.add_argument("--word", required=True, help="relative word, e.g. 'x a^2 x X a^-1'")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("classify", help="classify G_n(k,l)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="classify all triples up to --nmax")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("enumerate", help="run coset enumeration on a presentation file")
    p.add_argument("--file", required=True)
    p.add_argument("--max-cosets", type=int, default=enum.DEFAULT_MAX_COSETS)
    p.add_argument("--table", action="store_true", help="print the coset table")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("orbits", help="orbit analysis of the shift")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--word", help="defining word in x<i>/X<i> tokens")
    p.add_argument("--max-cosets", type=int, default=enum.DEFAULT_MAX_COSETS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_orbits)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
