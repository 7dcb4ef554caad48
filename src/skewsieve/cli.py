"""Command-line front end with stable text and JSON output.

Exit codes: 0 success, 1 domain error (for example a missing quotient
where one is required), 2 usage error, 3 internal error (a broken
invariant inside the library, reported as one line on stderr).  All
output is deterministic, and divisor maps are always emitted with
ascending numeric keys.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

from .abacus import core, display, skew_quotient
from .analysis import analyze, analyze_shifted
from .characters import (
    SkewCharValue,
    enumerate_bst,
    eval_at_root,
    one_line_string,
    perm,
    permutation_sign,
    skew_char,
    skew_char_rect,
)
from .checks import builtin_checks
from .qpoly import QPoly
from .schur import principal_specialization
from .shapes import Composition, Partition, SkewShape


def _int_at_least(low: int, complaint: str):
    """An argparse type for ASCII digits with an optional leading "-",
    spaces allowed around them; ``int`` alone would also take "+2", "1_0"
    and non-ASCII digits."""

    def convert(text: str) -> int:
        digits = text.strip().removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{complaint}: {text}")
        return value

    return convert


_positive_int = _int_at_least(1, "must be a positive integer")
_nonnegative_int = _int_at_least(0, "must be nonnegative")


def _parsed(cls):
    """An argparse type that reads ``cls.parse`` errors as usage errors."""

    def convert(text: str):
        try:
            return cls.parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return convert


def _poly_json(poly: QPoly) -> dict[str, int]:
    return {str(e): c for e, c in enumerate(poly.coeffs) if c != 0}


def _decomposition_json(dec) -> dict:
    out: dict = {"m": dec.m, "verdict": dec.verdict.value}
    if dec.coefficients is None:
        out["a"] = None
    else:
        out["a"] = {str(d): dec.coefficients[d] for d in sorted(dec.coefficients)}
    return out


def _decomposition_lines(dec) -> list[str]:
    lines = [f"verdict: {dec.verdict.value}"]
    if dec.coefficients is not None:
        lines += [f"a_{d} = {dec.coefficients[d]}" for d in sorted(dec.coefficients)]
    return lines


def _bst_grid(tableau, shape: SkewShape) -> str:
    label = {}
    for i, strip in enumerate(tableau.strips):
        for cell in strip:
            label[cell] = i + 1
    width = max((len(str(v)) for v in label.values()), default=1)
    lines = []
    for i in range(1, shape.outer.length + 1):
        lo, hi = shape.row_interval(i)
        row = []
        for j in range(1, hi + 1):
            row.append(("." if j <= lo else str(label[(i, j)])).rjust(width))
        lines.append(" ".join(row))
    return "\n".join(lines)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


def _cmd_specialize(args) -> int:
    poly = principal_specialization(args.shape, args.vars, mod=args.mod)
    payload = {
        "shape": str(args.shape),
        "vars": args.vars,
        "mod": args.mod,
        "poly": _poly_json(poly),
    }
    _emit(args, payload, poly.to_text())
    return 0


def _cmd_analyze(args) -> int:
    if args.shift is not None:
        dec = analyze_shifted(args.shape, args.vars, args.mod, args.shift)
        payload = {"shape": str(args.shape), "vars": args.vars, "shift": args.shift}
        payload.update(_decomposition_json(dec))
        _emit(args, payload, "\n".join(_decomposition_lines(dec)))
        return 0
    report = analyze(args.shape, args.vars, args.mod)
    dec = report.decomposition
    payload = {
        "shape": str(args.shape),
        "vars": args.vars,
    }
    payload.update(_decomposition_json(dec))
    payload.update(
        {
            "row_diffs_divisible": report.row_diffs_divisible,
            "vars_divisible": report.vars_divisible,
            "border_strip": report.border_strip,
            "csp_guaranteed": report.csp_guaranteed,
            "orbit_counts": None
            if report.orbit_counts is None
            else {str(d): report.orbit_counts[d] for d in sorted(report.orbit_counts)},
        }
    )
    lines = _decomposition_lines(dec)
    lines.append(f"csp guaranteed: {'yes' if report.csp_guaranteed else 'no'}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_quotient(args) -> int:
    sq = skew_quotient(args.shape, args.order)
    if args.abacus and not args.json:
        r = args.shape.outer.length
        print("outer:")
        print(display(args.shape.outer, args.order, max(r, 1)).render())
        print("inner:")
        print(display(args.shape.inner, args.order, max(r, 1)).render())
    if not sq.exists:
        _emit(args, {"exists": False, "components": None}, "no quotient")
        return 0
    parts = [str(c) for c in sq.components]
    _emit(args, {"exists": True, "components": parts}, " ; ".join(parts))
    return 0


def _cmd_core(args) -> int:
    result = core(args.partition, args.order)
    if args.abacus and not args.json:
        print(display(args.partition, args.order, max(args.partition.length, 1)).render())
    _emit(args, {"core": str(result)}, str(result))
    return 0


def _cmd_bst(args) -> int:
    if args.shape.size % args.order != 0:
        value = SkewCharValue(0, 0, 0)
    else:
        value = skew_char_rect(args.shape, args.order)
    payload = {
        "count": value.bst_count,
        "epsilon": value.epsilon,
        "value": value.value,
    }
    lines = [f"count: {value.bst_count}", f"epsilon: {value.epsilon}"]
    if args.show:
        shown = list(islice(enumerate_bst(args.shape, args.order), args.show))
        payload["tableaux"] = [
            {"heights": list(t.heights), "total_height": t.total_height} for t in shown
        ]
        for t in shown:
            lines.append(_bst_grid(t, args.shape))
            lines.append("")
    _emit(args, payload, "\n".join(lines).rstrip())
    return 0


def _cmd_char(args) -> int:
    if (args.type is None) == (args.nu is None):
        print("error: exactly one of --type and --nu is required", file=sys.stderr)
        return 2
    if args.type is not None:
        value = skew_char_rect(args.shape, args.type)
        payload = {
            "value": value.value,
            "bst_count": value.bst_count,
            "epsilon": value.epsilon,
        }
        _emit(
            args,
            payload,
            f"value: {value.value}\nbst_count: {value.bst_count}\nepsilon: {value.epsilon}",
        )
        return 0
    value = skew_char(args.shape, args.nu)
    _emit(args, {"value": value}, str(value))
    return 0


def _cmd_eval_root(args) -> int:
    value = eval_at_root(args.shape, args.vars, args.order)
    _emit(args, {"value": value}, str(value))
    return 0


def _cmd_perm(args) -> int:
    pi = perm(args.shape, args.order)
    payload = {
        "perm": list(pi),
        "one_line": one_line_string(pi),
        "sign": permutation_sign(pi),
    }
    _emit(args, payload, one_line_string(pi))
    return 0


def _cmd_verify(args) -> int:
    results = builtin_checks()
    for res in results:
        status = "ok" if res.passed else "FAIL"
        print(f"{status:4s} {res.name}")
        if not res.passed:
            print(f"     {res.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewsieve",
        description="Exact skew Schur specializations, divisor-basis "
        "decompositions, abacus quotients, and border-strip characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--shape", type=_parsed(SkewShape), required=True, metavar="OUTER[/INNER]")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("specialize", help="principal specialization polynomial")
    add_common(p)
    p.add_argument("--vars", type=_positive_int, required=True, metavar="K")
    p.add_argument("--mod", type=_positive_int, metavar="M")
    p.set_defaults(func=_cmd_specialize)

    p = sub.add_parser("analyze", help="divisor-basis decomposition and verdict")
    add_common(p)
    p.add_argument("--vars", type=_positive_int, required=True, metavar="K")
    p.add_argument("--mod", type=_positive_int, required=True, metavar="M")
    p.add_argument("--shift", type=_nonnegative_int, metavar="I")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("quotient", help="componentwise quotient of a skew shape")
    add_common(p)
    p.add_argument("--order", type=_positive_int, required=True, metavar="D")
    p.add_argument("--abacus", action="store_true", help="also render the displays")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("core", help="core of a straight partition")
    p.add_argument("--shape", dest="partition", type=_parsed(Partition), required=True, metavar="PARTS")
    p.add_argument("--order", type=_positive_int, required=True, metavar="D")
    p.add_argument("--abacus", action="store_true", help="also render the display")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("bst", help="border-strip tableau count and sign")
    add_common(p)
    p.add_argument("--order", type=_positive_int, required=True, metavar="D")
    p.add_argument("--show", type=_positive_int, metavar="N", help="print the first N tableaux")
    p.set_defaults(func=_cmd_bst)

    p = sub.add_parser("char", help="skew character value")
    add_common(p)
    p.add_argument("--type", type=_positive_int, metavar="D", help="rectangular type of strip size D")
    p.add_argument("--nu", type=_parsed(Composition), metavar="A,B,...", help="arbitrary type")
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("eval-root", help="specialization at a root of unity")
    add_common(p)
    p.add_argument("--vars", type=_positive_int, required=True, metavar="N")
    p.add_argument("--order", type=_positive_int, required=True, metavar="D")
    p.set_defaults(func=_cmd_eval_root)

    p = sub.add_parser("perm", help="residue-class matching permutation")
    add_common(p)
    p.add_argument("--order", type=_positive_int, required=True, metavar="D")
    p.set_defaults(func=_cmd_perm)

    p = sub.add_parser("verify", help="run the built-in regression checks")
    p.set_defaults(func=_cmd_verify, json=False)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
