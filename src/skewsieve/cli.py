"""Command-line front end with stable text and JSON output.

Exit codes: 0 success, 1 domain error (for example a missing quotient
where one is required, a flag past its budget, work past the limit that
``run`` sets on ``_meter``, or an answer of more than ``_DIGITS`` digits)
or a stdout closed by its reader, 2 usage error, 3 internal error (a
broken invariant inside the library, reported as one line on stderr).
argparse raises every usage error.  A command returns its JSON payload
and its text (``verify`` also its exit code), and ``run`` writes one of
them to stdout once, after the command succeeds, so an error leaves
stdout empty.  All output is deterministic, whatever
PYTHONINTMAXSTRDIGITS is set to; divisor maps keep the ascending key
order in which ``analyze`` returns them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
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
from .qpoly import QPoly, Verdict
from . import _meter, schur
from .shapes import Composition, Partition, SkewShape


def _int_at_least(low: int, complaint: str):
    """An argparse type for ASCII digits with an optional leading "-",
    spaces allowed around them; ``int`` alone would also take "+2", "1_0"
    and non-ASCII digits."""

    def convert(text: str) -> int:
        digits = text.strip().removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if len(digits) > _DIGITS:
            raise argparse.ArgumentTypeError(_TOO_LONG)
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{complaint}: {text}")
        return value

    return convert


_positive_int = _int_at_least(1, "must be a positive integer")
_nonnegative_int = _int_at_least(0, "must be nonnegative")


def _parsed(cls):
    """An argparse type that reads ``cls.parse`` errors as usage errors,
    refusing a run of more than ``_DIGITS`` digits before it is read."""

    def convert(text: str):
        if max(map(len, re.findall("[0-9]+", text)), default=0) > _DIGITS:
            raise argparse.ArgumentTypeError(_TOO_LONG)
        try:
            return cls.parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return convert


# The most digits a parsed or printed integer may have.  While ``run``
# parses and prints, the interpreter's own cap on int-str conversion,
# which PYTHONINTMAXSTRDIGITS may set, is held at the same value
# (CPython's default; versions before 3.10.7 have no cap).
_DIGITS = 4300
_get_cap = getattr(sys, "get_int_max_str_digits", int)
_set_cap = getattr(sys, "set_int_max_str_digits", lambda digits: None)
_TOO_LONG = f"an integer is above the limit of {_DIGITS} digits"


def _printable(values, command: str) -> None:
    """Refuse integers of more than ``_DIGITS`` digits before any is
    converted: below 3 * _DIGITS bits every integer is less than
    10^_DIGITS, so only a longer one is compared with it."""
    largest = max(map(abs, values), default=0)
    if largest.bit_length() > 3 * _DIGITS and largest >= 10**_DIGITS:
        raise ValueError(f"an answer is above the limit of {_DIGITS} digits for {command}")


def _poly_json(poly: QPoly) -> dict[str, int]:
    return {str(e): c for e, c in enumerate(poly.coeffs) if c != 0}


def _at_most(name: str, value: int, power: int, command: str) -> None:
    """Reject a flag value, or a size read off the flags, past its budget
    before any work is done."""
    if value > 10**power:
        shown = value if value.bit_length() <= 3 * _DIGITS else f"of {value.bit_length()} bits"
        raise ValueError(f"{name} {shown} is above the limit of 10^{power} for {command}")


def _display_budget(partitions, d: int, r: int, command: str) -> None:
    """Refuse r-bead displays of more than 10^6 cells in all: each is d
    columns wide and has a row for every d positions up to its largest
    bead, part_1 + r - 1."""
    cells = d * sum((lam.part(0) + r - 1) // d + 1 for lam in partitions)
    _at_most("the display cell count", cells, 6, command)


def _decomposition(dec) -> tuple[dict, list[str]]:
    """The JSON fields and the text lines of a decomposition."""
    verdict, a = dec.verdict.value, None
    lines = [f"verdict: {verdict}"]
    if dec.coefficients is not None:
        _printable(dec.coefficients.values(), "analyze")
        a = {str(d): c for d, c in dec.coefficients.items()}
        lines += [f"a_{d} = {c}" for d, c in a.items()]
    return {"m": dec.m, "verdict": verdict, "a": a}, lines


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


def _cmd_specialize(args):
    # the text and the JSON list every coefficient up to the fold
    terms = args.shape.size * (args.vars - 1) + 1
    _at_most("the coefficient count", min(terms, args.mod or terms), 6, "specialize")
    poly = schur.principal_specialization(args.shape, args.vars, mod=args.mod)
    _printable(poly.coeffs, "specialize")
    payload = {
        "shape": str(args.shape),
        "vars": args.vars,
        "mod": args.mod,
        "poly": _poly_json(poly),
    }
    return payload, str(poly)


def _cmd_analyze(args):
    # ``divisors`` trial-divides up to the square root of the modulus only
    # when it has a large prime factor
    _at_most("--mod", args.mod, 12, "analyze")
    # the shift pads that many zero coefficients before the fold
    _at_most("--shift", args.shift or 0, 6, "analyze")
    payload = {"shape": str(args.shape), "vars": args.vars}
    if args.shift is not None:
        payload["shift"] = args.shift
        fields, lines = _decomposition(analyze_shifted(args.shape, args.vars, args.mod, args.shift))
        payload.update(fields)
        return payload, "\n".join(lines)
    report = analyze(args.shape, args.vars, args.mod)
    fields, lines = _decomposition(report.decomposition)
    payload.update(fields)
    payload.update(
        {
            "row_diffs_divisible": report.row_diffs_divisible,
            "vars_divisible": report.vars_divisible,
            "border_strip": report.border_strip,
            "csp_guaranteed": report.csp_guaranteed,
            "orbit_counts": fields["a"] if report.decomposition.verdict is Verdict.CSP else None,
        }
    )
    lines.append(f"csp guaranteed: {'yes' if report.csp_guaranteed else 'no'}")
    return payload, "\n".join(lines)


def _cmd_quotient(args):
    # the answer is D components, the displays D columns wide
    _at_most("--order", args.order, 5, "quotient")
    text = ""
    if args.abacus:
        r = max(args.shape.outer.length, 1)
        _display_budget((args.shape.outer, args.shape.inner), args.order, r, "quotient --abacus")
        text = (
            f"outer:\n{display(args.shape.outer, args.order, r)}\n"
            f"inner:\n{display(args.shape.inner, args.order, r)}\n"
        )
    sq = skew_quotient(args.shape, args.order)
    if not sq.exists:
        return {"exists": False, "components": None}, text + "no quotient"
    parts = [str(c) for c in sq.components]
    return {"exists": True, "components": parts}, text + " ; ".join(parts)


def _cmd_core(args):
    text = ""
    if args.abacus:
        _at_most("--order", args.order, 5, "core --abacus")
        r = max(args.partition.length, 1)
        _display_budget((args.partition,), args.order, r, "core --abacus")
        text = display(args.partition, args.order, r) + "\n"
    result = str(core(args.partition, args.order))
    return {"core": result}, text + result


def _cmd_bst(args):
    if args.shape.size % args.order != 0:
        value = SkewCharValue(0, 0)
    else:
        value = skew_char_rect(args.shape, args.order)
    _printable((value.bst_count,), "bst")
    payload = {
        "count": value.bst_count,
        "epsilon": value.epsilon,
        "value": value.value,
    }
    lines = [f"{key}: {payload[key]}" for key in ("count", "epsilon")]
    if args.show:
        # each listed tableau builds |λ/μ| / D strips, about 2 µs each
        strips = min(args.show, value.bst_count) * (args.shape.size // args.order)
        _at_most("the listed strip count", strips, 6, "bst")
        shown = list(islice(enumerate_bst(args.shape, args.order), args.show))
        payload["tableaux"] = [
            {"heights": list(t.heights), "total_height": t.total_height} for t in shown
        ]
        for t in shown:
            lines += [_bst_grid(t, args.shape), ""]
    return payload, "\n".join(lines).rstrip()


def _cmd_char(args):
    if args.nu is not None:
        value = skew_char(args.shape, args.nu)
        _printable((value,), "char")
        return {"value": value}, str(value)
    char = skew_char_rect(args.shape, args.type)
    _printable((char.bst_count,), "char")
    payload = {"value": char.value, "bst_count": char.bst_count, "epsilon": char.epsilon}
    return payload, "\n".join(f"{key}: {value}" for key, value in payload.items())


def _cmd_eval_root(args):
    value = eval_at_root(args.shape, args.vars, args.order)
    _printable((value,), "eval-root")
    return {"value": value}, str(value)


def _cmd_perm(args):
    pi = perm(args.shape, args.order)
    payload = {
        "perm": list(pi),
        "one_line": one_line_string(pi),
        "sign": permutation_sign(pi),
    }
    return payload, payload["one_line"]


def _cmd_verify(args):
    results = builtin_checks()
    lines = []
    for res in results:
        lines.append(f"{'ok' if res.passed else 'FAIL':4s} {res.name}")
        if not res.passed:
            lines.append(f"     {res.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return None, "\n".join(lines), 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewsieve",
        description="Exact skew Schur specializations, divisor-basis "
        "decompositions, abacus quotients, and border-strip characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, skew=True):
        """A subcommand; ``skew`` adds the skew ``--shape`` and ``--json``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if skew:
            p.add_argument("--shape", type=_parsed(SkewShape), required=True, metavar="OUTER[/INNER]")
            p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    def add_vars(p, metavar="K"):
        p.add_argument("--vars", type=_positive_int, required=True, metavar=metavar)

    def add_order(p):
        p.add_argument("--order", type=_positive_int, required=True, metavar="D")

    p = command("specialize", _cmd_specialize, "principal specialization polynomial")
    add_vars(p)
    p.add_argument("--mod", type=_positive_int, metavar="M")

    p = command("analyze", _cmd_analyze, "divisor-basis decomposition and verdict")
    add_vars(p)
    p.add_argument("--mod", type=_positive_int, required=True, metavar="M")
    p.add_argument("--shift", type=_nonnegative_int, metavar="I")

    p = command("quotient", _cmd_quotient, "componentwise quotient of a skew shape")
    add_order(p)
    p.add_argument("--abacus", action="store_true", help="also render the displays")

    p = command("core", _cmd_core, "core of a straight partition", skew=False)
    p.add_argument("--shape", dest="partition", type=_parsed(Partition), required=True, metavar="PARTS")
    add_order(p)
    p.add_argument("--abacus", action="store_true", help="also render the display")
    p.add_argument("--json", action="store_true", help="emit JSON")

    p = command("bst", _cmd_bst, "border-strip tableau count and sign")
    add_order(p)
    p.add_argument("--show", type=_positive_int, metavar="N", help="print the first N tableaux")

    p = command("char", _cmd_char, "skew character value")
    strips = p.add_mutually_exclusive_group(required=True)
    strips.add_argument("--type", type=_positive_int, metavar="D", help="rectangular type of strip size D")
    strips.add_argument("--nu", type=_parsed(Composition), metavar="A,B,...", help="arbitrary type")

    p = command("eval-root", _cmd_eval_root, "specialization at a root of unity")
    add_vars(p, metavar="N")
    add_order(p)

    p = command("perm", _cmd_perm, "residue-class matching permutation")
    add_order(p)

    command("verify", _cmd_verify, "run the built-in regression checks", skew=False).set_defaults(json=False)

    return parser


def run(argv: list[str]) -> int:
    cap = _get_cap()
    _set_cap(_DIGITS)
    try:
        args = build_parser().parse_args(argv)
        _meter.left, _meter.command = _meter.LIMIT, args.command
        payload, text, *code = args.func(args)
        print(json.dumps(payload) if args.json else text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        _meter.left = _meter.command = None
        _set_cap(cap)
    return code[0] if code else 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send the interpreter's exit flush to
        # devnull so it does not raise again, and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
