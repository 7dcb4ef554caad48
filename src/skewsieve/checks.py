"""Built-in regression checks behind the ``verify`` CLI subcommand.

Each check pins a concrete value the library must reproduce exactly:
divisor-basis decompositions of two stretched skew shapes, the shifted
variants that fall outside the basis span, a 3-quotient, a residue-class
matching permutation whose sign the strip walk confirms, and a
Jacobi-Trudi index matrix with its runner classes.
"""

from __future__ import annotations

from typing import NamedTuple

from .abacus import runner_classes, skew_quotient
from .analysis import analyze, analyze_shifted
from .characters import one_line_string, perm, permutation_sign, skew_char, skew_char_rect
from .schur import jt_matrix
from .shapes import SkewShape


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _decomposition(shape: SkewShape, k: int, m: int) -> tuple:
    dec = analyze(shape, k, m).decomposition
    return dec.verdict.value, dec.coefficients


def builtin_checks() -> list[CheckResult]:
    """Run every pinned regression check; order is fixed."""
    big = SkewShape.parse("27,27,18,9/18,9")
    seven = SkewShape.parse("9,9,6,6,6,4,1/2,1,1,1")
    banded = SkewShape.parse("13,10,10,10,6/7,4,4,4")
    sq = skew_quotient(seven, 3)
    pi = perm(seven, 3)
    # the character side comes from the strip walk, not from the sign of pi
    walk = skew_char(seven, (3,) * (seven.size // 3))
    count = skew_char_rect(seven, 3).bst_count
    table = [
        (
            "decomposition 27,27,18,9/18,9 (4 vars, mod 9)",
            _decomposition(big, 4, 9),
            ("pre-csp", {1: 1, 3: -3, 9: 54665112}),
        ),
        (
            "decomposition 12,12,4/8,4 (6 vars, mod 4)",
            _decomposition(SkewShape.parse("12,12,4/8,4"), 6, 4),
            ("csp", {1: 12, 2: 264, 4: 1576440}),
        ),
        (
            "shifted decompositions all leave the basis span",
            [analyze_shifted(big, 4, 9, i).verdict.value for i in range(1, 9)],
            ["not-pre-csp"] * 8,
        ),
        (
            "3-quotient of 9,9,6,6,6,4,1/2,1,1,1",
            sq.exists and [str(c) for c in sq.components],
            ["4,3/1", "2", "2,1,1"],
        ),
        (
            "matching permutation 2147356 with sign -1 = character sign",
            (one_line_string(pi), permutation_sign(pi), walk, count),
            ("2147356", -1, -582120, 582120),
        ),
        (
            "index matrix of 13,10,10,10,6/7,4,4,4 and its 3-runner classes",
            (jt_matrix(banded).entries, runner_classes(banded, 3, "lambda")),
            (
                (
                    (6, 10, 11, 12, 17),
                    (2, 6, 7, 8, 13),
                    (1, 5, 6, 7, 12),
                    (0, 4, 5, 6, 11),
                    (-5, -1, 0, 1, 6),
                ),
                ((3, 5), (2,), (1, 4)),
            ),
        ),
    ]
    return [CheckResult(name, got == pinned, f"computed {got}") for name, got, pinned in table]
