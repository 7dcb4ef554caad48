"""Built-in regression checks behind the ``verify`` CLI subcommand.

Each check pins a concrete value the library must reproduce exactly:
divisor-basis decompositions of two stretched skew shapes, the shifted
variants that fall outside the basis span, a 3-quotient, a residue-class
matching permutation whose sign the strip walk confirms, and a
Jacobi-Trudi index matrix with its runner classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abacus import runner_classes, skew_quotient
from .analysis import analyze, analyze_shifted
from .characters import one_line_string, perm, permutation_sign, skew_char, skew_char_rect
from .qpoly import Verdict
from .schur import jt_matrix
from .shapes import Partition, SkewShape


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_decomposition_9() -> CheckResult:
    shape = SkewShape(Partition([27, 27, 18, 9]), Partition([18, 9]))
    report = analyze(shape, 4, 9)
    expected = {1: 1, 3: -3, 9: 54665112}
    ok = (
        report.decomposition.verdict is Verdict.PRE_CSP
        and report.decomposition.coefficients == expected
    )
    return CheckResult(
        "decomposition 27,27,18,9/18,9 (4 vars, mod 9)",
        ok,
        f"verdict={report.decomposition.verdict.value} a={report.decomposition.coefficients}",
    )


def _check_decomposition_4() -> CheckResult:
    shape = SkewShape(Partition([12, 12, 4]), Partition([8, 4]))
    report = analyze(shape, 6, 4)
    expected = {1: 12, 2: 264, 4: 1576440}
    ok = (
        report.decomposition.verdict is Verdict.CSP
        and report.decomposition.coefficients == expected
    )
    return CheckResult(
        "decomposition 12,12,4/8,4 (6 vars, mod 4)",
        ok,
        f"verdict={report.decomposition.verdict.value} a={report.decomposition.coefficients}",
    )


def _check_shifted() -> CheckResult:
    shape = SkewShape(Partition([27, 27, 18, 9]), Partition([18, 9]))
    verdicts = [analyze_shifted(shape, 4, 9, i).verdict for i in range(1, 9)]
    ok = all(v is Verdict.NOT_PRE_CSP for v in verdicts)
    return CheckResult(
        "shifted decompositions all leave the basis span",
        ok,
        f"verdicts={[v.value for v in verdicts]}",
    )


def _check_quotient() -> CheckResult:
    shape = SkewShape(Partition([9, 9, 6, 6, 6, 4, 1]), Partition([2, 1, 1, 1]))
    sq = skew_quotient(shape, 3)
    expected = (
        SkewShape(Partition([4, 3]), Partition([1])),
        SkewShape(Partition([2])),
        SkewShape(Partition([2, 1, 1])),
    )
    ok = sq.exists and sq.components == expected
    return CheckResult(
        "3-quotient of 9,9,6,6,6,4,1/2,1,1,1",
        ok,
        f"exists={sq.exists} components={[str(c) for c in (sq.components or ())]}",
    )


def _check_perm_and_sign() -> CheckResult:
    shape = SkewShape(Partition([9, 9, 6, 6, 6, 4, 1]), Partition([2, 1, 1, 1]))
    pi = perm(shape, 3)
    sign = permutation_sign(pi)
    # the character side comes from the strip walk, not from the sign above
    walk = skew_char(shape, (3,) * (shape.size // 3))
    count = skew_char_rect(shape, 3).bst_count
    ok = (
        one_line_string(pi) == "2147356"
        and sign == -1
        and walk < 0
        and abs(walk) == count
    )
    return CheckResult(
        "matching permutation 2147356 with sign -1 = character sign",
        ok,
        f"perm={one_line_string(pi)} sign={sign} walk={walk} bst_count={count}",
    )


def _check_jt_and_runners() -> CheckResult:
    shape = SkewShape(Partition([13, 10, 10, 10, 6]), Partition([7, 4, 4, 4]))
    matrix = jt_matrix(shape)
    expected = (
        (6, 10, 11, 12, 17),
        (2, 6, 7, 8, 13),
        (1, 5, 6, 7, 12),
        (0, 4, 5, 6, 11),
        (-5, -1, 0, 1, 6),
    )
    classes = runner_classes(shape, 3, "lambda")
    ok = matrix.entries == expected and classes == ((3, 5), (2,), (1, 4))
    return CheckResult(
        "index matrix of 13,10,10,10,6/7,4,4,4 and its 3-runner classes",
        ok,
        f"entries={matrix.entries} classes={classes}",
    )


def builtin_checks() -> list[CheckResult]:
    """Run every pinned regression check; order is fixed."""
    return [
        _check_decomposition_9(),
        _check_decomposition_4(),
        _check_shifted(),
        _check_quotient(),
        _check_perm_and_sign(),
        _check_jt_and_runners(),
    ]
