"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is exact integer arithmetic; every comparison is
bit-exact.  Criterion 12 is split: 12a checks that the closed formula and
the decomposition route agree on root-of-unity values, and 12b checks when
that value is zero (the quotient is missing, or a quotient component has a
column longer than the number of letters per residue class).
"""

import os
import subprocess
import sys
from math import gcd, lcm
from pathlib import Path

import skewsieve
from skewsieve.abacus import runner_classes, skew_quotient
from skewsieve.analysis import analyze, analyze_shifted
from skewsieve.characters import (
    eval_at_root,
    kostka_foulkes_rect_at_root,
    one_line_string,
    perm,
    permutation_sign,
    skew_char,
    skew_char_rect,
)
from skewsieve.qpoly import (
    Verdict,
    divisors,
    eval_at_primitive_root,
    gaussian_binomial,
    reduce_mod,
)
from skewsieve.schur import jt_matrix, principal_specialization, ssyt_generating_function
from skewsieve.shapes import Partition, SkewShape

from helpers import (
    a_coefficient,
    basis_element,
    border_strip_shape,
    coefficient,
    compositions_with_parts,
    conjugate,
    is_horizontal_strip,
    linear_combination,
    partitions_in_box,
    partitions_up_to,
    subpartitions,
    subpartitions_mod,
    verify_qbinomial_reduction_identity,
)


def report(num, text):
    print(f"criterion {num}: PASS — {text}")


def test_c01_stretched_shape_decomposition_mod9():
    shape = SkewShape(Partition([3, 3, 2, 1]).stretch(9), Partition([2, 1]).stretch(9))
    assert shape == SkewShape(Partition([27, 27, 18, 9]), Partition([18, 9]))
    dec = analyze(shape, 4, 9).decomposition
    assert dec.verdict is Verdict.PRE_CSP
    assert dec.coefficients == {1: 1, 3: -3, 9: 54665112}
    report("01", "27,27,18,9/18,9 @ 4 vars mod 9 gives {1:1, 3:-3, 9:54665112}, pre-csp")


def test_c02_stretched_shape_decomposition_mod4():
    shape = SkewShape(Partition([3, 3, 1]).stretch(4), Partition([2, 1]).stretch(4))
    assert shape == SkewShape(Partition([12, 12, 4]), Partition([8, 4]))
    dec = analyze(shape, 6, 4).decomposition
    assert dec.verdict is Verdict.CSP
    assert dec.coefficients == {1: 12, 2: 264, 4: 1576440}
    report("02", "12,12,4/8,4 @ 6 vars mod 4 gives {1:12, 2:264, 4:1576440}, csp")


def test_c03_all_shifts_leave_the_basis_span():
    shape = SkewShape(Partition([27, 27, 18, 9]), Partition([18, 9]))
    for i in range(1, 9):
        assert analyze_shifted(shape, 4, 9, i).verdict is Verdict.NOT_PRE_CSP
    report("03", "q^i shifts for i=1..8 are all not-pre-csp mod 9")


def test_c04_three_quotient_of_the_seven_row_shape():
    shape = SkewShape(Partition([9, 9, 6, 6, 6, 4, 1]), Partition([2, 1, 1, 1]))
    sq = skew_quotient(shape, 3)
    assert sq.exists
    assert sq.components == (
        SkewShape(Partition([4, 3]), Partition([1])),
        SkewShape(Partition([2])),
        SkewShape(Partition([2, 1, 1])),
    )
    report("04", "3-quotient is ((4,3)/(1), (2), (2,1,1))")


def test_c05_matching_permutation_and_character_sign():
    shape = SkewShape(Partition([9, 9, 6, 6, 6, 4, 1]), Partition([2, 1, 1, 1]))
    pi = perm(shape, 3)
    assert one_line_string(pi) == "2147356"
    sign = permutation_sign(pi)
    # the character side comes from the strip walk, independent of perm
    walk = skew_char(shape, (3,) * (shape.size // 3))
    assert sign == -1 and walk < 0
    # height parity: the signed walk sum is the full tableau count
    assert abs(walk) == skew_char_rect(shape, 3).bst_count
    report("05", "perm = 2147356 with sign -1 = character sign")


def test_c06_index_matrix_and_runner_classes():
    shape = SkewShape(Partition([13, 10, 10, 10, 6]), Partition([7, 4, 4, 4]))
    matrix = jt_matrix(shape)
    assert matrix == (
        (6, 10, 11, 12, 17),
        (2, 6, 7, 8, 13),
        (1, 5, 6, 7, 12),
        (0, 4, 5, 6, 11),
        (-5, -1, 0, 1, 6),
    )
    assert all(matrix[i][i] == 6 for i in range(5))
    assert matrix[4][0] == -5 and matrix[0][4] == 17
    assert runner_classes(shape, 3) == ((3, 5), (2,), (1, 4))
    report("06", "index matrix matches and 3-runner classes are {3,5},{2},{1,4}")


def test_c07_determinant_equals_enumeration_exhaustively():
    checked = 0
    for lam in partitions_up_to(6):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            for k in range(1, 5):
                assert principal_specialization(shape, k) == ssyt_generating_function(
                    shape, k
                )
                checked += 1
    report("07", f"determinant = enumeration on {checked} (shape, k) cases")


def test_c08_divisible_rows_and_vars_grid_is_all_csp():
    checked = 0
    for lam in partitions_in_box(4, 6):
        for m in (1, 2, 3, 4):
            for mu in subpartitions_mod(lam, m):
                shape = SkewShape(Partition(lam), Partition(mu))
                for k in (1, 2, 3):
                    rep = analyze(shape, k * m, m)
                    assert rep.csp_guaranteed
                    assert rep.decomposition.verdict is Verdict.CSP
                    checked += 1
    report("08", f"all {checked} divisible-row grid cases decompose nonnegatively")


def test_c09_border_strip_grid_is_all_csp():
    checked = 0
    for m in (1, 2, 3, 4):
        rows = [p for p in range(1, 7) if p % m == 0]
        for alpha in compositions_with_parts(4, rows):
            shape = border_strip_shape(alpha)
            for k in range(1, 7):
                rep = analyze(shape, k, m)
                assert rep.csp_guaranteed
                assert rep.decomposition.verdict is Verdict.CSP
                checked += 1
    report("09", f"all {checked} border-strip grid cases decompose nonnegatively")


def test_c10_divisor_geometric_sum_product_identity():
    checked = 0
    for m in range(1, 25):
        for a in divisors(m):
            for b in divisors(m):
                lhs = reduce_mod(basis_element(m, m // a) * basis_element(m, m // b), m)
                rhs = linear_combination([(m // lcm(a, b), basis_element(m, m // gcd(a, b)))])
                assert lhs == reduce_mod(rhs, m)
                checked += 1
    report("10", f"geometric-sum product identity bit-exact in {checked} cases")


def test_c11_fold_identity_and_coefficient_recurrence():
    folds = 0
    for n in range(1, 13):
        for k in range(1, 7):
            for m in divisors(n):
                assert verify_qbinomial_reduction_identity(n, k, m)
                folds += 1
    recurrences = 0
    for k in range(1, 9):
        for n in range(1, 9):
            reduced = reduce_mod(gaussian_binomial(n, k), k)
            for l in range(k):
                direct = coefficient(reduced, l)
                assert a_coefficient(l, k, n) == direct
                via_recurrence = sum(
                    a_coefficient(1, k // d, n // d)
                    for d in divisors(gcd(n, k, l) if l else gcd(n, k))
                )
                assert direct == via_recurrence
                recurrences += 1
    report("11", f"{folds} fold identities and {recurrences} recurrence cases agree")


def _root_evaluation_grid():
    for lam in partitions_up_to(8):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            for n_vars in range(1, 7):
                for d in divisors(n_vars):
                    yield shape, n_vars, d


def test_c12a_root_evaluation_two_routes_agree():
    checked = 0
    for shape, n_vars, d in _root_evaluation_grid():
        formula = eval_at_root(shape, n_vars, d)
        poly = principal_specialization(shape, n_vars, mod=d)
        assert formula == eval_at_primitive_root(poly, d, 1)
        if not skew_quotient(shape, d).exists:
            assert formula == 0
        checked += 1
    report("12a", f"closed formula = decomposition route on {checked} cases")


def _longest_column(shape):
    """Longest column of a skew shape: max over j of lambda'_j - mu'_j."""
    outer, inner = conjugate(shape.outer), conjugate(shape.inner)
    return max((outer.part(j) - inner.part(j) for j in range(outer.length)), default=0)


def test_c12b_zero_value_iff_quotient_missing():
    """The evaluation vanishes exactly when the d-quotient is missing or
    some quotient component has a column longer than n_vars/d.

    When the quotient exists the value is a sign times the product over
    components of their fillings with n_vars/d letters, and a skew shape
    can be filled with N letters exactly when no column is longer than N.
    Column lengths come from partition conjugates alone, so the predicate
    is independent of the filling counts it checks.  Smallest named case:
    shape 3,2/1 with n_vars = d = 2 has quotient (1,1 ; empty) and value 0.
    """
    anchor = SkewShape(Partition([3, 2]), Partition([1]))
    assert skew_quotient(anchor, 2).exists
    assert eval_at_root(anchor, 2, 2) == 0

    counts = {"no quotient": 0, "column too long": 0, "nonzero": 0}
    failures = []
    for shape, n_vars, d in _root_evaluation_grid():
        value = eval_at_root(shape, n_vars, d)
        sq = skew_quotient(shape, d)
        if not sq.exists:
            kind = "no quotient"
        elif any(_longest_column(c) > n_vars // d for c in sq.components):
            kind = "column too long"
        else:
            kind = "nonzero"
        counts[kind] += 1
        if (value == 0) != (kind != "nonzero"):
            failures.append((str(shape), n_vars, d, value, kind))
    assert not failures, (
        f"{len(failures)} grid cases break the zero criterion, first few: {failures[:5]}"
    )
    assert all(counts.values()), f"a class of the grid is empty: {counts}"
    report(
        "12b",
        "evaluation vanishes exactly when the quotient is missing or a component "
        f"column exceeds n/d ({', '.join(f'{v} {k}' for k, v in counts.items())})",
    )


def test_c13_top_order_root_values_and_kostka_foulkes():
    checked = 0
    for lam in partitions_up_to(10):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            for n_vars in range(1, 5):
                if shape.size % n_vars:
                    continue
                m = shape.size // n_vars
                value = eval_at_root(shape, n_vars, n_vars)
                assert value in (-1, 0, 1)
                sq = skew_quotient(shape, n_vars)
                flat = sq.exists and all(is_horizontal_strip(c) for c in sq.components)
                assert (value != 0) == flat
                expected_sign = -1 if ((n_vars - 1) * m) % 2 else 1
                assert kostka_foulkes_rect_at_root(shape, n_vars, m) == expected_sign * value
                checked += 1
    report("13", f"top-order evaluations in {{-1,0,1}} with strip test on {checked} cases")


def test_c14_cli_verify_runs_green():
    # the child imports the same copy of the package as this suite
    src = str(Path(skewsieve.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "skewsieve", "verify"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "6/6 checks passed" in proc.stdout
    report("14", "CLI verify exits 0 with all built-in checks passing")
