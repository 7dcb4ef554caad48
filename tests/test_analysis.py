import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from skewsieve import analysis, schur
from skewsieve.abacus import SkewQuotient
from skewsieve.analysis import CspReport, analyze, analyze_shifted
from skewsieve.characters import SkewCharValue
from skewsieve.cli import run
from skewsieve.qpoly import (
    CspDecomposition,
    QPoly,
    Verdict,
    csp_decompose,
    divisors,
    gaussian_binomial,
)
from skewsieve.schur import count_ssyt, principal_specialization
from skewsieve.shapes import Partition, SkewShape

from helpers import (
    border_strip_shape,
    compositions_with_parts,
    linear_combination,
    partitions_up_to,
    subpartitions,
    verify_qbinomial_reduction_identity,
)


def test_analyze_headline_cases():
    rep = analyze(SkewShape(Partition([27, 27, 18, 9]), Partition([18, 9])), 4, 9)
    assert rep.decomposition.verdict is Verdict.PRE_CSP
    assert rep.decomposition.coefficients == {1: 1, 3: -3, 9: 54665112}
    assert rep.row_diffs_divisible and not rep.vars_divisible
    assert not rep.csp_guaranteed and rep.decomposition.verdict is not Verdict.CSP

    shape = SkewShape(Partition([12, 12, 4]), Partition([8, 4]))
    rep = analyze(shape, 6, 4)
    assert rep.decomposition.verdict is Verdict.CSP
    assert rep.decomposition.coefficients == {1: 12, 2: 264, 4: 1576440}
    # under CSP, a_d counts the orbits of size d, which cover every filling
    assert sum(d * a for d, a in rep.decomposition.coefficients.items()) == count_ssyt(shape, 6)


def test_analyze_trivial_shape():
    lam = Partition([3, 1])
    rep = analyze(SkewShape(lam, lam), 5, 6)
    assert rep.decomposition.verdict is Verdict.CSP
    assert rep.decomposition.coefficients == {d: (1 if d == 1 else 0) for d in divisors(6)}
    assert rep.row_diffs_divisible and not rep.csp_guaranteed  # 6 does not divide 5
    assert analyze(SkewShape(lam, lam), 6, 6).csp_guaranteed


def test_records_store_only_the_fields_that_decide_them():
    assert CspDecomposition._fields == ("m", "coefficients")
    assert CspReport._fields == ("decomposition", "row_diffs_divisible", "vars_divisible", "border_strip")
    assert SkewQuotient._fields == ("components",)
    assert SkewCharValue._fields == ("bst_count", "epsilon")
    assert not SkewQuotient(None).exists and SkewQuotient(()).exists
    assert SkewCharValue(5, -1).value == -5 and SkewCharValue(0, 0).value == 0


def test_guarantee_is_read_off_the_flags():
    # divisible row differences, and divisible variables or a border strip
    guaranteed = {(True, True, False), (True, False, True), (True, True, True)}
    dec = CspDecomposition(2, {1: 1, 2: 0})
    for flags in product((False, True), repeat=3):
        assert CspReport(dec, *flags).csp_guaranteed is (flags in guaranteed)


def test_analyze_full_path_agrees():
    # decomposing the unreduced polynomial agrees with analyze, which
    # computes the determinant inside the residue ring
    shape = SkewShape(Partition([12, 12, 4]), Partition([8, 4]))
    full = csp_decompose(principal_specialization(shape, 6), 4)
    assert analyze(shape, 6, 4).decomposition == full
    big = SkewShape(Partition([27, 27, 18, 9]), Partition([18, 9]))
    full = csp_decompose(principal_specialization(big, 4), 9)
    assert full == analyze(big, 4, 9).decomposition
    assert full.coefficients == {1: 1, 3: -3, 9: 54665112}


def test_large_modulus_costs_divisors_not_residues():
    # the divisor basis is read one divisor of 10**7 at a time (64 of them);
    # a list of all 10**7 reduced coefficients would trace about 85 MB
    tracemalloc.start()
    try:
        rep = analyze(SkewShape.parse("2,1"), 2, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rep.decomposition.verdict is Verdict.NOT_PRE_CSP
    dec = analyze(SkewShape.parse("1"), 1, 10**7).decomposition
    assert dec.verdict is Verdict.CSP
    divs = divisors(10**7)
    assert len(divs) == 64
    assert list(dec.coefficients.items()) == [(d, 1 if d == 1 else 0) for d in divs]


def kronecker_decomposition(shape, k, m):
    """The oracle for analyze when m divides k: the Kronecker determinant,
    folded and decomposed."""
    return csp_decompose(principal_specialization(shape, k, mod=m), m)


def test_root_values_match_the_kronecker_route_exhaustively(monkeypatch):
    # with m dividing k, analyze builds no Kronecker integer and counts no fillings
    def refused(*args, **kwargs):
        raise AssertionError("took the Kronecker route")

    cases = [
        (SkewShape(Partition(lam), Partition(mu)), k, m)
        for lam in partitions_up_to(7)
        for mu in subpartitions(lam)
        for m in range(1, 7)
        for k in (m, 2 * m, 3 * m)
        if k <= 9
    ]
    with monkeypatch.context() as patched:
        patched.setattr(analysis, "principal_specialization", refused)
        patched.setattr(schur, "count_ssyt", refused)
        got = [analyze(*case).decomposition for case in cases]
    assert len(cases) == 5837  # 13 of them on the empty shape
    for case, dec in zip(cases, got):
        assert dec == kronecker_decomposition(*case)
        assert list(dec.coefficients) == divisors(case[2])


SHAPES_UP_TO_8 = [SkewShape(Partition(lam), Partition(mu))
                  for lam in partitions_up_to(8) for mu in subpartitions(lam)]


@settings(max_examples=150)
@given(st.sampled_from(SHAPES_UP_TO_8), st.integers(1, 8), st.integers(1, 3))
@example(SkewShape.parse("2,2,2,2,2,2"), 8, 1)  # the values at orders 4 and 8 are 0
@example(SkewShape.parse("3,1"), 2, 2)  # PRE_CSP: a_1 < 0
def test_root_values_match_the_kronecker_route_property(shape, m, t):
    assert analyze(shape, m * t, m).decomposition == kronecker_decomposition(shape, m * t, m)


def test_a_wrong_root_value_is_reported_as_a_bug(capsys, monkeypatch):
    # f(1) and f(-1) agree mod 2, so one changed value leaves 2 * a_2 odd
    root = analysis.eval_at_root
    monkeypatch.setattr(analysis, "eval_at_root", lambda shape, k, d: root(shape, k, d) + (d == 1))
    message = ("the root values of 2,2 at k=2 give 1 for 2 * a_2, which 2 does not divide; "
               "this indicates a bug in this library")
    with pytest.raises(RuntimeError) as raised:
        analyze(SkewShape.parse("2,2"), 2, 2)
    assert str(raised.value) == message
    assert run(["analyze", "--shape", "2,2", "--vars", "2", "--mod", "2"]) == 3
    assert capsys.readouterr() == ("", f"internal error: {message}\n")


def test_analyze_validates_input():
    shape = SkewShape.parse("2,1")
    with pytest.raises(ValueError):
        analyze(shape, 0, 3)
    with pytest.raises(ValueError):
        analyze(shape, 3, 0)


def test_analyze_shifted():
    shape = SkewShape(Partition([12, 12, 4]), Partition([8, 4]))
    assert analyze_shifted(shape, 6, 4, 0) == analyze(shape, 6, 4).decomposition
    lam = Partition([2])
    assert (
        analyze_shifted(SkewShape(lam, lam), 2, 3, 1).verdict is Verdict.NOT_PRE_CSP
    )
    with pytest.raises(ValueError):
        analyze_shifted(shape, 6, 4, 4)
    # k and m are checked first, with analyze's message
    for k, m in ((3, 0), (0, 3)):
        with pytest.raises(ValueError, match=r"^k and m must be >= 1$"):
            analyze_shifted(shape, k, m, 0)


def test_qbinomial_reduction_identity():
    assert verify_qbinomial_reduction_identity(4, 3, 2) is True
    assert verify_qbinomial_reduction_identity(5, 1, 5) is True
    for n in range(1, 9):
        for k in range(1, 5):
            for m in divisors(n):
                assert verify_qbinomial_reduction_identity(n, k, m) is True
    with pytest.raises(ValueError):
        verify_qbinomial_reduction_identity(4, 3, 3)


def test_random_multiset_products_always_decompose_nonnegatively():
    rng = random.Random(424242)
    pool = []
    for _ in range(200):
        m = rng.randint(1, 4)
        k = rng.randint(1, 3)
        rows = sorted((rng.randint(1, 6) for _ in range(rng.randint(1, 4))), reverse=True)
        f = QPoly([1])
        for n in rows:
            f = f * gaussian_binomial(n, k * m)
        dec = csp_decompose(f, m)
        assert dec.verdict is Verdict.CSP
        pool.append((f, m))
    # integer combinations of such products stay inside the basis span
    for _ in range(60):
        f1, m = pool[rng.randrange(len(pool))]
        candidates = [g for g, mm in pool if mm == m]
        f2 = candidates[rng.randrange(len(candidates))]
        combo = linear_combination([(rng.randint(-5, 5), f1), (rng.randint(-5, 5), f2)])
        assert csp_decompose(combo, m).verdict is not Verdict.NOT_PRE_CSP


def test_orbit_counts_sum_to_the_set_size():
    for lam in partitions_up_to(5):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            for k in (1, 2, 3):
                for m in (1, 2, 3):
                    rep = analyze(shape, k, m)
                    total = sum(
                        d * a for d, a in rep.decomposition.coefficients.items()
                    ) if rep.decomposition.coefficients else None
                    if rep.decomposition.verdict is Verdict.CSP:
                        assert total == count_ssyt(shape, k)
                    if rep.decomposition.coefficients is not None:
                        assert total == sum(principal_specialization(shape, k).coeffs)


def test_border_strip_coefficient_transfer():
    # the top divisor coefficient of a strip survives rescaling the strip
    # and the variable count from modulus m down to a divisor d
    for m in (1, 2, 3, 4):
        rows = [p for p in range(1, 7) if p % m == 0]
        for alpha in compositions_with_parts(4, rows):
            shape = border_strip_shape(alpha)
            for k in range(1, 7):
                dec = csp_decompose(principal_specialization(shape, k, mod=m), m)
                for d in divisors(m):
                    beta = tuple(d * a // m for a in alpha)
                    k_small = d * (k - 1) // m + 1
                    small = csp_decompose(
                        principal_specialization(border_strip_shape(beta), k_small, mod=d),
                        d,
                    )
                    assert dec.coefficients[d] == small.coefficients[d]
