import random

import pytest

from skewsieve.analysis import analyze, analyze_shifted
from skewsieve.qpoly import (
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
    assert not rep.csp_guaranteed and rep.orbit_counts is None

    rep = analyze(SkewShape(Partition([12, 12, 4]), Partition([8, 4])), 6, 4)
    assert rep.decomposition.verdict is Verdict.CSP
    assert rep.decomposition.coefficients == {1: 12, 2: 264, 4: 1576440}
    assert rep.orbit_counts == {1: 12, 2: 264, 4: 1576440}


def test_analyze_trivial_shape():
    lam = Partition([3, 1])
    rep = analyze(SkewShape(lam, lam), 5, 6)
    assert rep.decomposition.verdict is Verdict.CSP
    assert rep.decomposition.coefficients == {d: (1 if d == 1 else 0) for d in divisors(6)}
    assert rep.row_diffs_divisible and not rep.csp_guaranteed  # 6 does not divide 5
    assert analyze(SkewShape(lam, lam), 6, 6).csp_guaranteed


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
                    if rep.orbit_counts is not None:
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
