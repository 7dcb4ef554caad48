import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from skewsieve.qpoly import (
    QPoly,
    Verdict,
    csp_decompose,
    divisors,
    eval_at_primitive_root,
    gaussian_binomial,
    reduce_mod,
)
from skewsieve.abacus import skew_quotient
from skewsieve.analysis import analyze
from skewsieve.characters import eval_at_root
from skewsieve.schur import (
    _fillings,
    count_ssyt,
    jt_matrix,
    principal_specialization,
    ssyt_generating_function,
)
from skewsieve.shapes import Partition, SkewShape

from helpers import (
    border_strip_shape,
    compositions_with_parts,
    partitions_up_to,
    subpartitions,
    substitute_power,
)


def test_jt_matrix_example():
    shape = SkewShape(Partition([13, 10, 10, 10, 6]), Partition([7, 4, 4, 4]))
    m = jt_matrix(shape)
    assert m == (
        (6, 10, 11, 12, 17),
        (2, 6, 7, 8, 13),
        (1, 5, 6, 7, 12),
        (0, 4, 5, 6, 11),
        (-5, -1, 0, 1, 6),
    )
    assert m[0][4] == 17 and m[4][0] == -5
    assert m == jt_matrix(SkewShape.parse("13,10,10,10,6/7,4,4,4"))
    assert jt_matrix(SkewShape.parse("2")) == ((2,),)


def test_jt_matrix_of_equal_shapes():
    lam = Partition([4, 2, 1])
    m = jt_matrix(SkewShape(lam, lam))
    assert all(m[i][i] == 0 for i in range(3))
    assert all(m[i][j] < 0 for i in range(3) for j in range(3) if i > j)


def test_jt_matrix_of_border_strip_is_banded():
    for alpha in compositions_with_parts(4, range(1, 4)):
        m = jt_matrix(border_strip_shape(alpha))
        l = len(alpha)
        for i in range(l):
            for j in range(l):
                if i <= j:
                    assert m[i][j] == sum(alpha[i : j + 1])
                elif i - j == 1:
                    assert m[i][j] == 0
                else:
                    assert m[i][j] < 0


def test_principal_specialization_basics():
    assert principal_specialization(SkewShape.parse("1"), 2) == QPoly([1, 1])
    assert principal_specialization(SkewShape.parse("1,1"), 1).is_zero
    lam = Partition([3, 1])
    assert principal_specialization(SkewShape(lam, lam), 5) == QPoly([1])
    with pytest.raises(ValueError):
        principal_specialization(SkewShape.parse("1"), 0)
    for mod in (0, -1):
        with pytest.raises(ValueError, match="modulus must be positive"):
            principal_specialization(SkewShape.parse("2,1/1"), 2, mod=mod)


def test_single_row_equals_gaussian_binomial():
    for n in range(0, 6):
        for k in range(1, 5):
            shape = SkewShape(Partition([n] if n else []))
            assert ssyt_generating_function(shape, k) == gaussian_binomial(n, k)
            assert principal_specialization(shape, k) == gaussian_binomial(n, k)


def test_specialization_matches_enumeration_small_grid():
    for lam in partitions_up_to(5):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            for k in range(1, 4):
                assert principal_specialization(shape, k) == ssyt_generating_function(
                    shape, k
                )


def test_specialization_matches_enumeration_random_larger_shapes():
    rng = random.Random(777)
    lams = [p for p in partitions_up_to(9) if sum(p) >= 7]
    for _ in range(100):
        lam = rng.choice(lams)
        mus = list(subpartitions(lam))
        mu = rng.choice(mus)
        k = rng.randint(1, 4)
        shape = SkewShape(Partition(lam), Partition(mu))
        assert principal_specialization(shape, k) == ssyt_generating_function(shape, k)


SMALL_PARTITIONS = list(partitions_up_to(8))


@st.composite
def small_skew_shapes(draw):
    lam = draw(st.sampled_from(SMALL_PARTITIONS))
    mu = draw(st.sampled_from(list(subpartitions(lam))))
    return SkewShape(Partition(lam), Partition(mu))


@settings(max_examples=80)
@given(small_skew_shapes(), st.integers(1, 4), st.integers(1, 6))
@example(SkewShape(Partition()), 3, 2)  # the empty shape gives 1
@example(SkewShape.parse("4,2/2"), 1, 4)  # one letter fills a horizontal strip once
@example(SkewShape.parse("2,1,1,1/1"), 2, 5)  # a column longer than k gives 0
def test_specialization_matches_enumeration_property(shape, k, m):
    poly = principal_specialization(shape, k)
    assert poly == ssyt_generating_function(shape, k)
    assert principal_specialization(shape, k, mod=m) == reduce_mod(poly, m)


@settings(max_examples=200)
@given(st.sampled_from([p for p in partitions_up_to(12) if sum(p) > 8]), st.data())
def test_root_value_matches_the_folded_specialization(lam, data):
    # moduli up to 12, beyond the enumeration property's 6
    mu = data.draw(st.sampled_from(list(subpartitions(lam))))
    shape = SkewShape(Partition(lam), Partition(mu))
    n_vars = data.draw(st.integers(1, 12))
    d = data.draw(st.sampled_from([d for d in range(1, n_vars + 1) if n_vars % d == 0]))
    poly = principal_specialization(shape, n_vars, mod=d)
    assert eval_at_root(shape, n_vars, d) == eval_at_primitive_root(poly, d, 1)


@settings(max_examples=150)
@given(small_skew_shapes(), st.integers(1, 4))
def test_count_ssyt_counts_the_fillings(shape, k):
    assert count_ssyt(shape, k) == sum(1 for _ in _fillings(shape, k))


def test_reduced_path_matches_full_reduction():
    for lam in partitions_up_to(6):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            for k in (2, 3):
                for m in (2, 3, 4):
                    assert principal_specialization(shape, k, mod=m) == reduce_mod(
                        principal_specialization(shape, k), m
                    )


def test_modulus_beyond_the_degree_is_not_built():
    # a determinant shorter than the modulus is returned as it is; building
    # the 8*w*m-bit modulus for m = 10**7 would trace about 20 MB
    tracemalloc.start()
    try:
        poly = principal_specialization(SkewShape.parse("2,1"), 2, mod=10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert poly == QPoly([0, 1, 1])
    assert peak < 1 << 20


def test_specialization_degree_and_positivity():
    for lam in partitions_up_to(6):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            for k in (2, 3):
                poly = principal_specialization(shape, k)
                assert poly.degree <= shape.size * (k - 1)
                assert all(c >= 0 for c in poly.coeffs)


def test_ssyt_iteration_is_valid_and_lexicographic():
    shape = SkewShape.parse("3,2/1")
    fillings = list(_fillings(shape, 3))
    assert len(fillings) == count_ssyt(shape, 3)
    previous = None
    for values in fillings:
        entries = dict(zip(shape.cells(), values))
        for (i, j), v in entries.items():
            assert 1 <= v <= 3
            if (i, j + 1) in entries:
                assert v <= entries[(i, j + 1)]
            if (i + 1, j) in entries:
                assert v < entries[(i + 1, j)]
        if previous is not None:
            assert values > previous
        previous = values


def test_ssyt_generating_function_edge_cases():
    assert ssyt_generating_function(SkewShape.parse("1,1"), 1).is_zero
    lam = Partition([2, 2])
    assert ssyt_generating_function(SkewShape(lam, lam), 3) == QPoly([1])
    # more cells than the interpreter's recursion limit
    assert ssyt_generating_function(SkewShape.parse("1000"), 1) == QPoly([1])


def test_count_ssyt():
    assert count_ssyt(SkewShape.parse("2"), 2) == 3
    lam = Partition([3, 3, 1])
    assert count_ssyt(SkewShape(lam, lam), 4) == 1
    shape = SkewShape(Partition([4, 3]), Partition([1]))
    assert count_ssyt(shape, 2) == len(list(_fillings(shape, 2)))
    for lam in partitions_up_to(5):
        for mu in subpartitions(lam):
            sh = SkewShape(Partition(lam), Partition(mu))
            for k in (1, 2, 3):
                assert count_ssyt(sh, k) == sum(ssyt_generating_function(sh, k).coeffs)
    # stretched bands: row i covers the columns (m(l - i), m(l - i + w) + i mod w];
    # reduction mod q - 1 folds the column-subset determinant to its value at 1
    for l, m, w, k in ((12, 2, 2, 4), (13, 3, 3, 5)):
        outer = [m * (l - i + w) + i % w for i in range(1, l + 1)]
        inner = [m * (l - i) for i in range(1, l + 1)]
        sh = SkewShape(Partition(outer), Partition(inner))
        assert count_ssyt(sh, k) == principal_specialization(sh, k, mod=1).coefficient(0)


def test_multiset_counter_coefficients_transfer_between_moduli():
    # the coefficient of B_d mod m for n boxes in k*m variables matches the
    # coefficient of B_d mod d for the scaled-down problem, and vanishes
    # unless m/d divides n
    for k in range(1, 7):
        for n in range(1, 7):
            for m in range(1, 7):
                dec = csp_decompose(gaussian_binomial(n, k * m), m)
                assert dec.verdict is Verdict.CSP
                for d in divisors(m):
                    if n % (m // d) == 0:
                        small = csp_decompose(gaussian_binomial(n * d // m, k * d), d)
                        assert small.verdict is Verdict.CSP
                        assert dec.coefficients[d] == small.coefficients[d]
                    else:
                        assert dec.coefficients[d] == 0


def test_determinant_factors_through_quotient_components():
    # coefficients up to a divisor d of m can be read off the product of the
    # (m/d)-quotient component specializations with q -> q^(m/d)
    cases = []
    for lam_base in ((2,), (2, 1), (3, 2), (2, 2, 1)):
        for mu_base in subpartitions(lam_base):
            cases.append((lam_base, mu_base))
    for m in (2, 3, 4):
        for k in (1, 2):
            for lam_base, mu_base in cases:
                shape = SkewShape(
                    Partition(lam_base).stretch(m), Partition(mu_base).stretch(m)
                )
                full = csp_decompose(
                    principal_specialization(shape, k * m, mod=m), m
                )
                assert full.verdict is Verdict.CSP
                for d in divisors(m):
                    sq = skew_quotient(shape, m // d)
                    assert sq.exists
                    product = QPoly([1])
                    for component in sq.components:
                        product = product * substitute_power(
                            principal_specialization(component, k * d), m // d
                        )
                    dec = csp_decompose(reduce_mod(product, m), m)
                    assert dec.coefficients is not None
                    for e in divisors(d):
                        assert dec.coefficients[e] == full.coefficients[e]
    # also one non-stretched shape with divisible row differences
    shape = SkewShape(Partition([5, 3]), Partition([3, 1]))
    full = csp_decompose(principal_specialization(shape, 4, mod=2), 2)
    sq = skew_quotient(shape, 2)
    assert sq.exists
    product = QPoly([1])
    for component in sq.components:
        product = product * substitute_power(principal_specialization(component, 2), 2)
    dec = csp_decompose(reduce_mod(product, 2), 2)
    assert dec.coefficients[1] == full.coefficients[1]
    # stretched staircases with more rows than a 2^l expansion affords: the
    # value at a cube root of unity against the quotient-theorem route
    for l in (16, 20):
        shape = SkewShape(Partition([3 * (l - 1 - i) for i in range(l)]))
        assert analyze(shape, 6, 3).decomposition.verdict is Verdict.CSP
        poly = principal_specialization(shape, 6)
        assert sum(poly.coeffs) == count_ssyt(shape, 6)
        assert eval_at_primitive_root(poly, 3, 1) == eval_at_root(shape, 6, 3)
