import random
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from skewsieve.qpoly import (
    CspDecomposition,
    QPoly,
    Verdict,
    _invert_divisor_sums,
    _q_binomial_at,
    csp_decompose,
    divisors,
    eval_at_primitive_root,
    gaussian_binomial,
    reduce_mod,
)

from helpers import (
    a_coefficient,
    basis_element,
    coefficient,
    complex_root_value,
    csp_decompose_dense,
    divisors_by_trial,
    invert_divisor_sums_pairwise,
    linear_combination,
    mobius,
    q_binomial_at_in_k_steps,
    substitute_power,
)


small_poly = st.lists(st.integers(-9, 9), max_size=12).map(QPoly)


def multiset_gaussian_oracle(n, k):
    """Generating function over n-multisets of exponents {0..k-1}."""
    coeffs = [0] * (n * (k - 1) + 1)
    for combo in combinations_with_replacement(range(k), n):
        coeffs[sum(combo)] += 1
    return QPoly(coeffs)


def test_qpoly_canonical_and_arith():
    assert QPoly([0, 1, 0, 0]).coeffs == (0, 1)
    assert not QPoly()
    assert QPoly([1, 2]).degree == 1
    assert QPoly().degree == -1
    f = QPoly([1, 2, 3])
    g = QPoly([0, 1])
    assert (f * g).coeffs == (0, 1, 2, 3)
    assert coefficient(f, 2) == 3 and coefficient(f, 99) == 0
    assert g.shift(2).coeffs == (0, 0, 0, 1)
    assert substitute_power(QPoly([1, 2]), 3).coeffs == (1, 0, 0, 2)
    for bad in ([0.5], [1, 2.0], "12"):
        with pytest.raises(TypeError):
            QPoly(bad)


def test_qpoly_is_a_frozen_value():
    f = QPoly(c for c in (1, 2, 0))
    assert f == QPoly((1, 2)) and hash(f) == hash(QPoly([1, 2]))
    assert f != QPoly([1, 2, 1]) and f != (1, 2)
    assert repr(f) == "QPoly(coeffs=(1, 2))"
    with pytest.raises(AttributeError):
        f.coeffs = ()
    with pytest.raises(AttributeError):
        del f.coeffs
    with pytest.raises(AttributeError):
        f.foo = 1
    with pytest.raises(AttributeError):
        del f.foo


def test_qpoly_text():
    assert str(QPoly()) == "0"
    assert str(QPoly([1, 1])) == "1 + q"
    assert str(QPoly([0, 0, 1])) == "q^2"
    assert str(QPoly([-3, 2])) == "-3 + 2*q"
    assert str(QPoly([1, 1, 2, 1, 1])) == "1 + q + 2*q^2 + q^3 + q^4"
    assert str(QPoly([0, -1, 0, 4])) == "-q + 4*q^3"


def test_reduce_mod_examples():
    f = QPoly([3, 1, 0, 0, 0, 0, 0, 0, 0, 1])
    assert reduce_mod(f, 9) == QPoly([4, 1])
    g = QPoly([1, 2, 3])
    assert reduce_mod(g, 5) == g
    assert reduce_mod(QPoly([1] * 12), 4) == QPoly([3, 3, 3, 3])


@settings(max_examples=150)
@given(small_poly, small_poly, st.integers(1, 24))
def test_reduce_mod_is_ring_homomorphism(f, g, m):
    assert reduce_mod(f * g, m) == reduce_mod(reduce_mod(f, m) * reduce_mod(g, m), m)
    total = linear_combination([(1, f), (1, g)])
    assert reduce_mod(total, m) == reduce_mod(
        linear_combination([(1, reduce_mod(f, m)), (1, reduce_mod(g, m))]), m
    )


def test_mobius():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert [mobius(p) for p in (2, 3, 5, 7, 11)] == [-1] * 5
    for n in range(1, 200):
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(24) == [1, 2, 3, 4, 6, 8, 12, 24]
    with pytest.raises(ValueError):
        divisors(0)
    # the prime-power expansion against trial division: every n below 5000, random
    # n below 10^12, the most divisors at 10^12 (6720), a prime, 2^39 and 720720
    rng = random.Random(18)
    large = [rng.randrange(1, 10**12) for _ in range(30)]
    for n in [*range(1, 5000), *large, 963761198400, 999999999989, 2**39, 720720]:
        assert divisors(n) == divisors_by_trial(n)


def _assert_inversions_agree(divs, value):
    before = dict(value)
    got = _invert_divisor_sums(divs, value)
    assert list(got.items()) == list(invert_divisor_sums_pairwise(divs, value).items())
    assert list(value.items()) == list(before.items())


def test_invert_divisor_sums_matches_the_pairwise_walk():
    # values and ascending key order, for every m up to 2000 and for tau(720720) = 240
    rng = random.Random(17)
    for m in [*range(1, 2001), 720720]:
        divs = divisors(m)
        _assert_inversions_agree(divs, {g: rng.randint(-10**6, 10**6) for g in divs})


@given(st.integers(1, 10**6), st.randoms(use_true_random=False))
def test_divisor_routes_match_the_references_property(m, rng):
    divs = divisors(m)
    assert divs == divisors_by_trial(m)
    _assert_inversions_agree(divs, {g: rng.randint(-10**9, 10**9) for g in divs})


def test_basis_element():
    assert basis_element(6, 1) == QPoly([1])
    assert basis_element(6, 6) == QPoly([1] * 6)
    assert basis_element(6, 3) == QPoly([1, 0, 1, 0, 1])
    for m in range(1, 15):
        for d in divisors(m):
            b = basis_element(m, d)
            assert sum(b.coeffs) == d
            assert {e for e, c in enumerate(b.coeffs) if c} == {
                i * (m // d) for i in range(d)
            }


def test_gaussian_binomial_examples():
    assert gaussian_binomial(2, 3) == QPoly([1, 1, 2, 1, 1])
    assert gaussian_binomial(0, 4) == QPoly([1])
    assert not gaussian_binomial(-5, 6)
    assert gaussian_binomial(3, 1) == QPoly([1])
    # deeper than the interpreter's recursion limit
    assert gaussian_binomial(2000, 2) == QPoly([1] * 2001)
    with pytest.raises(ValueError):
        gaussian_binomial(2, 0)


def test_gaussian_binomial_matches_multiset_enumeration():
    for n in range(0, 7):
        for k in range(1, 7):
            assert gaussian_binomial(n, k) == multiset_gaussian_oracle(n, k)


def test_q_binomial_value_matches_the_k_step_product():
    # the loop runs over min(n, k - 1) factors; the oracle always takes k - 1
    for w in (1, 2, 3, 5):
        for n in range(40):
            for k in range(1, 40):
                assert _q_binomial_at(n, k, w) == q_binomial_at_in_k_steps(n, k, w)


def test_gaussian_binomial_shape_properties():
    for n in range(0, 9):
        for k in range(1, 9):
            g = gaussian_binomial(n, k)
            assert g.degree == n * (k - 1)
            assert all(c > 0 for c in g.coeffs)
            assert g.coeffs == g.coeffs[::-1]


def test_a_coefficient():
    assert a_coefficient(0, 2, 2) == 2
    assert a_coefficient(1, 1, 7) == 1  # single variable: always 1
    assert a_coefficient(5, 3, 4) == a_coefficient(2, 3, 4)  # l mod k
    for k in range(1, 7):
        for n in range(1, 7):
            reduced = reduce_mod(gaussian_binomial(n, k), k)
            for l in range(k):
                assert a_coefficient(l, k, n) == coefficient(reduced, l)


def test_a_coefficient_divisor_recurrence():
    # A_l(k, n) equals the sum of A_1(k/d, n/d) over common divisors d
    for k in range(1, 9):
        for n in range(1, 9):
            for l in range(k):
                expected = sum(
                    a_coefficient(1, k // d, n // d)
                    for d in divisors(gcd(n, gcd(k, l) if l else k))
                )
                assert a_coefficient(l, k, n) == expected


def test_csp_decompose_examples():
    one = csp_decompose(QPoly([1]), 12)
    assert one.verdict is Verdict.CSP
    assert one.coefficients == {d: (1 if d == 1 else 0) for d in divisors(12)}
    assert csp_decompose(QPoly([0, 1]), 3).verdict is Verdict.NOT_PRE_CSP
    assert csp_decompose(QPoly([0, 1]), 3).coefficients is None
    zero = csp_decompose(QPoly(), 6)
    assert zero.verdict is Verdict.CSP
    assert all(v == 0 for v in zero.coefficients.values())


def test_verdict_is_read_off_the_coordinates():
    assert CspDecomposition(4, None).verdict is Verdict.NOT_PRE_CSP
    assert CspDecomposition(4, {1: 0, 2: 3, 4: 1}).verdict is Verdict.CSP
    assert CspDecomposition(4, {1: -1, 2: 1, 4: 1}).verdict is Verdict.PRE_CSP


def test_csp_decompose_round_trip():
    rng = random.Random(20240915)
    for m in range(1, 25):
        for _ in range(8):
            coeffs = {d: rng.randint(-30, 30) for d in divisors(m)}
            f = linear_combination((a, basis_element(m, d)) for d, a in coeffs.items())
            dec = csp_decompose(f, m)
            assert dec.coefficients == coeffs
            expected = (
                Verdict.CSP
                if all(a >= 0 for a in coeffs.values())
                else Verdict.PRE_CSP
            )
            assert dec.verdict is expected


@st.composite
def near_basis_polys(draw):
    """An integer combination of the B_d for m <= 60, with one exponent
    perturbed or not, and each coefficient split between its exponent e
    and e + m or e + 2m or not, so all three verdicts and unreduced
    inputs up to degree 3m occur."""
    m = draw(st.integers(1, 60))
    coords = [(draw(st.integers(-3, 9)), basis_element(m, d)) for d in divisors(m)]
    reduced = list(linear_combination(coords).coeffs)
    reduced += [0] * (m - len(reduced))
    if draw(st.booleans()):
        reduced[draw(st.integers(0, m - 1))] += draw(st.sampled_from([-2, -1, 1, 2]))
    out = [0] * (3 * m)
    unfold = draw(st.booleans())
    for e, c in enumerate(reduced):
        if unfold:
            lifted = draw(st.integers(-9, 9))
            out[e + m * draw(st.integers(1, 2))] += lifted
            c -= lifted
        out[e] += c
    return QPoly(out), m


@given(near_basis_polys())
@settings(max_examples=300)
def test_csp_decompose_matches_dense_mobius_inversion(case):
    f, m = case
    fast, dense = csp_decompose(f, m), csp_decompose_dense(f, m)
    assert fast == dense
    if fast.coefficients is not None:
        assert list(fast.coefficients) == list(dense.coefficients)


def test_decomposition_reconstructs_reduction():
    for m in (4, 6, 9):
        for n in (3, 5, 8):
            f = gaussian_binomial(n, 2 * m)
            dec = csp_decompose(f, m)
            assert dec.verdict is Verdict.CSP
            rebuilt = linear_combination(
                (a, basis_element(m, d)) for d, a in dec.coefficients.items()
            )
            assert reduce_mod(rebuilt, m) == reduce_mod(f, m)


def test_eval_at_primitive_root_examples():
    f = linear_combination(
        [(12, basis_element(4, 1)), (264, basis_element(4, 2)), (1576440, basis_element(4, 4))]
    )
    assert eval_at_primitive_root(f, 4, 1) == 12
    assert eval_at_primitive_root(f, 4, 0) == sum(f.coeffs)
    with pytest.raises(ValueError, match="no divisor-basis decomposition"):
        eval_at_primitive_root(QPoly([0, 1]), 3, 1)


def test_eval_at_primitive_root_matches_complex_evaluation():
    for m in (2, 3, 4, 6, 8, 9, 12):
        for d in divisors(m):
            b = basis_element(m, d)
            for j in range(m):
                exact = eval_at_primitive_root(b, m, j)
                approx = complex_root_value(b.coeffs, m, j)
                assert abs(approx - exact) < 1e-6
            # at j = m/d the basis element sees a primitive d-th root:
            # the geometric sum collapses to d only when d divides m/d
            expected = d if (m // d) % d == 0 else 0
            assert eval_at_primitive_root(b, m, m // d) == expected


def test_mobius_consistency_of_root_values():
    # sum of mobius(d/j) * f(w^j) over j | d recovers d * a_d
    polys = [(gaussian_binomial(n, m), m) for m in (4, 6, 9, 12) for n in (2, 5, 7)]
    # include a case with a negative coordinate
    polys.append(
        (linear_combination([(1, basis_element(9, 1)), (-3, basis_element(9, 3)),
                             (7, basis_element(9, 9))]), 9)
    )
    for f, m in polys:
        dec = csp_decompose(f, m)
        assert dec.coefficients is not None
        for d in divisors(m):
            total = sum(
                mobius(d // j) * eval_at_primitive_root(f, m, j)
                for j in divisors(d)
            )
            assert total == d * dec.coefficients[d]
