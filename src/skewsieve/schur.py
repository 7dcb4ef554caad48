"""Principal specializations of skew Schur polynomials.

The primary route is the Jacobi-Trudi determinant det[h_(a_i - b_j)]
over the outer and inner beta-sets a and b at the outer length
(a_i - b_j = outer_i - inner_j + j - i).  One builder, ``_jt_det``,
takes any entry(a_i, b_j) that is 0 for a_i < b_j: it serves the
polynomial, where h is a q-binomial, the filling counts of
``count_ssyt`` and ``characters.eval_at_root``, and Aitken's
determinants det[C(a_i, b_j)] of ``characters.skew_char_rect``.  The
brute-force route steps through every semistandard filling in
lexicographic order and is kept as an independent check.  Both the
polynomial and the filling count come from one integer determinant: at
q = 1 for the count, and at q = 2^(8w) for the polynomial, whose
coefficients are then read off as base-2^(8w) digits (Kronecker
substitution).  It is the product over the diagonal blocks, one per run
of rows that share columns, each by fraction-free (Bareiss) elimination
in O(l^3) operations, or read off its one entry when it has one row.
The fold mod q^m - 1 is taken last, on that integer, as its remainder
mod 2^(8wm) - 1.  Each kernel charges ``_meter`` before it works.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from . import _meter
from .qpoly import QPoly, _digits, _q_binomial_at, _width
from .shapes import SkewShape


def jt_matrix(shape: SkewShape) -> tuple[tuple[int, ...], ...]:
    """The Jacobi-Trudi index matrix as row tuples: entry (i, j) is
    a_i - b_j = outer_i - inner_j + j - i, over the beta-sets at the
    outer length."""
    tops, bottoms = shape.beta_sets()
    return tuple(tuple(a - b for b in bottoms) for a in tops)


def _integer_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination; every division is exact.  Overwrites ``rows``.  Step k
    first charges its (n - 1 - k)^2 updates: two products by the p-bit
    pivot, and a division leaving about 2p - q bits by the q-bit previous
    pivot."""
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot, top = rows[k][k], rows[k]
        if _meter.left is not None:
            p, q = pivot.bit_length(), prev.bit_length()
            step = 2 * _meter.product_cost(p, p) + max(2 * p - q, 0) * q
            _meter.charge((n - 1 - k) ** 2 * step, "determinant")
        for row in rows[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * rows[n - 1][n - 1] if n else 1


def _jt_det(
    components: Iterable[tuple[Sequence[int], Sequence[int]]],
    entry: Callable[[int, int], int],
    bits: Callable[[int, int], int] | None = None,
) -> int:
    """The product of det[entry(a_i, b_j)], 0 where a_i < b_j, over the
    ``components``, pairs of outer and inner beta-sets a and b of one length:
    Jacobi-Trudi's for entries h(a - b), Aitken's for C(a, b).  Where
    a_(i+1) < b_i, rows i and i + 1 share no column and every entry below
    row i left of column i + 1 is 0, so a determinant is the product of its
    diagonal blocks', no entry off them is built, and a one-row block is its
    own entry.  The blocks of all components join one running product, which
    stops at the first zero.  An n-row block is first charged 4 * 10^4 n^3
    units, n^3 / 3 updates of any bits (binomial entries far longer than the
    pivots included), so 293 rows are refused.  Given ``bits(a, b)``, an
    entry's length known before it is built, a block of two rows or more is
    also charged the first update each entry joins, two products of p-bit
    factors.  Each block's determinant is charged its product into the
    running one before it joins."""
    det = 1
    for tops, bottoms in components:
        start, l = 0, len(tops)
        for end in range(1, l + 1):
            if end == l or tops[end] < bottoms[end - 1]:
                if _meter.left is not None:
                    _meter.charge(4 * 10**4 * (end - start) ** 3, "determinant")
                if end == start + 1:
                    x = entry(tops[start], bottoms[start])
                else:
                    rows, columns = tops[start:end], bottoms[start:end]
                    if bits is not None and _meter.left is not None:
                        sizes = [bits(a, b) for a in rows for b in columns if a >= b]
                        _meter.charge(sum(2 * _meter.product_cost(p, p) for p in sizes), "determinant")
                    x = _integer_det([[entry(a, b) if a >= b else 0 for b in columns] for a in rows])
                if _meter.left is not None:
                    _meter.charge(_meter.product_cost(det.bit_length(), x.bit_length()), "determinant")
                det *= x
                if not det:
                    return 0
                start = end
    return det


def principal_specialization(shape: SkewShape, k: int, mod: int | None = None) -> QPoly:
    """The skew Schur polynomial at x_i = q^(i-1) for i = 1..k.

    The Jacobi-Trudi determinant is taken over the integers at q = 2^(8w)
    (Kronecker substitution).  Its coefficients are nonnegative and sum to
    count_ssyt(shape, k), so with w bytes enough to hold that count they
    are the base-2^(8w) digits of the determinant.

    With ``mod`` set the result is reduced modulo q^mod - 1, and the fold
    is one integer remainder: with X = 2^(8w), the determinant modulo
    X^mod - 1 is the sum of F_j X^j over the folded coefficients F_j,
    because X^mod = 1 there and those F_j are nonnegative with sum
    below X - 1, so that sum is already the least residue.  Its at most
    ``mod`` digits are the folded coefficients.  A determinant of at most
    ``mod`` digits is already that residue (no digit reaches X - 1), so
    the modulus is built only for a longer one.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if mod is not None and mod < 1:
        raise ValueError("modulus must be positive")
    count = count_ssyt(shape, k)
    w = _width(count)
    b = 8 * w
    # shifting, folding and unpacking, per bit of the determinant
    _meter.charge(1000 * b * (shape.size * (k - 1) + 1), "Kronecker unpacking")

    def entry(top: int, bottom: int) -> int:
        e = top - bottom
        if _meter.left is not None:
            # s = min(e, k - 1) divisions, the i-th of about b*t*i bits
            # (t = max(e, k - 1)) by b*i bits, plus about 300 units per bit
            # of the dividend: the sum over i <= s of b*t*i * (b*i + 300)
            s, t = min(e, k - 1), max(e, k - 1)
            _meter.charge(b * t * s * (s + 1) * (b * (2 * s + 1) + 900) // 6, "q-binomial entry")
        return _q_binomial_at(e, k, w)

    def bits(top: int, bottom: int) -> int:
        e = top - bottom
        return b * min(e, k - 1) * max(e, k - 1)

    det = _jt_det((shape.beta_sets(),), entry, bits)
    if det >= 0 and mod is not None and det.bit_length() > 8 * w * mod:
        det %= (1 << 8 * w * mod) - 1
    if det < 0 or sum(coeffs := _digits(det, w)) != count:
        raise RuntimeError(
            f"the digits of the determinant at q = 2^{8 * w} do not sum to "
            f"{count} for {shape}, k={k}; this indicates a bug in this library"
        )
    return QPoly(coeffs)


def _cell_plan(shape: SkewShape) -> list[tuple[tuple[int, int], int, int]]:
    """Row-major cells with the indices of their left and upper neighbours
    inside the plan (-1 when absent)."""
    cells = shape.cells()
    index = {c: i for i, c in enumerate(cells)}
    plan = []
    for c in cells:
        i, j = c
        plan.append((c, index.get((i, j - 1), -1), index.get((i - 1, j), -1)))
    return plan


def _fillings(shape: SkewShape, k: int) -> Iterator[tuple[int, ...]]:
    """All semistandard fillings as value tuples in row-major cell order,
    emitted in lexicographic order."""
    plan = _cell_plan(shape)
    n = len(plan)
    # an odometer over the cells: values[idx] == 0 means cell idx is
    # entered afresh at its lowest value, otherwise it moves up by one
    values = [0] * n
    idx = 0
    while idx >= 0:
        if idx == n:
            yield tuple(values)
            idx -= 1
            continue
        if values[idx]:
            v = values[idx] + 1
        else:
            _, left, up = plan[idx]
            v = values[left] if left >= 0 else 1
            if up >= 0 and values[up] + 1 > v:
                v = values[up] + 1
        if v > k:
            values[idx] = 0
            idx -= 1
        else:
            values[idx] = v
            idx += 1


def ssyt_generating_function(shape: SkewShape, k: int) -> QPoly:
    """Sum of q^(weight) over all semistandard fillings with entries <= k.

    This is the enumeration oracle for principal_specialization; they
    agree as polynomials for every shape.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = shape.size
    coeffs = [0] * (n * (k - 1) + 1)
    for values in _fillings(shape, k):
        coeffs[sum(values) - n] += 1
    return QPoly(coeffs)


def _jt_count(components: Iterable[tuple[Sequence[int], Sequence[int]]], k: int) -> int:
    """The product of count_ssyt over the skew shapes whose outer and inner
    beta-sets, of one length, are the pairs in ``components``: at q = 1 the
    entry h_e is the multiset count C(e + k - 1, k - 1) with e = a - b."""
    return _jt_det(components, lambda a, b: comb(a - b + k - 1, k - 1))


def count_ssyt(shape: SkewShape, k: int) -> int:
    """Number of semistandard fillings with entries <= k.

    Evaluates the Jacobi-Trudi determinant at q = 1, where each entry
    becomes a plain binomial multiset count, one diagonal block at a time.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _jt_count((shape.beta_sets(),), k)
