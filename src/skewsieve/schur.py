"""Principal specializations of skew Schur polynomials.

The primary route is the Jacobi-Trudi determinant det[h_(a_i - b_j)]
over the outer and inner beta-sets a and b at the outer length
(a_i - b_j = outer_i - inner_j + j - i).  One builder serves the
polynomial, where h is a q-binomial, and the filling counts of
``count_ssyt`` and ``characters.eval_at_root``.  The brute-force route
steps through every semistandard filling in lexicographic order and is
kept as an independent check.  Both the polynomial and the filling count
come from one integer determinant: at q = 1 for the count, and at
q = 2^(8w) for the polynomial, whose coefficients are then read off as
base-2^(8w) digits (Kronecker substitution).  It is the product over
the diagonal blocks, one per run of rows that share columns, each by
fraction-free (Bareiss) elimination in O(l^3) operations.  The fold mod
q^m - 1 is taken last, on that integer, as its remainder mod 2^(8wm) - 1.
"""

from __future__ import annotations

from math import comb, isqrt
from typing import Callable, Iterator, Sequence

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
    elimination; every division is exact.  Overwrites ``rows``."""
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
        for row in rows[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * rows[n - 1][n - 1] if n else 1


def _jt_det(tops: Sequence[int], bottoms: Sequence[int], h: Callable[[int], int]) -> int:
    """det[h(a_i - b_j)] over the outer and inner beta-sets ``tops`` and
    ``bottoms`` of one length, with h taken as 0 below 0: the Jacobi-Trudi
    determinant with complete homogeneous values h.  Where a_(i+1) < b_i,
    rows i and i + 1 share no column and every entry below row i left of
    column i + 1 is 0, so the determinant is the product of the diagonal
    blocks' and no entry off them is built."""
    det, start, l = 1, 0, len(tops)
    for end in range(1, l + 1):
        if end == l or tops[end] < bottoms[end - 1]:
            columns = bottoms[start:end]
            det *= _integer_det([[h(a - b) if a >= b else 0 for b in columns] for a in tops[start:end]])
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
    det = _jt_det(*shape.beta_sets(), lambda e: _q_binomial_at(e, k, w))
    if det >= 0 and mod is not None and det.bit_length() > 8 * w * mod:
        det %= (1 << 8 * w * mod) - 1
    if det < 0 or sum(coeffs := _digits(det, w)) != count:
        raise RuntimeError(
            f"the digits of the determinant at q = 2^{8 * w} do not sum to "
            f"{count} for {shape}, k={k}; this indicates a bug in this library"
        )
    return QPoly(coeffs)


def _elimination_cost(shape: SkewShape) -> int:
    """The interpreter's share of ``_kronecker_cost``, known without
    ``count_ssyt``: estimating and building the specialization of l rows
    takes three l x l eliminations (the ``count_ssyt`` of the estimate,
    then that of the route and the determinant), about l^3 updates in all
    at 60 to 200 ns each whatever their bits.  One-cell shapes of 100 to
    300 rows at k = 2 took 90 to 115 ns per l^3 (2 CPUs), so l^3 costs
    5 * 10^4 units and the 10^12 limit falls near 270 rows."""
    return 5 * 10**4 * shape.outer.length**3


def _kronecker_cost(shape: SkewShape, k: int) -> int:
    """Estimated cost of ``principal_specialization(shape, k)``, read off
    ``count_ssyt`` before anything is built.  The unit is one bit-by-bit
    step of CPython's schoolbook long division, about 2 ps on CPython 3.11
    (2 CPUs), so 10^12 units is about 2 s; on measured runs of 1 to 20
    rows that took over 0.1 s, the time was 0.5 to 1.8 times the bit
    work below.  With b = 8w, and D the b(N(k - 1) + 1) bits of the
    determinant of the N-cell shape:

    - ``_elimination_cost`` adds the interpreter's work per Bareiss
      update, whatever the bits, 5 * 10^4 units per l^3;
    - the entry h_e takes s = min(e, k - 1) divisions, the i-th of about
      b*t*i bits (t = max(e, k - 1)) by b*i bits, plus about 300 units per
      bit of the dividend;
    - Bareiss step j updates (l - 1 - j)^2 entries, each with two
      Karatsuba products of n = (j + 1)D/l bits, about 50 n^1.5 units each,
      and, past step 0, a division leaving (j + 2)D/l bits by a pivot of
      jD/l bits;
    - shifting, folding and unpacking take about 1000 units per bit of D.

    The divisions make the cost quadratic in D and steep in l.  It is
    computed in integers, so no k overflows it.
    """
    tops, bottoms = shape.beta_sets()
    l, b = len(tops), 8 * _width(count_ssyt(shape, k))
    det_bits = b * (shape.size * (k - 1) + 1)
    cost = _elimination_cost(shape) + 1000 * det_bits
    for e in (a - c for a in tops for c in bottoms if a > c):
        s, t = min(e, k - 1), max(e, k - 1)
        # the sum over i <= s of b*t*i * (b*i + 300)
        cost += b * t * s * (s + 1) * (b * (2 * s + 1) + 900) // 6
    for j in range(l - 1):
        n = (j + 1) * det_bits // l
        cost += (l - 1 - j) ** 2 * (j * (j + 2) * (det_bits // l) ** 2 + 100 * n * isqrt(n))
    return cost


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


def _jt_count(tops: Sequence[int], bottoms: Sequence[int], k: int) -> int:
    """count_ssyt of the skew shape whose outer and inner beta-sets, of one
    length, are ``tops`` and ``bottoms``: at q = 1 the entry h_e is the
    multiset count C(e + k - 1, k - 1)."""
    return _jt_det(tops, bottoms, lambda e: comb(e + k - 1, k - 1))


def count_ssyt(shape: SkewShape, k: int) -> int:
    """Number of semistandard fillings with entries <= k.

    Evaluates the Jacobi-Trudi determinant at q = 1, where each entry
    becomes a plain binomial multiset count, one diagonal block at a time.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _jt_count(*shape.beta_sets(), k)
