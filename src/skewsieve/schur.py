"""Principal specializations of skew Schur polynomials.

The primary route is the Jacobi-Trudi determinant whose (i, j) entry is
the q-binomial for outer_i - inner_j + j - i; the brute-force route steps
through every semistandard filling in lexicographic order and is kept as an
independent check.  The polynomial determinant is expanded by column
subsets, which is division-free, and may run entirely inside the residue
ring mod q^m - 1 since reduction is a ring homomorphism.  At q = 1 the
entries are plain integers, and the filling count comes from fraction-free
(Bareiss) elimination in O(l^3) operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Iterator

from .qpoly import QPoly, gaussian_binomial, reduce_mod, reduced_gaussian_binomial
from .shapes import SkewShape


@dataclass(frozen=True)
class JTMatrix:
    """The integer index matrix feeding the Jacobi-Trudi determinant."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]


def jt_matrix(shape: SkewShape) -> JTMatrix:
    """Entry (i, j) is outer_i - inner_j + j - i, inner zero-padded."""
    l = shape.outer.length
    outer = shape.outer.parts
    inner = shape.inner_padded
    rows = tuple(
        tuple(outer[i] - inner[j] + j - i for j in range(l)) for i in range(l)
    )
    return JTMatrix(l, rows)


def det_by_column_subsets(rows, post: Callable | None = None) -> QPoly:
    """Division-free determinant of a square matrix of ``QPoly`` entries
    via minors indexed by column subsets.

    Zero entries are skipped; ``post`` (when given) is applied to every
    product to keep intermediates reduced.
    """
    n = len(rows)
    zero, one = QPoly.zero(), QPoly.one()
    if n == 0:
        return one
    minors = {0: one}
    for p in range(1, n + 1):
        new = {}
        row = rows[p - 1]
        for cols in combinations(range(n), p):
            mask = 0
            for c in cols:
                mask |= 1 << c
            acc = zero
            for t, c in enumerate(cols):
                if not row[c]:
                    continue
                term = row[c] * minors[mask ^ (1 << c)]
                if post is not None:
                    term = post(term)
                acc = acc + term if (p - 1 + t) % 2 == 0 else acc - term
            new[mask] = acc
        minors = new
    return minors[(1 << n) - 1]


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


def principal_specialization(shape: SkewShape, k: int, mod: int | None = None) -> QPoly:
    """The skew Schur polynomial at x_i = q^(i-1) for i = 1..k.

    With ``mod`` set the whole determinant is computed in the residue
    ring mod q^mod - 1, which is the fast path for decomposition work;
    the result is then the reduced polynomial.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = jt_matrix(shape)
    if mod is None:
        rows = [[gaussian_binomial(e, k) for e in row] for row in m.entries]
        return det_by_column_subsets(rows)
    rows = [[reduced_gaussian_binomial(e, k, mod) for e in row] for row in m.entries]
    return det_by_column_subsets(rows, post=lambda f: reduce_mod(f, mod))


@dataclass(frozen=True)
class Tableau:
    """A semistandard filling of a skew shape; cells are 1-based (row, col)."""

    shape: SkewShape
    entries: tuple[tuple[tuple[int, int], int], ...]

    @property
    def weight(self) -> int:
        """Sum of (entry - 1) over all cells."""
        return sum(v - 1 for _, v in self.entries)


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


def iter_ssyt(shape: SkewShape, k: int) -> Iterator[Tableau]:
    """All semistandard tableaux with entries in 1..k, lexicographically."""
    if k < 1:
        raise ValueError("k must be >= 1")
    cells = shape.cells()
    for values in _fillings(shape, k):
        yield Tableau(shape, tuple(zip(cells, values)))


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


def count_ssyt(shape: SkewShape, k: int) -> int:
    """Number of semistandard fillings with entries <= k.

    Evaluates the Jacobi-Trudi determinant at q = 1, where each entry
    becomes a plain binomial multiset count, by integer elimination.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = jt_matrix(shape)
    rows = [
        [comb(e + k - 1, k - 1) if e >= 0 else 0 for e in row] for row in m.entries
    ]
    return _integer_det(rows)
