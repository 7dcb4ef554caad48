"""Classification harness: specialize, decompose, and check guarantees.

Two structural conditions are known to force a nonnegative divisor-basis
decomposition (hence a cyclic sieving interpretation of the coefficients):
every row difference divisible by the modulus together with either a
variable count divisible by the modulus, or the shape being a border
strip; ``CspReport.csp_guaranteed`` reads this rule off the three flags.
Any violation of the guarantee is a bug in this library, never a finding.

When the modulus m divides the variable count k, the specialization at
an m-th root of unity w of order e is ``eval_at_root(shape, k, e)``: the
points 1, w, ..., w^(k-1) run k/e times over the e-th roots of unity.
The value at order m/g is the sum of d * a_d over the divisors d of g,
so the coordinates are read off those tau(m) integers, one runner pass
each, with no Kronecker determinant and no filling count.  The values
depend only on the order of the root, so the folded polynomial always
lies in the divisor-basis span and the verdict is never NOT_PRE_CSP.
Otherwise, and for a shifted polynomial, the Kronecker determinant of
``schur`` is folded and decomposed.
"""

from __future__ import annotations

from typing import NamedTuple

from .characters import eval_at_root
from .qpoly import CspDecomposition, Verdict, _invert_divisor_sums, csp_decompose, divisors
from .schur import principal_specialization
from .shapes import SkewShape, is_border_strip


class CspReport(NamedTuple):
    """Decomposition of a specialization plus the flags that decide the guarantee.

    When the verdict is CSP, coefficient d of the decomposition counts the
    orbits of size d of the (cyclic) action whose existence it certifies.
    """

    decomposition: CspDecomposition
    row_diffs_divisible: bool
    vars_divisible: bool
    border_strip: bool

    @property
    def csp_guaranteed(self) -> bool:
        return self.row_diffs_divisible and (self.vars_divisible or self.border_strip)


def _from_root_values(shape: SkewShape, k: int, m: int) -> CspDecomposition:
    """The decomposition for m dividing k: g * a_g is the value at order
    m/g less the terms d * a_d already known, so g must divide it."""
    divs = divisors(m)
    known = _invert_divisor_sums(divs, {g: eval_at_root(shape, k, m // g) for g in divs})
    a = {}
    for g, total in known.items():
        if total % g:
            raise RuntimeError(
                f"the root values of {shape} at k={k} give {total} for {g} * a_{g}, "
                f"which {g} does not divide; this indicates a bug in this library"
            )
        a[g] = total // g
    return CspDecomposition(m, a)


def analyze(shape: SkewShape, k: int, m: int) -> CspReport:
    """Specialize with k variables, fold modulo q^m - 1 and decompose:
    from root values when m divides k, else from the Kronecker
    determinant."""
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    vars_div = k % m == 0
    if vars_div:
        dec = _from_root_values(shape, k, m)
    else:
        dec = csp_decompose(principal_specialization(shape, k, mod=m), m)
    row_div = all(diff % m == 0 for diff in shape.row_diffs())
    report = CspReport(dec, row_div, vars_div, is_border_strip(shape))
    if report.csp_guaranteed and dec.verdict is not Verdict.CSP:
        raise RuntimeError(
            f"guaranteed case came out {dec.verdict.value} for {shape}, "
            f"k={k}, m={m}; this indicates a bug in this library"
        )
    return report


def analyze_shifted(shape: SkewShape, k: int, m: int, shift: int) -> CspDecomposition:
    """Decompose q^shift times the specialization, modulo q^m - 1."""
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    if not 0 <= shift < m:
        raise ValueError("shift must satisfy 0 <= shift < m")
    poly = principal_specialization(shape, k, mod=m)
    return csp_decompose(poly.shift(shift), m)

