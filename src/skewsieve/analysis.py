"""Classification harness: specialize, decompose, and check guarantees.

Two structural conditions are known to force a nonnegative divisor-basis
decomposition (hence a cyclic sieving interpretation of the coefficients):
every row difference divisible by the modulus together with either a
variable count divisible by the modulus, or the shape being a border
strip.  The harness treats any violation of those guarantees as a bug in
this library, never as a finding.
"""

from __future__ import annotations

from typing import NamedTuple

from .qpoly import CspDecomposition, Verdict, csp_decompose
from .schur import principal_specialization
from .shapes import SkewShape, is_border_strip


class CspReport(NamedTuple):
    """Decomposition of a principal specialization plus the guarantee flags.

    When the verdict is CSP, coefficient d of the decomposition counts the
    orbits of size d of the (cyclic) action whose existence it certifies.
    """

    decomposition: CspDecomposition
    row_diffs_divisible: bool
    vars_divisible: bool
    border_strip: bool
    csp_guaranteed: bool


def analyze(shape: SkewShape, k: int, m: int) -> CspReport:
    """Specialize with k variables, fold modulo q^m - 1 and decompose."""
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    poly = principal_specialization(shape, k, mod=m)
    dec = csp_decompose(poly, m)
    row_div = all(diff % m == 0 for diff in shape.row_diffs())
    vars_div = k % m == 0
    strip = is_border_strip(shape)
    guaranteed = row_div and (vars_div or strip)
    if guaranteed and dec.verdict is not Verdict.CSP:
        raise RuntimeError(
            f"guaranteed case came out {dec.verdict.value} for {shape}, "
            f"k={k}, m={m}; this indicates a bug in this library"
        )
    return CspReport(
        decomposition=dec,
        row_diffs_divisible=row_div,
        vars_divisible=vars_div,
        border_strip=strip,
        csp_guaranteed=guaranteed,
    )


def analyze_shifted(shape: SkewShape, k: int, m: int, shift: int) -> CspDecomposition:
    """Decompose q^shift times the specialization, modulo q^m - 1."""
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    if not 0 <= shift < m:
        raise ValueError("shift must satisfy 0 <= shift < m")
    poly = principal_specialization(shape, k, mod=m)
    return csp_decompose(poly.shift(shift), m)

