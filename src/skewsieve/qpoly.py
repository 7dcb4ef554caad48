"""Integer polynomials in q and the cyclic divisor-basis calculus.

A polynomial is a dense tuple of arbitrary-precision integers indexed by
exponent.  The routes here read, shift, fold and classify polynomials;
``QPoly * QPoly`` is the one arithmetic operation.  For a modulus m the
divisor basis consists of the polynomials

    B_d = (q^m - 1) / (q^(m/d) - 1) = 1 + q^(m/d) + q^(2m/d) + ...

for each divisor d of m.  Reducing modulo q^m - 1 folds exponents into
residue classes; a reduced polynomial lies in the span of the B_d exactly
when its coefficients are constant on the classes {j : gcd(j, m) = g}, and
the basis coefficients are then recovered by Mobius inversion over the
divisor lattice.  Everything stays in integer arithmetic; no root of unity
is ever touched numerically.

A polynomial with nonnegative coefficients below 2^(8w) is also held
exactly by its value at q = 2^(8w), whose base-2^(8w) digits are the
coefficients (Kronecker substitution); the q-binomials, and in ``schur``
the Jacobi-Trudi determinant, are computed as such values and unpacked.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from math import comb, gcd
from operator import index
from typing import Iterable, NamedTuple

from ._value import Value


class QPoly(Value):
    """Dense integer polynomial in q; the zero polynomial has no coefficients.

    The constructor accepts any iterable of integers and drops trailing
    zeros; a float or a string is a ``TypeError``."""

    __slots__ = ("coeffs",)
    _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        coeffs = tuple(map(index, coeffs))
        n = len(coeffs)
        while n > 0 and coeffs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", coeffs[:n])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, e: int) -> int:
        return self.coeffs[e] if 0 <= e < len(self.coeffs) else 0

    def shift(self, e: int) -> "QPoly":
        """Multiply by q^e."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if self.is_zero:
            return self
        return QPoly((0,) * e + self.coeffs)

    def __mul__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    out[i + j] += ci * cj
        return QPoly(out)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        return self.to_text()

    def to_text(self) -> str:
        """Sparse rendering with ascending exponents, e.g. "1 + 2*q^2 - q^3"."""
        if self.is_zero:
            return "0"
        pieces = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{e}" if mag == 1 else f"{mag}*q^{e}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)


class Verdict(enum.Enum):
    """Classification of a polynomial against the divisor basis mod q^m - 1."""

    NOT_PRE_CSP = "not-pre-csp"
    PRE_CSP = "pre-csp"
    CSP = "csp"


class CspDecomposition(NamedTuple):
    """Divisor-basis coordinates of a polynomial modulo q^m - 1.

    ``coefficients`` maps each divisor d of m to the coefficient of B_d;
    it is None exactly when the verdict is NOT_PRE_CSP.
    """

    m: int
    verdict: Verdict
    coefficients: dict[int, int] | None


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def mobius(n: int) -> int:
    """Classical Mobius function, by trial division."""
    if n < 1:
        raise ValueError("n must be positive")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def reduce_mod(f: QPoly, m: int) -> QPoly:
    """Reduce modulo q^m - 1 by folding exponents into residues mod m."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if f.degree < m:
        return f
    out = [0] * m
    for e, c in enumerate(f.coeffs):
        out[e % m] += c
    return QPoly(out)


def csp_decompose(f: QPoly, m: int) -> CspDecomposition:
    """Classify f against the divisor basis modulo q^m - 1.

    The reduced coefficient at q^j depends only on gcd(j, m) whenever f
    lies in the basis span, so the verdict test is constancy on gcd
    classes; the coefficients follow by Mobius inversion.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    r = reduce_mod(f, m)
    coeffs = [r.coefficient(j) for j in range(m)]
    # class value per gcd; gcd(0, m) == m handles the constant class
    class_value: dict[int, int] = {}
    for j in range(m):
        g = gcd(j, m)
        if g in class_value:
            if class_value[g] != coeffs[j]:
                return CspDecomposition(m, Verdict.NOT_PRE_CSP, None)
        else:
            class_value[g] = coeffs[j]
    divs = divisors(m)
    # u[h] = value on the class gcd = m/h, which equals sum of a_d over h | d | m
    u = {h: class_value[m // h] for h in divs}
    a: dict[int, int] = {}
    for h in divs:
        total = 0
        for d in divs:
            if d % h == 0:
                total += mobius(d // h) * u[d]
        a[h] = total
    verdict = Verdict.CSP if all(v >= 0 for v in a.values()) else Verdict.PRE_CSP
    return CspDecomposition(m, verdict, a)


def eval_at_primitive_root(f: QPoly, m: int, j: int) -> int:
    """Exact value of f at the j-th power of a primitive m-th root of unity.

    Requires f to lie in the divisor-basis span mod q^m - 1; the value is
    the integer sum of d * a_d over divisors d of gcd(j, m), with j = 0
    giving f(1).
    """
    dec = csp_decompose(f, m)
    if dec.coefficients is None:
        raise ValueError("no divisor-basis decomposition")
    g = gcd(j, m)
    return sum(d * ad for d, ad in dec.coefficients.items() if g % d == 0)


def _q_binomial_at(n: int, k: int, w: int) -> int:
    """[n + k - 1 choose n] at q = 2^(8w) for n >= 0, by the exact product
    of (q^(n+i) - 1) / (q^i - 1) over 0 < i < k; each partial product is
    the q-binomial [n + i choose i], so every division is exact."""
    bits, acc = 8 * w, 1
    for i in range(1, k):
        acc = ((acc << bits * (n + i)) - acc) // ((1 << bits * i) - 1)
    return acc


def _digits(value: int, w: int) -> list[int]:
    """Base-2^(8w) digits of value >= 0, least significant first."""
    raw = value.to_bytes((value.bit_length() + 7) // 8, "little")
    return [int.from_bytes(raw[i : i + w], "little") for i in range(0, len(raw), w)]


@lru_cache(maxsize=1024)
def gaussian_binomial(n: int, k: int) -> QPoly:
    """The q-binomial [n + k - 1 choose n]_q counting n-multisets of {1..k}.

    Equals the principal specialization of the n-th complete homogeneous
    polynomial in k variables.  Negative n gives the zero polynomial and
    n = 0 gives 1.  The coefficients are nonnegative and sum to
    C(n + k - 1, n), so each fits in w bytes; they are read off as the
    base-2^(8w) digits of the value at q = 2^(8w).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        return QPoly()
    w = comb(n + k - 1, n).bit_length() // 8 + 1
    return QPoly(_digits(_q_binomial_at(n, k, w), w))
