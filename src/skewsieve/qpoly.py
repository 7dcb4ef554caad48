"""Integer polynomials in q and the cyclic divisor-basis calculus.

A polynomial is a dense tuple of arbitrary-precision integers indexed by
exponent.  The routes here read, shift, fold and classify polynomials;
``QPoly * QPoly`` is the one arithmetic operation.  For a modulus m the
divisor basis consists of the polynomials

    B_d = (q^m - 1) / (q^(m/d) - 1) = 1 + q^(m/d) + q^(2m/d) + ...

for each divisor d of m.  Reducing modulo q^m - 1 folds exponents into
residue classes; a reduced polynomial lies in the span of the B_d exactly
when its coefficients are constant on the classes {j : gcd(j, m) = g}.
The value on class g is the sum of the coefficients of B_(m/e) over the
divisors e of g, so the basis coefficients are its Mobius inversion, one
prime of m at a time; that factorisation also gives the divisors.  The
same inversion reads the basis off root-of-unity values: at an m-th root
of unity of order m/g, B_d is d when d divides g and 0 otherwise, so the
value of the polynomial there is the sum of d * a_d over the divisors d
of g (``analysis`` takes this route when m divides the variable count).
Everything stays in integer arithmetic; no root of unity is ever touched
numerically.

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

    def __init__(self, coeffs: Iterable[int] = ()):
        coeffs = tuple(map(index, coeffs))
        n = len(coeffs)
        while n > 0 and coeffs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", coeffs[:n])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def shift(self, e: int) -> "QPoly":
        """Multiply by q^e."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if not self:
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
        """Sparse rendering with ascending exponents, e.g. "1 + 2*q^2 - q^3"."""
        if not self:
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

    ``coefficients`` maps each divisor d of m to the coefficient of B_d,
    or is None off the basis span; the verdict is read off them.
    """

    m: int
    coefficients: dict[int, int] | None

    @property
    def verdict(self) -> Verdict:
        if self.coefficients is None:
            return Verdict.NOT_PRE_CSP
        return Verdict.CSP if all(v >= 0 for v in self.coefficients.values()) else Verdict.PRE_CSP


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1, expanded prime power by prime
    power.  Trial division stops at the square root of the part of n not
    yet factored, so only a large prime factor costs up to O(sqrt(n))."""
    if n < 1:
        raise ValueError("n must be positive")
    divs, p = [1], 2
    while p * p <= n:
        if n % p == 0:
            block = len(divs)
            while n % p == 0:
                n //= p
                divs += [d * p for d in divs[-block:]]
        p += 1
    if n > 1:
        divs += [d * n for d in divs]
    return sorted(divs)


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


def _invert_divisor_sums(divs: list[int], value: dict[int, int]) -> dict[int, int]:
    """The b_g with value[g] equal to the sum of b_e over the divisors e of
    g, for the ascending divisors ``divs`` of m (the key order of
    ``value`` and of the result).  The sums run along each prime's
    exponent, so one prime p at a time b[g] -= b[g / p], g walking down; a
    divisor is prime when coprime to the primes before it.  O(tau(m) * omega(m))."""
    known = dict(value)
    radical = 1  # the product of the primes found so far
    for p in divs[1:]:
        if gcd(p, radical) == 1:
            radical *= p
            for g in reversed(divs):
                if g % p == 0:
                    known[g] -= known[g // p]
    return known


def csp_decompose(f: QPoly, m: int) -> CspDecomposition:
    """Classify f against the divisor basis modulo q^m - 1.

    The reduced coefficient r_j must depend only on gcd(j, m).  Class g is
    read at its least member q^g (q^0 for g = m); every stored r_j is
    checked against its class, and a class whose greatest member m - g
    lies past the stored coefficients must read 0.  The value on class g
    is the sum of a_(m/e) over the divisors e of g; ``_invert_divisor_sums``
    gives each a_(m/g), in ascending divisor order.  Beyond ``divisors(m)``
    the cost is O(len(f) + tau(m) * omega(m)) for omega(m) primes of m.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    r = reduce_mod(f, m).coeffs
    n = len(r)
    divs = divisors(m)
    value = {g: r[g % m] if g % m < n else 0 for g in divs}
    for j, c in enumerate(r):
        if c != value[gcd(j, m)]:
            return CspDecomposition(m, None)
    for g in divs:
        if g < m and m - g >= n and value[g]:
            return CspDecomposition(m, None)
    known = _invert_divisor_sums(divs, value)  # known[g] = a_(m/g)
    return CspDecomposition(m, {d: known[m // d] for d in divs})


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
    """[n + k - 1 choose n] at q = 2^(8w) for n >= 0.  With s <= t the
    numbers n and k - 1, this equals [t + s choose s], the exact product of
    (q^(t+i) - 1) / (q^i - 1) over 0 < i <= s; each partial product is the
    q-binomial [t + i choose i], so every division is exact, and the loop
    takes min(n, k - 1) steps."""
    bits, acc = 8 * w, 1
    s, t = (n, k - 1) if n < k else (k - 1, n)
    for i in range(1, s + 1):
        acc = ((acc << bits * (t + i)) - acc) // ((1 << bits * i) - 1)
    return acc


def _width(total: int) -> int:
    """Bytes w per base-2^(8w) digit for nonnegative coefficients summing to
    ``total``: enough that no coefficient reaches 2^(8w)."""
    return total.bit_length() // 8 + 1


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
    w = _width(comb(n + k - 1, n))
    return QPoly(_digits(_q_binomial_at(n, k, w), w))
