"""Shared generators and independent oracles for the test suite.

The shape oracles here work directly on cell sets and diagram surgery so
they share no code with the bead-position implementation they check; the
strip builders and predicates on ``SkewShape`` read row lengths only.  The
polynomial helpers at the end (linear combinations, the divisor basis,
q -> q^s, the q-binomial fold identity and its coefficients) build on
``QPoly`` only.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from skewsieve.qpoly import QPoly, gaussian_binomial, reduce_mod
from skewsieve.shapes import Partition, SkewShape


def partitions_of(n: int, max_part: int | None = None):
    """All partitions of n as weakly decreasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def partitions_up_to(n: int):
    """All partitions of size 0..n."""
    for total in range(n + 1):
        yield from partitions_of(total)


def partitions_in_box(max_len: int, max_part: int):
    """All partitions with at most max_len parts, each at most max_part."""
    def rec(remaining_rows, cap, prefix):
        yield tuple(prefix)
        if remaining_rows == 0:
            return
        for p in range(cap, 0, -1):
            prefix.append(p)
            yield from rec(remaining_rows - 1, p, prefix)
            prefix.pop()

    yield from rec(max_len, max_part, [])


def subpartitions(lam: tuple[int, ...]):
    """All partitions contained in lam."""
    if not lam:
        yield ()
        return

    def rec(i, prev, acc):
        if i == len(lam):
            yield tuple(acc)
            return
        for p in range(min(lam[i], prev), -1, -1):
            acc.append(p)
            yield from rec(i + 1, p, acc)
            acc.pop()

    for mu in rec(0, lam[0], []):
        # canonical form: strip trailing zeros
        k = len(mu)
        while k and mu[k - 1] == 0:
            k -= 1
        yield mu[:k]


def subpartitions_mod(lam: tuple[int, ...], m: int):
    """Partitions mu inside lam with every lam_i - mu_i divisible by m."""
    for mu in subpartitions(lam):
        padded = mu + (0,) * (len(lam) - len(mu))
        if all((a - b) % m == 0 for a, b in zip(lam, padded)):
            yield mu


def compositions_with_parts(max_rows: int, allowed_parts):
    """All nonempty compositions with 1..max_rows rows, parts from the pool."""
    allowed = tuple(allowed_parts)
    def rec(rows, prefix):
        if prefix:
            yield tuple(prefix)
        if rows == 0:
            return
        for p in allowed:
            prefix.append(p)
            yield from rec(rows - 1, prefix)
            prefix.pop()

    yield from rec(max_rows, [])


def cells_of(lam: tuple[int, ...], mu: tuple[int, ...]) -> set[tuple[int, int]]:
    """1-based cells of the skew diagram lam/mu."""
    padded = mu + (0,) * (len(lam) - len(mu))
    return {
        (i + 1, j)
        for i, (a, b) in enumerate(zip(lam, padded))
        for j in range(b + 1, a + 1)
    }


def is_border_strip_cells(cells: set[tuple[int, int]]) -> bool:
    """Edge-connected, nonempty, and free of 2x2 blocks."""
    if not cells:
        return False
    for (i, j) in cells:
        if {(i, j + 1), (i + 1, j), (i + 1, j + 1)} <= cells:
            return False
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        i, j = c
        stack.extend(
            nb
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
            if nb in cells and nb not in seen
        )
    return len(seen) == len(cells)


def border_strip_shape(alpha: Iterable[int]) -> SkewShape:
    """Build the border strip whose row lengths are the given composition.

    Row i of the result has alpha_i cells and consecutive rows overlap in
    exactly one column, so every composition with all parts >= 1 yields a
    valid connected strip.
    """
    parts = tuple(alpha)
    if not parts:
        return SkewShape(Partition())
    if any(p < 1 for p in parts):
        raise ValueError("border strip rows must have at least one cell")
    l = len(parts)
    outer = [0] * l
    inner = [0] * l
    outer[l - 1] = parts[l - 1]
    for i in range(l - 2, -1, -1):
        inner[i] = outer[i + 1] - 1
        outer[i] = inner[i] + parts[i]
    return SkewShape(Partition(outer), Partition(inner))


def is_horizontal_strip(shape: SkewShape) -> bool:
    """True iff no column of the diagram holds two cells: each row ends
    no further right than the row above it starts."""
    outer, inner = shape.outer, shape.inner
    return all(outer.part(i + 1) <= inner.part(i) for i in range(outer.length - 1))


def diagram_strip_removals(lam: tuple[int, ...], d: int):
    """All (new_partition, height) from deleting a size-d border strip.

    Pure diagram surgery: tries every partition nu inside lam with d fewer
    cells and keeps those whose difference is a border strip; the height
    is one less than the number of rows the strip touches.
    """
    results = []
    for nu in subpartitions(lam):
        if sum(lam) - sum(nu) != d:
            continue
        diff = cells_of(lam, nu)
        if is_border_strip_cells(diff):
            rows = {i for i, _ in diff}
            results.append((nu, len(rows) - 1))
    return results


def diagram_core(lam: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Remove size-d strips until none can be removed."""
    current = lam
    while True:
        removals = diagram_strip_removals(current, d)
        if not removals:
            return current
        current = removals[0][0]


def diagram_peel_exists(lam: tuple[int, ...], mu: tuple[int, ...], d: int) -> bool:
    """Whether repeated size-d strip removal can take lam down to mu."""
    mu_cells = cells_of(mu, ())

    @lru_cache(maxsize=None)
    def reach(current: tuple[int, ...]) -> bool:
        if current == mu:
            return True
        if sum(current) <= sum(mu):
            return False
        return any(
            mu_cells <= cells_of(nu, ()) and reach(nu)
            for nu, _ in diagram_strip_removals(current, d)
        )

    if not (mu_cells <= cells_of(lam, ())):
        return False
    result = reach(lam)
    reach.cache_clear()
    return result


def diagram_signed_char(lam, mu, sizes) -> int:
    """Signed strip-removal count by diagram surgery.

    Removes border strips of the given sizes, last entry first, never
    uncovering the target; each complete removal contributes the parity
    of its summed heights.
    """
    mu_cells = cells_of(mu, ())

    def rec(current, idx):
        if idx < 0:
            return 1 if current == mu else 0
        total = 0
        for nu, height in diagram_strip_removals(current, sizes[idx]):
            if mu_cells <= cells_of(nu, ()):
                sub = rec(nu, idx - 1)
                total += sub if height % 2 == 0 else -sub
        return total

    if not (mu_cells <= cells_of(lam, ())):
        return 0
    return rec(lam, len(sizes) - 1)


def hook_length_count(lam: tuple[int, ...]) -> int:
    """Standard fillings of a straight shape by the hook-length formula."""
    from math import factorial

    conj = [sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0)]
    hooks = 1
    for i, p in enumerate(lam):
        for j in range(p):
            hooks *= (p - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(lam)) // hooks


@lru_cache(maxsize=None)
def corner_removal_count(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Standard fillings of lam/mu: the largest entry sits in an outer
    corner of lam outside mu, so sum over removing each such corner."""
    if sum(lam) == sum(mu):
        return 1
    padded = mu + (0,) * (len(lam) - len(mu))
    total = 0
    for i, p in enumerate(lam):
        if p > padded[i] and (i + 1 == len(lam) or lam[i + 1] < p):
            nu = lam[:i] + (p - 1,) + lam[i + 1 :]
            total += corner_removal_count(nu[: len(nu) - (nu[-1] == 0)], mu)
    return total


def compositions_of(n: int, max_parts: int | None = None):
    """All compositions of n (ordered tuples of positive parts)."""
    if max_parts is None:
        max_parts = n
    if n == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(1, n + 1):
        for rest in compositions_of(n - first, max_parts - 1):
            yield (first,) + rest


def complex_root_value(coeffs, m: int, j: int) -> complex:
    """Floating-point evaluation at exp(2 pi i j / m), for cross-checks."""
    import cmath

    w = cmath.exp(2j * cmath.pi * j / m)
    total = 0j
    for e, c in enumerate(coeffs):
        total += c * w**e
    return total


def linear_combination(terms: Iterable[tuple[int, QPoly]]) -> QPoly:
    """The sum of c * f over the (c, f) pairs, coefficient by coefficient."""
    out: list[int] = []
    for c, f in terms:
        out += [0] * (len(f.coeffs) - len(out))
        for e, x in enumerate(f.coeffs):
            out[e] += c * x
    return QPoly(out)


def substitute_power(f: QPoly, s: int) -> QPoly:
    """Replace q by q^s (s >= 1)."""
    if s < 1:
        raise ValueError("power must be >= 1")
    if f.is_zero or s == 1:
        return f
    out = [0] * (s * f.degree + 1)
    for e, c in enumerate(f.coeffs):
        out[s * e] = c
    return QPoly(out)


def basis_element(m: int, d: int) -> QPoly:
    """B_d = (q^m - 1)/(q^(m/d) - 1), with support {i*m/d : 0 <= i < d}."""
    if m < 1 or m % d != 0:
        raise ValueError("d must divide m")
    step = m // d
    out = [0] * ((d - 1) * step + 1)
    for i in range(d):
        out[i * step] = 1
    return QPoly(out)


def verify_qbinomial_reduction_identity(n: int, k: int, m: int) -> bool:
    """Check that, modulo q^m - 1 with m dividing n, the n-multiset counter
    on k values folds to the sum over j < k of j-multiset counters on n
    values.  Returns False only on a genuine inequality."""
    if n < 1 or k < 1 or m < 1 or n % m != 0:
        raise ValueError("need n, k, m >= 1 with m dividing n")
    lhs = reduce_mod(gaussian_binomial(n, k), m)
    total = linear_combination((1, gaussian_binomial(j, n)) for j in range(k))
    return lhs == reduce_mod(total, m)


def a_coefficient(l: int, k: int, n: int) -> int:
    """Coefficient of q^l in the q-binomial for (n, k) reduced mod q^k - 1.

    l is read modulo k, which in particular makes the value for k = 1
    always equal to 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return reduce_mod(gaussian_binomial(n, k), k).coefficient(l % k)
