"""Shared generators and independent oracles for the test suite.

The shape oracles here work directly on cell sets and diagram surgery so
they share no code with the bead-position implementation they check; the
strip builders and predicates on ``SkewShape`` read row lengths only.  The
polynomial helpers at the end (coefficient reads, linear combinations, the
divisor basis, q -> q^s, the q-binomial fold identity and its
coefficients, and the dense Mobius-inversion decomposition) build on
``QPoly`` only; the trial-division divisors and the pairwise divisor-sum
inversion are the references for the factorisation routes in ``qpoly``,
the whole-matrix determinant is the reference for the block split in
``schur``, and with it the whole Aitken matrices for the rectangular
characters, and the pairing read off two runner dictionaries is the
reference for the one-loop pass ``abacus._runners``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, gcd, prod
from typing import Iterable

from skewsieve.qpoly import (
    CspDecomposition,
    QPoly,
    divisors,
    gaussian_binomial,
    reduce_mod,
)
from skewsieve.schur import _integer_det
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


def inversion_sign(pi: tuple[int, ...]) -> int:
    """Sign of a one-line permutation from its inversion count, O(l^2)."""
    inversions = sum(1 for i in range(len(pi)) for j in range(i + 1, len(pi)) if pi[i] > pi[j])
    return -1 if inversions % 2 else 1


def conjugate(lam: Partition) -> Partition:
    """The transposed diagram: part j counts the parts of lam that are >= j."""
    if not lam.parts:
        return Partition()
    return Partition(
        sum(1 for p in lam.parts if p >= j) for j in range(1, lam.parts[0] + 1)
    )


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


def coefficient(f: QPoly, e: int) -> int:
    """The coefficient of q^e in f; 0 outside the stored range."""
    return f.coeffs[e] if 0 <= e < len(f.coeffs) else 0


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
    if not f or s == 1:
        return f
    out = [0] * (s * f.degree + 1)
    for e, c in enumerate(f.coeffs):
        out[s * e] = c
    return QPoly(out)


def q_binomial_at_in_k_steps(n: int, k: int, w: int) -> int:
    """[n + k - 1 choose n] at q = 2^(8w) as the product of
    (q^(n+i) - 1) / (q^i - 1) over 0 < i < k, whatever the size of n."""
    bits, acc = 8 * w, 1
    for i in range(1, k):
        acc = ((acc << bits * (n + i)) - acc) // ((1 << bits * i) - 1)
    return acc


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
    return coefficient(reduce_mod(gaussian_binomial(n, k), k), l % k)


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


def divisors_by_trial(n: int) -> list[int]:
    """Reference for ``divisors``: every d up to sqrt(n), paired with n // d."""
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


def invert_divisor_sums_pairwise(divs: list[int], value: dict[int, int]) -> dict[int, int]:
    """Reference for ``qpoly._invert_divisor_sums``: walking the ascending
    divisors upward, b_g is value[g] less every b_e already known with e
    dividing g, O(tau(m)^2)."""
    known: dict[int, int] = {}
    for g in divs:
        total = value[g]
        for e in known:
            if g % e == 0:
                total -= known[e]
        known[g] = total
    return known


def jt_det_whole(tops, bottoms, entry) -> int:
    """Reference for ``schur._jt_det``: det[entry(a_i, b_j)], taken as 0
    where a_i < b_j, as one l x l matrix through ``_integer_det``, not
    split into diagonal blocks."""
    return _integer_det([[entry(a, b) if a >= b else 0 for b in bottoms] for a in tops])


def skew_char_rect_whole(shape: SkewShape, d: int) -> tuple[int, int]:
    """Reference for ``characters.skew_char_rect``: (count, sign) as the
    multinomial of the d-quotient component sizes times each component's
    standard count n_c! det[C(a_i, b_j)] prod b_j! / prod a_i!, Aitken's
    matrix taken whole by ``jt_det_whole``, with the components paired by
    ``runners_by_two_displays`` and the sign an ``inversion_sign``."""
    components, matching = runners_by_two_displays(shape, d)
    if components is None:
        return 0, 0
    count = factorial(shape.size // d)
    for a, b in components.values():
        n = sum(a) - sum(b)
        standard = factorial(n) * jt_det_whole(a, b, comb) * prod(map(factorial, b)) // prod(map(factorial, a))
        count = count // factorial(n) * standard
    return count, inversion_sign(matching)


def runners_by_two_displays(shape: SkewShape, d: int):
    """Reference for ``abacus._runners``: both displays are sorted onto
    their runners first, then the counts are compared, the k-th outer bead
    on each runner is paired with the k-th inner bead there, and the pairs
    are checked for nesting.  Returns (components, matching) as the pass
    does."""
    outer, inner = shape.beta_sets()

    def on_runners(beta):
        runners: dict[int, list[int]] = {}
        for i, p in enumerate(beta):
            runners.setdefault(p % d, []).append(i)
        return runners

    outer_on, inner_on = on_runners(outer), on_runners(inner)
    if any(len(at) != len(inner_on.get(t, ())) for t, at in outer_on.items()):
        return None, None
    image = [0] * len(outer)
    for t, at in outer_on.items():
        for i, j in zip(at, inner_on[t]):
            image[i] = j + 1
    matching = tuple(image)
    if any(outer[i] < inner[j - 1] for i, j in enumerate(matching)):
        return None, matching
    return {t: ([outer[i] // d for i in at], [inner[j] // d for j in inner_on[t]])
            for t, at in outer_on.items()}, matching


def csp_decompose_dense(f: QPoly, m: int) -> CspDecomposition:
    """Reference for ``csp_decompose``: read all m reduced coefficients,
    test constancy on every gcd class, then invert by the Mobius function
    over the divisor lattice."""
    if m < 1:
        raise ValueError("modulus must be positive")
    r = reduce_mod(f, m)
    coeffs = [coefficient(r, j) for j in range(m)]
    # class value per gcd; gcd(0, m) == m handles the constant class
    class_value: dict[int, int] = {}
    for j in range(m):
        g = gcd(j, m)
        if g in class_value:
            if class_value[g] != coeffs[j]:
                return CspDecomposition(m, None)
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
    return CspDecomposition(m, a)
