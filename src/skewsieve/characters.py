"""Border-strip tableaux, skew characters, and root-of-unity values.

A border-strip tableau of type (d^m) is the same thing as a sequence of m
bead slides taking the outer display down to the inner one, with strips
numbered in descending order of removal.  Character values never need the
tableaux themselves.  On a rectangular type the quotient theorem gives
the count in closed form (a multinomial of the d-quotient component sizes
times Aitken determinants for their standard fillings, whose component
factorials cancel into one ratio of factorials, charged to the work
meter from the bead rows before any factorial is taken) and the sign
from the residue-class matching permutation.  Those determinants, like
the components' filling counts of a root-of-unity value, join one
running product in ``schur._jt_det``.  Both values are read from the
one pairing pass ``abacus._runners``: the bead rows of each occupied
runner are the components' beta-sets, so no component shape is built,
and no empty runner is visited.  Only arbitrary types and the explicit
tableau listing walk the reachable bead configurations, and those two
walks are the independent oracles for the closed form.  Both are loops,
so the number
of strips is not bounded by the recursion limit: the arbitrary-type count
is a forward pass holding one signed count per configuration for the
current and the next strip, and the listing is a depth-first search over
an explicit stack of plain states, each a configuration with the strips
removed on the way there; each strip's cells are read off its bead slide,
not off rebuilt shapes.  While the work meter runs, the count charges
each strip's configurations times beads before it expands them, and the
listing each state it pops.
"""

from __future__ import annotations

from math import comb, factorial, prod
from typing import Iterable, Iterator, NamedTuple

from . import _meter, schur
from .abacus import _legal_moves, _runners
from .shapes import Composition, SkewShape


class BorderStripTableau(NamedTuple):
    """Strips listed by label 1..m (label m is removed first); ``strips[i]``
    is the frozen cell set of label i + 1 and ``heights[i]`` its height."""

    strips: tuple[frozenset[tuple[int, int]], ...]
    heights: tuple[int, ...]

    @property
    def total_height(self) -> int:
        return sum(self.heights)


class SkewCharValue(NamedTuple):
    """value = epsilon * bst_count, with epsilon = 0 iff there are no tableaux."""

    bst_count: int
    epsilon: int

    @property
    def value(self) -> int:
        return self.epsilon * self.bst_count


def enumerate_bst(shape: SkewShape, d: int) -> Iterator[BorderStripTableau]:
    """All border-strip tableaux of type (d^m), m = size / d.

    Yields nothing when d does not divide the size or no removal sequence
    reaches the inner shape.  Without a d-quotient there is none (the
    quotient theorem), so nothing is walked.  Deterministic: at every
    stage the moves are tried by decreasing bead position.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if shape.size % d != 0 or _runners(shape, d)[0] is None:
        return
    start, target = shape.beta_sets()
    # each state: a configuration, the position its last strip's bead slid
    # from (None at the start), that strip's height, and the strips and
    # heights removed before it, the last removed first; a strip's cells
    # are built when its state is popped, so unexplored siblings cost nothing
    stack = [(start, None, 0, (), ())]
    while stack:
        beta, p, height, strips, heights = stack.pop()
        if _meter.left is not None:
            _meter.charge(len(beta) * _meter.VISIT, "tableau listing")
        if p is not None:
            strips, heights = (_strip_cells(beta, p, d, height),) + strips, (height,) + heights
        if beta == target:
            yield BorderStripTableau(strips, heights)
        else:
            for pos, h, new in reversed(_legal_moves(beta, d, target)):
                stack.append((new, pos, h, strips, heights))


def _strip_cells(beta: tuple[int, ...], p: int, d: int, height: int) -> frozenset[tuple[int, int]]:
    """The d cells of the strip whose removal slid the bead at p to p - d,
    giving the configuration ``beta``.  The bead now sits at index t, and
    the strip spans the rows of indices t - height to t: the bead left the
    first of them, and each bead it passed moved up one row.  A bead at
    index r and position s ends its row (row r + 1) at column
    s + r + 1 - len(beta), so in each of those rows the strip runs from
    the column after the row's new end to its old one.  O(d + len(beta))
    steps."""
    t = beta.index(p - d)
    ends = (p,) + beta[t - height : t + 1]
    off = 2 - len(beta)
    return frozenset((r + 1, c)
                     for r, old, new in zip(range(t - height, t + 1), ends, ends[1:])
                     for c in range(new + r + off, old + r + off))


def skew_char_rect(shape: SkewShape, d: int) -> SkewCharValue:
    """Character value on the rectangular type (d^m) with m = size / d.

    By the quotient theorem the border-strip tableaux are counted by the
    multinomial of the d-quotient component sizes times each component's
    number of standard fillings, and they all share the sign of the
    residue-class matching permutation; without a quotient there are none.
    Aitken's count of a component with outer and inner bead rows a and b
    is n_c! det[C(a_i, b_j)] prod b_j! / prod a_i!, and the multinomial
    n! / prod n_c! cancels every n_c!, so with n = size / d the count is
    n! prod_c det[C(a_i, b_j)] prod b_j! / prod a_i! over the beads of all
    components, one exact division at the end.  Polynomial in the number
    of rows, and no bead configuration is visited.

    While the work meter runs, the ledger is charged from the bead rows
    before any factorial is taken: x! has at most x bit_length(x) bits,
    and each factorial, each join into the running products of the a! and
    the b!, n!, the join of the two products and the final division are
    priced as products.  The quotient is a tableau count below l^n (each
    strip slides one of the l beads), of at most q = n bit_length(l) bits,
    so the dividend has at most q bits more than the divisor, and the
    division costs q times the divisor's bits.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if shape.size % d != 0:
        raise ValueError("size mismatch: strip size must divide the shape size")
    components, matching = _runners(shape, d)
    if components is None:
        return SkewCharValue(0, 0)
    n = shape.size // d
    if _meter.left is not None:
        units, bits = 0, [0, 0]
        for rows in components.values():
            for side, beads in enumerate(rows):
                for x in beads:
                    t = x * x.bit_length()
                    units += _meter.product_cost(t, t) + _meter.product_cost(bits[side], t)
                    bits[side] += t
        divisor, below = bits
        t, q = n * n.bit_length(), n * shape.outer.length.bit_length()
        units += _meter.product_cost(t, t) + _meter.product_cost(q + divisor, below) + q * divisor
        _meter.charge(units, "factorial ledger")
    count = factorial(n) * schur._jt_det(components.values(), comb)
    tops = bottoms = 1
    for a, b in components.values():
        tops *= prod(map(factorial, a))
        bottoms *= prod(map(factorial, b))
    return SkewCharValue(count * bottoms // tops, permutation_sign(matching))


def skew_char(shape: SkewShape, nu: Iterable[int]) -> int:
    """Character value on an arbitrary type: the signed count of tableaux
    whose label-i strip has size nu_i.

    nu is read as a ``Composition``.  Zero parts of nu are dropped.  Strips
    are removed in decreasing label order, so the last part of nu comes
    off first.
    """
    sizes = tuple(p for p in Composition(nu).parts if p > 0)
    if sum(sizes) != shape.size:
        raise ValueError("size mismatch: type must sum to the shape size")
    start, target = shape.beta_sets()
    # signed tableau counts per bead configuration after each strip
    counts = {start: 1}
    for size in reversed(sizes):
        if _meter.left is not None:
            _meter.charge(len(counts) * len(start) * _meter.VISIT, "strip walk")
        reached: dict[tuple[int, ...], int] = {}
        for beta, count in counts.items():
            for _, height, new in _legal_moves(beta, size, target):
                reached[new] = reached.get(new, 0) + (count if height % 2 == 0 else -count)
        counts = reached
    return counts.get(target, 0)


def perm(shape: SkewShape, d: int) -> tuple[int, ...]:
    """Match rows of the outer and inner displays within each residue class.

    Row i carries the beta value part_i + length - i; rows are grouped by
    that value mod d for outer and inner separately, and the increasing
    enumerations of matching classes are paired off.  The result is the
    one-line form (image of 1, image of 2, ...).  Raises when the d-cores
    differ, since the classes then have different sizes.
    """
    _, matching = _runners(shape, d)
    if matching is None:
        raise ValueError("cores differ")
    return matching


def permutation_sign(pi: tuple[int, ...]) -> int:
    """Sign of the one-line form (values 1..l) from its cycles, in O(l): a
    permutation with c cycles is a product of l - c transpositions."""
    seen = [False] * len(pi)
    transpositions = len(pi)
    for start in range(len(pi)):
        if not seen[start]:
            transpositions -= 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = pi[i] - 1
    return -1 if transpositions % 2 else 1


def one_line_string(pi: tuple[int, ...]) -> str:
    """Digits run together when every value is a single digit, else
    comma-separated."""
    if all(v <= 9 for v in pi):
        return "".join(str(v) for v in pi)
    return ",".join(str(v) for v in pi)


def eval_at_root(shape: SkewShape, n_vars: int, d: int) -> int:
    """The specialization x_i = w^(i-1) for i = 1..n_vars, with w a
    primitive d-th root of unity and d dividing n_vars.

    Zero unless the d-quotient exists; otherwise the character sign times
    the product over components of their fillings with n_vars/d letters,
    one running product in ``schur._jt_count``.  That product is zero
    exactly when some component has a column longer than n_vars/d.
    """
    if n_vars < 1 or d < 1:
        raise ValueError("n_vars and d must be >= 1")
    if n_vars % d != 0:
        raise ValueError("d must divide the number of variables")
    components, matching = _runners(shape, d)
    if components is None:
        return 0
    if shape.size % d != 0:
        raise RuntimeError("a quotient exists but d does not divide the size")
    return permutation_sign(matching) * schur._jt_count(components.values(), n_vars // d)


def kostka_foulkes_rect_at_root(shape: SkewShape, n_vars: int, m: int) -> int:
    """Value of the skew Kostka-Foulkes polynomial for the rectangular
    type (m^n_vars) at a primitive n_vars-th root of unity.

    Always one of -1, 0, +1: it is (-1)^((n_vars - 1) m) times the root
    evaluation above with d = n_vars, which vanishes unless every
    component of the quotient is a horizontal strip.
    """
    if shape.size != n_vars * m:
        raise ValueError("size mismatch: shape size must equal n_vars * m")
    sign = -1 if ((n_vars - 1) * m) % 2 else 1
    return sign * eval_at_root(shape, n_vars, n_vars)
