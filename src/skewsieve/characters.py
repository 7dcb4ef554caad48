"""Border-strip tableaux, skew characters, and root-of-unity values.

A border-strip tableau of type (d^m) is the same thing as a sequence of m
bead slides taking the outer display down to the inner one, with strips
numbered in descending order of removal.  Character values never need the
tableaux themselves.  On a rectangular type the quotient theorem gives
the count in closed form (a multinomial of the d-quotient component sizes
times Aitken determinants for their standard fillings) and the sign from
the residue-class matching permutation.  Both, and the root-of-unity
values, are read from the bead rows of each runner, which are the
components' beta-sets, so no component shape is built.  Only arbitrary
types and the explicit tableau listing walk the reachable bead
configurations, and those two walks are the independent oracles for the
closed form.  Both are loops, so the number of strips is not bounded by
the recursion limit: the arbitrary-type count is a forward pass holding
one signed count per configuration for the current and the next strip,
and the listing is a depth-first search over an explicit stack of untried
moves.
"""

from __future__ import annotations

from math import comb, factorial, prod
from typing import Iterable, Iterator, NamedTuple

from .abacus import _legal_moves, _nested, _runners
from .schur import _integer_det, _jt_count
from .shapes import SkewShape, partition_from_beta


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

    value: int
    bst_count: int
    epsilon: int


def _strip_cells(before: tuple[int, ...], after: tuple[int, ...]) -> frozenset:
    """Diagram difference of the partitions encoded by two equal-length
    beta tuples, as 1-based cells."""
    old = partition_from_beta(before)
    new = partition_from_beta(after)
    r = len(before)
    cells = []
    for i in range(1, r + 1):
        for j in range(new.part(i - 1) + 1, old.part(i - 1) + 1):
            cells.append((i, j))
    return frozenset(cells)


def enumerate_bst(shape: SkewShape, d: int) -> Iterator[BorderStripTableau]:
    """All border-strip tableaux of type (d^m), m = size / d.

    Yields nothing when d does not divide the size or no removal sequence
    reaches the inner shape.  Without a d-quotient there is none (the
    quotient theorem), so nothing is walked.  Deterministic: at every
    stage the moves are tried by decreasing bead position.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if shape.size % d != 0 or not _nested(*_runners(shape, d)[:2]):
        return
    r = shape.outer.length
    start = shape.outer.beta_set(r)
    target = shape.inner.beta_set(r)
    if start == target:
        yield BorderStripTableau((), ())
        return
    # stack[i] holds a configuration and its untried moves; removed[i] is
    # the strip (cells, height) that led from stack[i] to stack[i + 1]
    stack = [(start, iter(_legal_moves(start, d, target)))]
    removed: list[tuple[frozenset, int]] = []
    while stack:
        beta, moves = stack[-1]
        move = next(moves, None)
        if move is None:
            stack.pop()
            if removed:
                removed.pop()
            continue
        _, height, new = move
        removed.append((_strip_cells(beta, new), height))
        if new == target:
            strips = tuple(cells for cells, _ in reversed(removed))
            heights = tuple(h for _, h in reversed(removed))
            yield BorderStripTableau(strips, heights)
            removed.pop()
        else:
            stack.append((new, iter(_legal_moves(new, d, target))))


def _standard_count(tops: list[int], bottoms: list[int], size: int) -> int:
    """Standard fillings f of the ``size``-cell skew shape whose outer and
    inner beta-sets, of one length, are ``tops`` and ``bottoms``: Aitken's
    f = N! det[1 / (a_i - b_j)!], row i scaled by a_i! and column j by
    1 / b_j! into binomials C(a_i, b_j), whose minors stay far smaller."""
    det = _integer_det([[comb(a, b) for b in bottoms] for a in tops])
    num = factorial(size) * det * prod(map(factorial, bottoms))
    return num // prod(map(factorial, tops))


def skew_char_rect(shape: SkewShape, d: int) -> SkewCharValue:
    """Character value on the rectangular type (d^m) with m = size / d.

    By the quotient theorem the border-strip tableaux are counted by the
    multinomial of the d-quotient component sizes times each component's
    number of standard fillings, and they all share the sign of the
    residue-class matching permutation; without a quotient there are none.
    Components are read as bead rows, runner by runner: polynomial in the
    number of rows, and no bead configuration is visited.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if shape.size % d != 0:
        raise ValueError("size mismatch: strip size must divide the shape size")
    outer_rows, inner_rows, outer_at, inner_at = _runners(shape, d)
    if not _nested(outer_rows, inner_rows):
        return SkewCharValue(0, 0, 0)
    count, placed = 1, 0
    for a, b in zip(outer_rows, inner_rows):
        size = sum(a) - sum(b)
        placed += size
        count *= comb(placed, size) * _standard_count(a, b, size)
    sign = permutation_sign(_matching(outer_at, inner_at, shape.outer.length))
    return SkewCharValue(sign * count, count, sign)


def skew_char(shape: SkewShape, nu: Iterable[int]) -> int:
    """Character value on an arbitrary type: the signed count of tableaux
    whose label-i strip has size nu_i.

    Zero parts of nu are dropped.  Strips are removed in decreasing label
    order, so the last part of nu comes off first.
    """
    parts = tuple(nu)
    if any(p < 0 for p in parts):
        raise ValueError("type parts must be nonnegative")
    sizes = tuple(p for p in parts if p > 0)
    if sum(sizes) != shape.size:
        raise ValueError("size mismatch: type must sum to the shape size")
    r = shape.outer.length
    target = shape.inner.beta_set(r)
    # signed tableau counts per bead configuration after each strip
    counts = {shape.outer.beta_set(r): 1}
    for size in reversed(sizes):
        reached: dict[tuple[int, ...], int] = {}
        for beta, count in counts.items():
            for _, height, new in _legal_moves(beta, size, target):
                reached[new] = reached.get(new, 0) + (count if height % 2 == 0 else -count)
        counts = reached
    return counts.get(target, 0)


def _matching(outer_at: list[list[int]], inner_at: list[list[int]], l: int) -> tuple[int, ...]:
    """The one-line form pairing, runner by runner, the rows whose outer
    beads and the rows whose inner beads sit there, in increasing order."""
    image = [0] * l
    for a, b in zip(outer_at, inner_at):
        if len(a) != len(b):
            raise ValueError("cores differ")
        for src, dst in zip(a, b):
            image[src] = dst + 1
    return tuple(image)


def perm(shape: SkewShape, d: int) -> tuple[int, ...]:
    """Match rows of the outer and inner displays within each residue class.

    Row i carries the beta value part_i + length - i; rows are grouped by
    that value mod d for outer and inner separately, and the increasing
    enumerations of matching classes are paired off.  The result is the
    one-line form (image of 1, image of 2, ...).
    """
    return _matching(*_runners(shape, d)[2:], shape.outer.length)


def permutation_sign(pi: tuple[int, ...]) -> int:
    """Sign via inversion count of the one-line form."""
    inv = sum(
        1
        for i in range(len(pi))
        for j in range(i + 1, len(pi))
        if pi[i] > pi[j]
    )
    return -1 if inv % 2 else 1


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
    the product over components of their fillings with n_vars/d letters.
    That product is zero exactly when some component has a column longer
    than n_vars/d.
    """
    if n_vars < 1 or d < 1:
        raise ValueError("n_vars and d must be >= 1")
    if n_vars % d != 0:
        raise ValueError("d must divide the number of variables")
    outer_rows, inner_rows, outer_at, inner_at = _runners(shape, d)
    if not _nested(outer_rows, inner_rows):
        return 0
    if shape.size % d != 0:
        raise RuntimeError("a quotient exists but d does not divide the size")
    sign = permutation_sign(_matching(outer_at, inner_at, shape.outer.length))
    product = 1
    for a, b in zip(outer_rows, inner_rows):
        product *= _jt_count(a, b, n_vars // d)
    return sign * product


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
