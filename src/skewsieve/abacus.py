"""The d-runner abacus: bead displays, cores, quotients, and strip moves.

Positions 0, 1, 2, ... are read left to right along successive rows of a
board with d vertical runners, so position p sits on runner p mod d in
row p div d.  A partition occupies the bead positions given by one of its
beta-sets.  Removing a border strip of size d from the diagram is the
same as sliding one bead down its runner by a single row, which is how
every strip-removal computation here works; diagrams never enter into it.

Every route here reads its beads through one primitive, which takes a
beta-set from ``Partition.beta_set`` onto the runners: per runner, the bead
rows (the beta-set of that quotient component) and the indices of the beta
numbers there.  ``quotient`` and ``core`` read one display.  For skew
computations the bead count r is always the outer length, so the outer
and inner displays stay aligned; read together, they feed the skew
quotient, the runner classes of the outer beads, the single strip
removals, and the matching permutation and quotient-theorem counts in
``characters``.
"""

from __future__ import annotations

from typing import NamedTuple

from .shapes import Partition, SkewShape, partition_from_beta


class SkewQuotient(NamedTuple):
    """Componentwise quotient of a skew shape; components is None when the
    inner and outer displays cannot be matched runner by runner."""

    exists: bool
    components: tuple[SkewShape, ...] | None


def display(lam: Partition, d: int, r: int) -> str:
    """The d-abacus display of a partition using r beads (r >= length) as
    text: the runner numbers, then one row per abacus row, beads as filled
    circles."""
    if d < 1:
        raise ValueError("d must be >= 1")
    beads = set(lam.beta_set(r))
    rows = max(beads) // d + 1 if beads else 1
    lines = [" ".join(str(t) for t in range(d))]
    for row in range(rows):
        lines.append(" ".join("●" if row * d + t in beads else "·" for t in range(d)))
    return "\n".join(lines)


def _on_runners(beta: tuple[int, ...], d: int) -> tuple[list[list[int]], list[list[int]]]:
    """A strictly decreasing beta-set read onto d runners.  Two lists by
    runner: the rows of the beads there (decreasing) and their indices in
    ``beta`` (increasing)."""
    rows: list[list[int]] = [[] for _ in range(d)]
    at: list[list[int]] = [[] for _ in range(d)]
    for i, p in enumerate(beta):
        row, t = divmod(p, d)
        rows[t].append(row)
        at[t].append(i)
    return rows, at


def quotient(lam: Partition, d: int, r: int) -> tuple[Partition, ...]:
    """The d-quotient read off the runners of the r-bead display.

    Component i is the partition encoded by the bead rows on runner i;
    the result depends on r only up to a cyclic relabelling of runners.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    rows, _ = _on_runners(lam.beta_set(r), d)
    return tuple(partition_from_beta(rs) for rs in rows)


def core(lam: Partition, d: int) -> Partition:
    """The d-core: every bead pushed as far up its runner as it goes."""
    if d < 1:
        raise ValueError("d must be >= 1")
    r = max(lam.length, 1)
    rows, _ = _on_runners(lam.beta_set(r), d)
    packed = [t + d * j for t, rs in enumerate(rows) for j in range(len(rs))]
    return partition_from_beta(packed)


def _runners(shape: SkewShape, d: int) -> tuple[list[list[int]], ...]:
    """Both displays (r = outer length) read onto the runners.  Four lists
    by runner: the outer and the inner bead rows, each decreasing, then the
    rows of the shape (0-based) whose outer and whose inner bead is there."""
    if d < 1:
        raise ValueError("d must be >= 1")
    l = shape.outer.length
    outer_rows, outer_at = _on_runners(shape.outer.beta_set(l), d)
    inner_rows, inner_at = _on_runners(shape.inner.beta_set(l), d)
    return outer_rows, inner_rows, outer_at, inner_at


def _nested(outer_rows: list[list[int]], inner_rows: list[list[int]]) -> bool:
    """True iff the quotient exists: every runner carries as many inner as
    outer beads, the k-th inner one no lower than the k-th outer one."""
    return all(len(a) == len(b) and all(x >= y for x, y in zip(a, b))
               for a, b in zip(outer_rows, inner_rows))


def skew_quotient(shape: SkewShape, d: int) -> SkewQuotient:
    """Quotient of outer and inner together, both with r = outer length.

    Exists only if each runner carries the same number of beads in both
    displays (equal d-cores) and the component shapes nest.
    """
    outer_rows, inner_rows, _, _ = _runners(shape, d)
    if not _nested(outer_rows, inner_rows):
        return SkewQuotient(False, None)
    return SkewQuotient(True, tuple(SkewShape(partition_from_beta(a), partition_from_beta(b))
                                    for a, b in zip(outer_rows, inner_rows)))


def runner_classes(shape: SkewShape, d: int) -> tuple[tuple[int, ...], ...]:
    """Partition the row indices 1..length by the runner of their outer bead."""
    outer_at = _runners(shape, d)[2]
    return tuple(tuple(i + 1 for i in c) for c in outer_at)


def _legal_moves(
    beta: tuple[int, ...], d: int, target: tuple[int, ...]
) -> list[tuple[int, int, tuple[int, ...]]]:
    """All bead slides p -> p - d whose result still dominates the target.

    ``beta`` and ``target`` are strictly decreasing position tuples of
    equal length.  Returns (position, height, new beta) triples with the
    height counting beads strictly between p - d and p; moves are listed
    by decreasing position.
    """
    occupied = set(beta)
    moves = []
    for idx, p in enumerate(beta):
        q = p - d
        if q < 0 or q in occupied:
            continue
        new = list(beta)
        new[idx] = q
        # re-sorting passes one bead per occupied position in (q, p)
        j = idx
        height = 0
        while j + 1 < len(new) and new[j] < new[j + 1]:
            new[j], new[j + 1] = new[j + 1], new[j]
            j += 1
            height += 1
        if all(nb >= tb for nb, tb in zip(new, target)):
            moves.append((p, height, tuple(new)))
    return moves


def remove_strip_moves(lam: Partition, d: int, target_mu: Partition) -> list[tuple[int, int]]:
    """Legal single-strip removals of size d that keep the target inside.

    Each move is a (bead position, height) pair on the display with one
    bead per row of ``lam``.  Raises if no removal sequence from ``lam``
    down to ``target_mu`` can exist at all.
    """
    outer_rows, inner_rows, _, _ = _runners(SkewShape(lam, target_mu), d)
    if not _nested(outer_rows, inner_rows):
        raise ValueError("no removal sequence")
    beta = lam.beta_set(lam.length)
    target = target_mu.beta_set(lam.length)
    return [(p, height) for p, height, _ in _legal_moves(beta, d, target)]
