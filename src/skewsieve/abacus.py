"""The d-runner abacus: bead displays, cores, quotients, and strip moves.

Positions 0, 1, 2, ... are read left to right along successive rows of a
board with d vertical runners, so position p sits on runner p mod d in
row p div d.  A partition occupies the bead positions given by one of its
beta-sets.  Removing a border strip of size d from the diagram is the
same as sliding one bead down its runner by a single row, which is how
every strip-removal computation here works; diagrams never enter into it.

For skew computations the bead count r is always the outer length, so the
two displays stay aligned.  One pass over both, runner by runner, feeds the
quotient, the runner classes, the matching permutation and the
quotient-theorem counts in ``characters``.
"""

from __future__ import annotations

from typing import NamedTuple

from .shapes import Partition, SkewShape, partition_from_beta


class AbacusDisplay(NamedTuple):
    """d runners holding r beads at strictly decreasing positions."""

    d: int
    r: int
    positions: tuple[int, ...]

    def partition(self) -> Partition:
        """Reconstruct the partition encoded by the bead positions."""
        return partition_from_beta(self.positions)

    def render(self) -> str:
        """One text row per abacus row; beads are filled circles."""
        beads = set(self.positions)
        rows = (max(beads) // self.d + 1) if beads else 1
        header = " ".join(str(t) for t in range(self.d))
        lines = [header]
        for row in range(rows):
            lines.append(
                " ".join(
                    "●" if row * self.d + t in beads else "·"
                    for t in range(self.d)
                )
            )
        return "\n".join(lines)


class SkewQuotient(NamedTuple):
    """Componentwise quotient of a skew shape; components is None when the
    inner and outer displays cannot be matched runner by runner."""

    exists: bool
    components: tuple[SkewShape, ...] | None

    @property
    def sizes(self) -> tuple[int, ...]:
        if self.components is None:
            raise ValueError("quotient does not exist")
        return tuple(c.size for c in self.components)


def display(lam: Partition, d: int, r: int) -> AbacusDisplay:
    """The d-abacus display of a partition using r beads (r >= length)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return AbacusDisplay(d, r, lam.beta_set(r))


def _runner_rows(beta: tuple[int, ...], d: int) -> list[list[int]]:
    """Bead row indices per runner, each list sorted increasing."""
    rows: list[list[int]] = [[] for _ in range(d)]
    for p in sorted(beta):
        rows[p % d].append(p // d)
    return rows


def quotient(lam: Partition, d: int, r: int) -> tuple[Partition, ...]:
    """The d-quotient read off the runners of the r-bead display.

    Component i is the partition encoded by the bead rows on runner i;
    the result depends on r only up to a cyclic relabelling of runners.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    rows = _runner_rows(lam.beta_set(r), d)
    return tuple(partition_from_beta(rs) for rs in rows)


def core(lam: Partition, d: int) -> Partition:
    """The d-core: every bead pushed as far up its runner as it goes."""
    if d < 1:
        raise ValueError("d must be >= 1")
    r = max(lam.length, 1)
    rows = _runner_rows(lam.beta_set(r), d)
    packed = [t + d * j for t, rs in enumerate(rows) for j in range(len(rs))]
    return partition_from_beta(packed)


def _runners(shape: SkewShape, d: int) -> tuple[list[list[int]], ...]:
    """One pass over both displays (r = outer length).  Four lists by
    runner: the outer and the inner bead rows, each decreasing, then the
    rows of the shape (0-based) whose outer and whose inner bead is there."""
    if d < 1:
        raise ValueError("d must be >= 1")
    l = shape.outer.length
    runners = tuple([[] for _ in range(d)] for _ in range(4))
    outer_rows, inner_rows, outer_at, inner_at = runners
    for i, (p, q) in enumerate(zip(shape.outer.parts, shape.inner_padded)):
        row, t = divmod(p + l - 1 - i, d)
        outer_rows[t].append(row)
        outer_at[t].append(i)
        row, t = divmod(q + l - 1 - i, d)
        inner_rows[t].append(row)
        inner_at[t].append(i)
    return runners


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


def runner_classes(
    shape: SkewShape, d: int, which: str = "lambda"
) -> tuple[tuple[int, ...], ...]:
    """Partition the row indices 1..length by the runner of their bead.

    ``which`` selects whether the outer ("lambda") or inner ("mu") beta
    values place the beads.
    """
    _, _, outer_at, inner_at = _runners(shape, d)
    if which not in ("lambda", "mu"):
        raise ValueError("which must be 'lambda' or 'mu'")
    return tuple(tuple(i + 1 for i in c) for c in (outer_at if which == "lambda" else inner_at))


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


def remove_strip_moves(
    lam: Partition, d: int, target_mu: Partition, r: int | None = None
) -> list[tuple[int, int]]:
    """Legal single-strip removals of size d that keep the target inside.

    Each move is a (bead position, height) pair on the r-bead display;
    r defaults to the length of ``lam``.  Raises if no removal sequence
    from ``lam`` down to ``target_mu`` can exist at all.
    """
    outer_rows, inner_rows, _, _ = _runners(SkewShape(lam, target_mu), d)
    if not _nested(outer_rows, inner_rows):
        raise ValueError("no removal sequence")
    if r is None:
        r = lam.length
    beta = lam.beta_set(r)
    target = target_mu.beta_set(r)
    return [(p, height) for p, height, _ in _legal_moves(beta, d, target)]
