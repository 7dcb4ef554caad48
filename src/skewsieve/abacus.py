"""The d-runner abacus: bead displays, cores, quotients, and strip moves.

Positions 0, 1, 2, ... are read left to right along successive rows of a
board with d vertical runners, so position p sits on runner p mod d in
row p div d.  A partition occupies the bead positions given by one of its
beta-sets.  Removing a border strip of size d from the diagram is the
same as sliding one bead down its runner by a single row, which is how
every strip-removal computation here works; diagrams never enter into it.

For skew computations the bead count r is always the outer length, so the
two displays stay aligned.
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


def skew_quotient(shape: SkewShape, d: int) -> SkewQuotient:
    """Quotient of outer and inner together, both with r = outer length.

    Exists only if each runner carries the same number of beads in both
    displays (equal d-cores) and the component shapes nest.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    r = shape.outer.length
    outer_rows = _runner_rows(shape.outer.beta_set(r), d)
    inner_rows = _runner_rows(shape.inner.beta_set(r), d)
    if any(len(a) != len(b) for a, b in zip(outer_rows, inner_rows)):
        return SkewQuotient(False, None)
    components = []
    for a, b in zip(outer_rows, inner_rows):
        outer_part = partition_from_beta(a)
        inner_part = partition_from_beta(b)
        if not outer_part.contains(inner_part):
            return SkewQuotient(False, None)
        components.append(SkewShape(outer_part, inner_part))
    return SkewQuotient(True, tuple(components))


def runner_classes(
    shape: SkewShape, d: int, which: str = "lambda"
) -> tuple[tuple[int, ...], ...]:
    """Partition the row indices 1..length by the runner of their bead.

    ``which`` selects whether the outer ("lambda") or inner ("mu") beta
    values place the beads.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if which not in ("lambda", "mu"):
        raise ValueError("which must be 'lambda' or 'mu'")
    l = shape.outer.length
    values = shape.outer.parts if which == "lambda" else shape.inner_padded
    classes: list[list[int]] = [[] for _ in range(d)]
    for i in range(1, l + 1):
        classes[(values[i - 1] + l - i) % d].append(i)
    return tuple(tuple(c) for c in classes)


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
    shape = SkewShape(lam, target_mu)
    if not skew_quotient(shape, d).exists:
        raise ValueError("no removal sequence")
    if r is None:
        r = lam.length
    beta = lam.beta_set(r)
    target = target_mu.beta_set(r)
    return [(p, height) for p, height, _ in _legal_moves(beta, d, target)]
