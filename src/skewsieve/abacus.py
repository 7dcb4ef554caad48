"""The d-runner abacus: bead displays, cores, quotients, and strip moves.

Positions 0, 1, 2, ... are read left to right along successive rows of a
board with d vertical runners, so position p sits on runner p mod d in
row p div d.  A partition occupies the bead positions given by one of its
beta-sets.  Removing a border strip of size d from the diagram is the
same as sliding one bead down its runner by a single row, which is how
every strip-removal computation here works; diagrams never enter into it.

Every route reads only the beads: one primitive takes a beta-set from
``Partition.beta_set`` onto the occupied runners, and ``quotient``,
``core`` and ``runner_classes`` read one display through it.  For skew
computations ``SkewShape.beta_sets`` aligns the two displays and one loop
pairs them as the d-quotient theorem states: with the inner beads indexed
by runner, the k-th outer bead on a runner takes the k-th inner bead
there.  Both displays hold l beads, so the cores differ exactly when some
outer bead finds no inner bead left on its runner; otherwise the pairing
is the matching permutation, and the quotient is missing exactly when
some outer bead lies below its partner.  That pass costs O(l) in the l
beads, whatever d is; only the d-tuple outputs
(``quotient``, ``skew_quotient``, ``runner_classes``, ``display``) visit
every runner.
"""

from __future__ import annotations

from typing import NamedTuple

from .shapes import Partition, SkewShape, partition_from_beta


class SkewQuotient(NamedTuple):
    """Componentwise quotient of a skew shape; components is None, and the
    quotient missing, when the displays cannot be matched runner by runner."""

    components: tuple[SkewShape, ...] | None

    @property
    def exists(self) -> bool:
        return self.components is not None


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


def _on_runners(beta: tuple[int, ...], d: int) -> dict[int, list[int]]:
    """The occupied runners of a beta-set's d-display, each with the
    indices in ``beta`` of its beads, increasing (so their rows decrease)."""
    runners: dict[int, list[int]] = {}
    for i, p in enumerate(beta):
        runners.setdefault(p % d, []).append(i)
    return runners


def quotient(lam: Partition, d: int, r: int) -> tuple[Partition, ...]:
    """The d-quotient read off the runners of the r-bead display.

    Component i is the partition encoded by the bead rows on runner i;
    the result depends on r only up to a cyclic relabelling of runners.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    beta = lam.beta_set(r)
    runners = _on_runners(beta, d)
    return tuple(partition_from_beta([beta[i] // d for i in runners.get(t, ())])
                 for t in range(d))


def core(lam: Partition, d: int) -> Partition:
    """The d-core: every bead pushed as far up its runner as it goes."""
    if d < 1:
        raise ValueError("d must be >= 1")
    runners = _on_runners(lam.beta_set(max(lam.length, 1)), d)
    return partition_from_beta([t + d * j for t, at in runners.items() for j in range(len(at))])


def _runners(
    shape: SkewShape, d: int
) -> tuple[dict[int, tuple[list[int], list[int]]] | None, tuple[int, ...] | None]:
    """The d-quotient theorem on the aligned displays, in one loop.

    Returns (components, matching).  The inner beads are indexed by
    runner, then the outer beads are walked in order, the k-th on a runner
    taking the k-th inner bead there.  ``matching`` is the one-line
    permutation of those pairs; it is None, with ``components``, when an
    outer bead finds its runner's inner beads used up: both displays hold
    l beads, so the cores differ.  ``components`` maps each occupied
    runner, in the order of its first outer bead, to its outer and inner
    bead rows, each decreasing (the beta-sets of that quotient component);
    it is None when some outer bead lies below its partner, the quotient
    missing.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    outer, inner = shape.beta_sets()
    inner_on = _on_runners(inner, d)
    components: dict[int, tuple[list[int], list[int]]] = {}
    matching = []
    nested = True
    for p in outer:
        t = p % d
        rows = components.get(t)
        if rows is None:
            rows = components[t] = ([], [])
        at = inner_on.get(t, ())
        k = len(rows[0])
        # both displays hold l beads, so an outer bead left unpaired is a core mismatch
        if k == len(at):
            return None, None
        j = at[k]
        b = inner[j]
        matching.append(j + 1)
        if p < b:
            nested = False
        rows[0].append(p // d)
        rows[1].append(b // d)
    return (components if nested else None), tuple(matching)


def skew_quotient(shape: SkewShape, d: int) -> SkewQuotient:
    """Quotient of outer and inner together, both with r = outer length.

    Exists only if each runner carries the same number of beads in both
    displays (equal d-cores) and the component shapes nest.
    """
    components, _ = _runners(shape, d)
    if components is None:
        return SkewQuotient(None)
    rows = [components.get(t, ((), ())) for t in range(d)]
    return SkewQuotient(tuple(SkewShape(partition_from_beta(a), partition_from_beta(b))
                              for a, b in rows))


def runner_classes(shape: SkewShape, d: int) -> tuple[tuple[int, ...], ...]:
    """Partition the row indices 1..length by the runner of their outer bead."""
    if d < 1:
        raise ValueError("d must be >= 1")
    outer, _ = shape.beta_sets()
    runners = _on_runners(outer, d)
    return tuple(tuple(i + 1 for i in runners.get(t, ())) for t in range(d))


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
    shape = SkewShape(lam, target_mu)
    components, _ = _runners(shape, d)
    if components is None:
        raise ValueError("no removal sequence")
    beta, target = shape.beta_sets()
    return [(p, height) for p, height, _ in _legal_moves(beta, d, target)]
