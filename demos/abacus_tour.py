"""Walk through the bead model: displays, cores, quotients, strip moves.

A partition is encoded by bead positions on a board whose columns are
runners; sliding a bead one row up its runner removes a border strip of
size d from the diagram.  Cores, quotients, and all strip-removal
questions reduce to bookkeeping on those positions.
"""

from skewsieve import (
    Partition,
    SkewShape,
    core,
    display,
    quotient,
    remove_strip_moves,
    runner_classes,
    skew_quotient,
)

lam = Partition([9, 9, 6, 6, 6, 4, 1])
mu = Partition([2, 1, 1, 1])
shape = SkewShape(lam, mu)

print(f"outer {lam} on 3 runners with 7 beads:")
print(display(lam, 3, 7).render())
print()
print(f"inner {mu} with the same bead count:")
print(display(mu, 3, 7).render())
print()

print(f"3-core of outer: {core(lam, 3)}")
print(f"3-core of inner: {core(mu, 3)}  (equal cores allow strip removal)")
print()

print("3-quotients read runner by runner:")
print("  outer:", " ; ".join(str(p) for p in quotient(lam, 3, 7)))
print("  inner:", " ; ".join(str(p) for p in quotient(mu, 3, 7)))
sq = skew_quotient(shape, 3)
print("  skew:", " ; ".join(str(c) for c in sq.components))
print()

print("rows grouped by the runner of their outer bead:")
for t, cls in enumerate(runner_classes(shape, 3)):
    print(f"  runner {t}: rows {set(cls)}")
print()

print("first available strip removals (bead position, height):")
for p, height in remove_strip_moves(lam, 3, mu):
    print(f"  slide bead {p} -> {p - 3}, height {height}")
