"""Border-strip tableaux, character signs, and values at roots of unity.

The character value on m strips of size d is a signed tableau count whose
sign also falls out of a permutation matching the two bead displays class
by class.  That sign, together with plain filling counts of the quotient
components, evaluates the principal specialization at any root of unity
without touching complex numbers.
"""

from skewsieve import (
    Partition,
    SkewShape,
    enumerate_bst,
    eval_at_root,
    kostka_foulkes_rect_at_root,
    one_line_string,
    perm,
    permutation_sign,
    principal_specialization,
    skew_char,
    skew_char_rect,
)

shape = SkewShape(Partition([9, 9, 6, 6, 6, 4, 1]), Partition([2, 1, 1, 1]))
print(f"shape {shape}, 36 cells, strips of size 3:")
value = skew_char_rect(shape, 3)
print(f"  tableau count {value.bst_count}, sign {value.epsilon}, value {value.value}")
pi = perm(shape, 3)
print(f"  matching permutation {one_line_string(pi)} has sign {permutation_sign(pi)}")
print()

first = next(iter(enumerate_bst(shape, 3)))
print("one tableau, as per-strip heights:", list(first.heights))
print()

small = SkewShape(Partition([2, 1]))
print(f"shape {small}: single-cell type gives the standard tableau count:")
print(f"  value on (1,1,1) = {skew_char(small, (1, 1, 1))}")
print()

box = SkewShape(Partition([2, 2]))
print(f"shape {box} at a primitive square root of unity with 2 variables:")
print(f"  evaluation = {eval_at_root(box, 2, 2)}")
poly = principal_specialization(box, 2)
print(f"  direct check: {poly} at q = -1 is "
      f"{sum(c if e % 2 == 0 else -c for e, c in enumerate(poly.coeffs))}")
print(f"  rectangular Kostka-Foulkes value there: "
      f"{kostka_foulkes_rect_at_root(box, 2, 2)}")
print()

tall = SkewShape(Partition([3, 2]), Partition([1]))
print(f"shape {tall}: quotient exists but a component is too tall for one "
      f"letter, so the top-order value vanishes:")
print(f"  evaluation with 2 variables at order 2 = {eval_at_root(tall, 2, 2)}")
