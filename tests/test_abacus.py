import pytest

from skewsieve.abacus import (
    _legal_moves,
    core,
    display,
    quotient,
    remove_strip_moves,
    runner_classes,
    skew_quotient,
)
from skewsieve.characters import perm
from skewsieve.shapes import Partition, SkewShape, partition_from_beta

from helpers import (
    diagram_core,
    diagram_peel_exists,
    diagram_strip_removals,
    partitions_up_to,
    subpartitions,
    subpartitions_mod,
)


def test_display_examples():
    d = display(Partition([9, 9, 6, 6, 6, 4, 1]), 3, 7)
    assert d.positions == (15, 14, 10, 9, 8, 5, 1)
    assert display(Partition(), 4, 1).positions == (0,)
    assert display(Partition([13, 10, 10, 10, 6]), 3, 5).positions == (17, 13, 12, 11, 6)
    assert partition_from_beta(d.positions) == Partition([9, 9, 6, 6, 6, 4, 1])
    with pytest.raises(ValueError):
        display(Partition([1, 1]), 3, 1)


def test_display_render():
    text = display(Partition([2, 1]), 2, 2).render()
    assert text == "0 1\n· ●\n· ●"


def test_core_examples():
    # strictly smaller than the strip size: nothing to remove
    assert core(Partition([2, 1]), 4) == Partition([2, 1])
    assert core(Partition([2]), 3) == Partition([2])
    # (2,1) is itself a border strip of size 3, so its 3-core is empty
    assert core(Partition([2, 1]), 3) == Partition()
    assert core(Partition([5, 3, 3, 1]), 1) == Partition()
    assert core(Partition([9, 9, 6, 6, 6, 4, 1]), 3) == core(Partition([2, 1, 1, 1]), 3)


def test_core_matches_diagram_peeling():
    for lam in partitions_up_to(10):
        for d in range(1, 5):
            assert core(Partition(lam), d) == Partition(diagram_core(lam, d))


def test_quotient_examples():
    lam = Partition([9, 9, 6, 6, 6, 4, 1])
    assert quotient(lam, 1, 7) == (lam,)
    assert quotient(lam, 3, 7) == (
        Partition([4, 3]),
        Partition([2]),
        Partition([2, 1, 1]),
    )
    assert quotient(Partition([2, 1, 1, 1]), 3, 7) == (
        Partition([1]),
        Partition(),
        Partition(),
    )
    assert quotient(Partition(), 3, 4) == (Partition(), Partition(), Partition())


def test_size_accounting():
    for lam in partitions_up_to(20):
        p = Partition(lam)
        for d in range(1, 7):
            parts = quotient(p, d, max(p.length, 1))
            assert p.size == d * sum(c.size for c in parts) + core(p, d).size


def test_quotient_r_stability():
    for lam in partitions_up_to(8):
        p = Partition(lam)
        for d in range(1, 5):
            r = max(p.length, 1)
            base = quotient(p, d, r)
            shifted = quotient(p, d, r + 1)
            # one step rotates the runner labels
            assert shifted == (base[d - 1],) + base[: d - 1]
            assert quotient(p, d, r + d) == base
            assert core(p, d) == Partition(diagram_core(lam, d))


def test_skew_quotient_example():
    shape = SkewShape(Partition([9, 9, 6, 6, 6, 4, 1]), Partition([2, 1, 1, 1]))
    sq = skew_quotient(shape, 3)
    assert sq.exists
    assert sq.components == (
        SkewShape(Partition([4, 3]), Partition([1])),
        SkewShape(Partition([2])),
        SkewShape(Partition([2, 1, 1])),
    )
    assert sum(c.size for c in sq.components) * 3 == shape.size


def test_skew_quotient_trivial_and_missing():
    lam = Partition([3, 2, 2])
    sq = skew_quotient(SkewShape(lam, lam), 4)
    assert sq.exists and all(c.size == 0 for c in sq.components)
    missing = skew_quotient(SkewShape(Partition([1])), 2)
    assert not missing.exists and missing.components is None


def test_skew_quotient_size_accounting():
    for lam in partitions_up_to(9):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            for d in range(1, 5):
                sq = skew_quotient(shape, d)
                if sq.exists:
                    assert d * sum(c.size for c in sq.components) == shape.size


def test_skew_quotient_exists_iff_diagram_peel_reaches_inner():
    for lam in partitions_up_to(10):
        size = sum(lam)
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            skew = size - sum(mu)
            for d in range(1, max(skew, 1) + 1):
                exists = skew_quotient(shape, d).exists
                if skew % d != 0:
                    assert not exists
                else:
                    assert exists == diagram_peel_exists(lam, mu, d)


def test_runner_classes_example():
    shape = SkewShape(Partition([13, 10, 10, 10, 6]), Partition([7, 4, 4, 4]))
    assert runner_classes(shape, 3) == ((3, 5), (2,), (1, 4))
    assert runner_classes(shape, 1) == ((1, 2, 3, 4, 5),)


def test_runner_classes_agree_under_divisible_diffs():
    for lam in partitions_up_to(8):
        for m in (2, 3):
            for mu in subpartitions_mod(lam, m):
                shape = SkewShape(Partition(lam), Partition(mu))
                for d in (x for x in (1, 2, 3) if m % x == 0):
                    # the inner beads sit on the runners of the outer ones
                    assert perm(shape, d) == tuple(range(1, len(lam) + 1))


def test_remove_strip_moves_example():
    lam = Partition([9, 9, 6, 6, 6, 4, 1])
    mu = Partition([2, 1, 1, 1])
    moves = remove_strip_moves(lam, 3, mu)
    assert moves == [(15, 1), (14, 0), (10, 2), (9, 1), (5, 0)]
    assert (9, 1) in moves  # the move landing on beta-set 15,14,10,8,6,5,1


def test_remove_strip_moves_trivial_strips():
    assert remove_strip_moves(Partition([4]), 4, Partition()) == [(4, 0)]
    assert remove_strip_moves(Partition([1, 1, 1, 1]), 4, Partition()) == [(4, 3)]
    with pytest.raises(ValueError, match="no removal sequence"):
        remove_strip_moves(Partition([1]), 2, Partition())


def test_bead_moves_match_diagram_surgery():
    # every legal slide is a border-strip removal with the same height
    for lam in partitions_up_to(12):
        p = Partition(lam)
        r = max(p.length, 1)
        empty_target = Partition().beta_set(r)
        for d in range(1, 5):
            moved = {
                (partition_from_beta(new).parts, height)
                for _, height, new in _legal_moves(p.beta_set(r), d, empty_target)
            }
            expected = {(nu, h) for nu, h in diagram_strip_removals(lam, d)}
            assert moved == expected
