import gc
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from skewsieve import characters
from skewsieve.abacus import _legal_moves, quotient, remove_strip_moves, skew_quotient
from skewsieve.characters import (
    enumerate_bst,
    eval_at_root,
    kostka_foulkes_rect_at_root,
    one_line_string,
    perm,
    permutation_sign,
    skew_char,
    skew_char_rect,
)
from skewsieve.qpoly import eval_at_primitive_root
from skewsieve.schur import _fillings, principal_specialization, ssyt_generating_function
from skewsieve.shapes import Partition, SkewShape, partition_from_beta

from helpers import (
    compositions_of,
    corner_removal_count,
    diagram_signed_char,
    hook_length_count,
    is_border_strip_cells,
    is_horizontal_strip,
    partitions_in_box,
    partitions_of,
    partitions_up_to,
    subpartitions,
)


SEVEN_ROW_SHAPE = SkewShape(Partition([9, 9, 6, 6, 6, 4, 1]), Partition([2, 1, 1, 1]))


def validate_tableau(shape, tableau, d):
    cells = set(shape.cells())
    assert d * len(tableau.strips) == shape.size
    seen = set()
    for idx, strip in enumerate(tableau.strips):
        assert len(strip) == d
        assert is_border_strip_cells(set(strip))
        assert not (strip & seen)
        seen |= strip
        rows = {i for i, _ in strip}
        assert tableau.heights[idx] == len(rows) - 1
    assert seen == cells
    label = {c: i + 1 for i, s in enumerate(tableau.strips) for c in s}
    for (i, j) in cells:
        if (i, j + 1) in cells:
            assert label[(i, j)] <= label[(i, j + 1)]
        if (i + 1, j) in cells:
            assert label[(i, j)] <= label[(i + 1, j)]


def test_enumerate_bst_trivial_shapes():
    row = list(enumerate_bst(SkewShape.parse("4"), 4))
    assert len(row) == 1 and row[0].total_height == 0
    column = list(enumerate_bst(SkewShape.parse("1,1,1,1"), 4))
    assert len(column) == 1 and column[0].total_height == 3
    assert list(enumerate_bst(SkewShape.parse("2,1"), 2)) == []  # size not divisible
    lam = Partition([3, 1])
    empty = list(enumerate_bst(SkewShape(lam, lam), 5))
    assert len(empty) == 1 and len(empty[0].strips) == 0
    # more strips than the interpreter's recursion limit
    long_row = list(enumerate_bst(SkewShape.parse("1200"), 1))
    assert len(long_row) == 1 and len(long_row[0].strips) == 1200


def test_enumerate_bst_without_quotient_walks_nothing(monkeypatch):
    # no 2-quotient, so no tableaux; the walk would visit every reachable
    # bead configuration before finding that out
    def no_walk(*args):
        raise AssertionError("walked the bead configurations")

    monkeypatch.setattr(characters, "_legal_moves", no_walk)
    assert list(enumerate_bst(SkewShape.parse("9,8,8,8/2,1"), 2)) == []


def test_enumerate_bst_is_valid_and_deterministic():
    for lam in partitions_up_to(7):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            if shape.size == 0:
                continue
            for d in (2, 3):
                if shape.size % d:
                    continue
                first = list(enumerate_bst(shape, d))
                for t in first:
                    validate_tableau(shape, t, d)
                assert first == list(enumerate_bst(shape, d))


def test_bst_counts_cross_validate_walk_counts():
    for lam in partitions_up_to(9):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            if shape.size == 0:
                continue
            for d in (2, 3, 4, 5):
                if shape.size % d:
                    continue
                tableaux = list(enumerate_bst(shape, d))
                value = skew_char_rect(shape, d)
                assert value.bst_count == len(tableaux)
                assert value.value == sum((-1) ** t.total_height for t in tableaux)


def test_pinned_removal_sequence_is_reachable():
    # each consecutive beta-set transition must be one of the offered moves
    betas = [
        (15, 14, 10, 9, 8, 5, 1),
        (15, 14, 10, 8, 6, 5, 1),
        (15, 14, 10, 8, 5, 3, 1),
        (15, 14, 10, 8, 5, 1, 0),
        (14, 12, 10, 8, 5, 1, 0),
        (14, 10, 9, 8, 5, 1, 0),
        (14, 10, 8, 6, 5, 1, 0),
        (14, 8, 7, 6, 5, 1, 0),
        (14, 8, 6, 5, 4, 1, 0),
        (14, 8, 6, 4, 2, 1, 0),
        (14, 6, 5, 4, 2, 1, 0),
        (11, 6, 5, 4, 2, 1, 0),
        (8, 6, 5, 4, 2, 1, 0),
    ]
    heights = [1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 0, 0]
    mu = SEVEN_ROW_SHAPE.inner
    assert partition_from_beta(betas[0]) == SEVEN_ROW_SHAPE.outer
    assert partition_from_beta(betas[-1]) == mu
    for before, after, height in zip(betas, betas[1:], heights):
        moved = set(before) - set(after)
        assert len(moved) == 1
        p = moved.pop()
        assert p - 3 in set(after)
        current = partition_from_beta(before)
        # one bead per row of current: every position drops by 7 - length
        assert (p - (7 - current.length), height) in remove_strip_moves(current, 3, mu)
    assert sum(heights) == 11  # odd, consistent with the sign below
    first = next(iter(enumerate_bst(SEVEN_ROW_SHAPE, 3)))
    validate_tableau(SEVEN_ROW_SHAPE, first, 3)


def test_skew_char_rect_examples():
    single = skew_char_rect(SkewShape.parse("2,1"), 3)
    assert (single.value, single.bst_count, single.epsilon) == (-1, 1, -1)
    none = skew_char_rect(SkewShape.parse("2,2"), 4)  # no quotient
    assert (none.value, none.bst_count, none.epsilon) == (0, 0, 0)
    classic = skew_char_rect(SEVEN_ROW_SHAPE, 3)
    assert classic.epsilon == -1
    assert classic.value == -classic.bst_count
    with pytest.raises(ValueError, match="size mismatch"):
        skew_char_rect(SkewShape.parse("2,1"), 2)


def test_skew_char_general():
    assert skew_char(SkewShape.parse("2,1"), (1, 1, 1)) == 2
    assert skew_char(SkewShape.parse("2,1"), (1, 0, 1, 1)) == 2  # zero parts dropped
    lam = Partition([2, 2])
    assert skew_char(SkewShape(lam, lam), ()) == 1
    # more strips than the interpreter's recursion limit
    assert skew_char(SkewShape.parse("1200"), (1,) * 1200) == 1
    assert skew_char(SkewShape.parse(",".join(["1"] * 1200)), (1,) * 1200) == 1
    with pytest.raises(ValueError, match="size mismatch"):
        skew_char(SkewShape.parse("2,1"), (2, 2))
    for lam in partitions_up_to(6):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            for d in (1, 2, 3):
                if shape.size % d or shape.size == 0:
                    continue
                m = shape.size // d
                assert skew_char(shape, (d,) * m) == skew_char_rect(shape, d).value


def test_skew_char_matches_diagram_surgery_on_arbitrary_types():
    for lam in partitions_up_to(6):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            if shape.size == 0:
                continue
            for nu in compositions_of(shape.size, 3):
                expected = diagram_signed_char(lam, mu, nu)
                assert skew_char(shape, nu) == expected


def test_perm_example_and_trivia():
    pi = perm(SEVEN_ROW_SHAPE, 3)
    assert pi == (2, 1, 4, 7, 3, 5, 6)
    assert one_line_string(pi) == "2147356"
    assert permutation_sign(pi) == -1
    lam = Partition([4, 2])
    assert perm(SkewShape(lam, lam), 3) == (1, 2)
    with pytest.raises(ValueError, match="cores differ"):
        perm(SkewShape.parse("1"), 2)


def test_one_line_string_wide():
    assert one_line_string((10, 2, 1, 3, 4, 5, 6, 7, 8, 9)) == "10,2,1,3,4,5,6,7,8,9"
    assert permutation_sign((2, 1)) == -1
    assert permutation_sign((1, 2, 3)) == 1


def test_perm_sign_equals_character_sign_exhaustively():
    from skewsieve.qpoly import divisors

    for lam in partitions_up_to(12):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            if shape.size == 0:
                continue
            for d in divisors(shape.size):
                if not skew_quotient(shape, d).exists:
                    continue
                walk = skew_char(shape, (d,) * (shape.size // d))
                count = skew_char_rect(shape, d).bst_count
                assert count > 0
                # every tableau has the same height parity
                assert abs(walk) == count
                assert permutation_sign(perm(shape, d)) == (1 if walk > 0 else -1)


PARTITIONS_BY_SIZE = {n: list(partitions_of(n)) for n in range(21)}


@st.composite
def rect_char_cases(draw):
    """(λ/μ, d) with 13 <= |λ| <= 20 and 2 <= d dividing |λ/μ|: d-strips added
    to a random μ by bead slides, so the quotient exists, or half the
    time any μ inside the λ so reached, which mostly has none."""
    n, d = draw(st.integers(13, 20)), draw(st.integers(2, 5))
    strips = draw(st.integers(1, n // d))
    mu = draw(st.sampled_from(PARTITIONS_BY_SIZE[n - strips * d]))
    r = len(mu) + strips
    beads = [p + r - 1 - i for i, p in enumerate(mu + (0,) * strips)]
    for _ in range(strips):
        bead = draw(st.sampled_from([p for p in beads if p + d not in beads]))
        beads[beads.index(bead)] += d
    beads.sort(reverse=True)
    lam = tuple(b - (r - 1 - i) for i, b in enumerate(beads) if b > r - 1 - i)
    if draw(st.booleans()):
        mu = draw(st.sampled_from([m for m in subpartitions(lam) if (n - sum(m)) % d == 0]))
    return SkewShape(Partition(lam), Partition(mu)), d


@settings(max_examples=100, deadline=None)
@given(rect_char_cases())
def test_skew_char_rect_matches_the_walk_beyond_the_grid(case):
    # the exhaustive grid above stops at |λ| = 12
    shape, d = case
    walk = skew_char(shape, (d,) * (shape.size // d))
    value = skew_char_rect(shape, d)
    sign = (walk > 0) - (walk < 0)
    assert (value.value, value.bst_count, value.epsilon) == (walk, abs(walk), sign)


def test_standard_counts_match_corner_removal():
    # with d = 1 the quotient is the shape itself and the value is f
    for lam in partitions_in_box(4, 5):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            f = corner_removal_count(lam, mu)
            value = skew_char_rect(shape, 1)
            assert (value.value, value.bst_count, value.epsilon) == (f, f, 1)


def test_straight_shapes_beyond_the_walk_match_hook_lengths():
    shapes = [Partition(wide).conjugate().parts for wide in partitions_of(60, 4)]
    shapes += [(1,) * 60, (2,) * 30, (15,) + tuple(range(9, 0, -1)), (12, 12, 9, 9, 6, 6, 3, 3)]
    for lam in shapes:
        f = hook_length_count(lam)
        value = skew_char_rect(SkewShape(Partition(lam)), 1)
        assert (value.value, value.bst_count, value.epsilon) == (f, f, 1)


def test_stretched_staircase_at_twelve_rows():
    lam = Partition(range(24, 0, -2))  # size 156, far past the walk's reach
    value = skew_char_rect(SkewShape(lam), 2)
    comps = [c.parts for c in quotient(lam, 2, lam.length)]
    sizes = [sum(c) for c in comps]
    expected = comb(sum(sizes), sizes[0])
    for c in comps:
        expected *= hook_length_count(c)
    assert value.bst_count == expected
    # the height parity of any one removal sequence gives the sign
    beta, target, height = lam.beta_set(12), Partition().beta_set(12), 0
    while beta != target:
        _, h, beta = _legal_moves(beta, 2, target)[0]
        height += h
    assert value.epsilon == (-1) ** height
    assert value.value == value.epsilon * value.bst_count


def test_walk_memos_are_freed_without_the_cycle_collector():
    domino = SkewShape.parse("4,4,2")
    calls = [
        lambda: skew_char(SEVEN_ROW_SHAPE, (3,) * 12),
        lambda: list(enumerate_bst(domino, 2)),
        lambda: next(enumerate_bst(domino, 2)),
        lambda: ssyt_generating_function(SkewShape.parse("3,2/1"), 3),
        lambda: next(_fillings(SkewShape.parse("3,2/1"), 3)),
        lambda: skew_char_rect(SEVEN_ROW_SHAPE, 3),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_eval_at_root_examples():
    assert eval_at_root(SkewShape.parse("2,2"), 4, 4) == 0  # no quotient
    assert eval_at_root(SkewShape.parse("2,2"), 2, 2) == 1
    # d = 1 is the plain count of fillings
    assert eval_at_root(SkewShape.parse("2,1"), 3, 1) == 8
    with pytest.raises(ValueError):
        eval_at_root(SkewShape.parse("2,2"), 3, 2)


def test_eval_at_root_matches_decomposition_route_small():
    for lam in partitions_up_to(6):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            for n_vars in range(1, 5):
                for d in (x for x in range(1, n_vars + 1) if n_vars % x == 0):
                    poly = principal_specialization(shape, n_vars, mod=d)
                    assert eval_at_root(shape, n_vars, d) == eval_at_primitive_root(
                        poly, d, 1
                    )


def test_kostka_foulkes_examples():
    assert kostka_foulkes_rect_at_root(SkewShape.parse("2,2"), 2, 2) == 1
    with pytest.raises(ValueError, match="size mismatch"):
        kostka_foulkes_rect_at_root(SkewShape.parse("2,2"), 3, 2)


def test_kostka_foulkes_vanishes_without_horizontal_strip_components():
    for lam in partitions_up_to(8):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            for n_vars in (1, 2, 3):
                if shape.size % n_vars:
                    continue
                m = shape.size // n_vars
                value = kostka_foulkes_rect_at_root(shape, n_vars, m)
                assert value in (-1, 0, 1)
                sq = skew_quotient(shape, n_vars)
                flat = sq.exists and all(
                    is_horizontal_strip(c) for c in sq.components
                )
                assert (value != 0) == flat
