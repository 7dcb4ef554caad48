import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from skewsieve.abacus import (
    _legal_moves,
    _runners,
    core,
    display,
    quotient,
    remove_strip_moves,
    runner_classes,
    skew_quotient,
)
from skewsieve.characters import eval_at_root, perm, skew_char_rect
from skewsieve.shapes import Partition, SkewShape, partition_from_beta

from helpers import (
    diagram_core,
    diagram_peel_exists,
    diagram_strip_removals,
    partitions_up_to,
    runners_by_two_displays,
    subpartitions,
    subpartitions_mod,
)


def test_display_examples():
    positions = Partition([9, 9, 6, 6, 6, 4, 1]).beta_set(7)
    assert positions == (15, 14, 10, 9, 8, 5, 1)
    assert Partition().beta_set(1) == (0,)
    assert Partition([13, 10, 10, 10, 6]).beta_set(5) == (17, 13, 12, 11, 6)
    assert partition_from_beta(positions) == Partition([9, 9, 6, 6, 6, 4, 1])
    with pytest.raises(ValueError):
        display(Partition([1, 1]), 3, 1)


def test_display_render():
    text = display(Partition([2, 1]), 2, 2)
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


def test_matching_pairs_rows_within_residue_classes():
    """The d-quotient theorem read on the parts, apart from the bead pass:
    perm pairs the rows of lambda and mu whose lambda_i - i and mu_j - j
    agree mod d, increasing within each class, exactly when the cores
    agree; the quotient exists exactly when each lambda_i - i is at least
    its partner's mu_j - j."""
    cores = {(p, d): diagram_core(p, d) for p in partitions_up_to(9) for d in range(1, 6)}
    for lam in partitions_up_to(9):
        l = len(lam)
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            a = [lam[i - 1] - i for i in range(1, l + 1)]
            b = [(mu[i - 1] if i <= len(mu) else 0) - i for i in range(1, l + 1)]
            for d in range(1, 6):
                if cores[lam, d] != cores[mu, d]:
                    with pytest.raises(ValueError, match="cores differ"):
                        perm(shape, d)
                    assert not skew_quotient(shape, d).exists
                    continue
                pi = perm(shape, d)
                assert sorted(pi) == list(range(1, l + 1))
                partner = [b[j - 1] for j in pi]
                assert all((x - y) % d == 0 for x, y in zip(a, partner))
                assert all(pi[i] < pi[j] for i in range(l) for j in range(i + 1, l)
                           if (a[i] - a[j]) % d == 0)
                assert skew_quotient(shape, d).exists == all(x >= y for x, y in zip(a, partner))


def _pass_outcome(result):
    """A pass result with its components as a list, order included, and
    which of the three outcomes it is."""
    components, matching = result
    kind = "cores differ" if matching is None else "missing" if components is None else "exists"
    return kind, None if components is None else list(components.items()), matching


def test_runner_pass_matches_two_displays_on_the_grid():
    seen = set()
    for lam in partitions_up_to(8):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            for d in range(1, 7):
                outcome = _pass_outcome(_runners(shape, d))
                assert outcome == _pass_outcome(runners_by_two_displays(shape, d))
                seen.add(outcome[0])
    assert seen == {"cores differ", "missing", "exists"}


@st.composite
def bead_displays(draw):
    """(shape, d) with l <= 14 rows, built from its beads: each outer bead
    is drawn as a runner and a row.  Half the draws put the inner beads on
    the same runners, so the cores agree and the quotient exists or fails
    to nest; the other half draw the inner runners too, so the cores
    mostly differ.  Rows start at 1, so the outer shape has l rows."""
    l = draw(st.integers(1, 14))
    d = draw(st.integers(1, l + 2) | st.sampled_from([10**5, 10**12]))
    runner = st.integers(0, min(d, l + 2) - 1) | st.just(d - 1)
    outer_on = draw(st.lists(runner, min_size=l, max_size=l))
    same = draw(st.booleans())
    inner_on = outer_on if same else draw(st.lists(runner, min_size=l, max_size=l))

    def positions(on, lo):
        beads = []
        for t, count in sorted(Counter(on).items()):
            rows = draw(st.lists(st.integers(lo, lo + count + 2), min_size=count,
                                 max_size=count, unique=True))
            beads += [(r + 1) * d + t for r in rows]
        return sorted(beads, reverse=True)

    outer = positions(outer_on, 0 if same else draw(st.integers(0, 2)))
    inner = positions(inner_on, 0)
    assume(all(a >= b for a, b in zip(outer, inner)))
    return SkewShape(partition_from_beta(outer), partition_from_beta(inner)), d


@settings(max_examples=300)
@given(bead_displays())
@example((SkewShape.parse("3,1/2"), 2))  # equal cores, runner 1 fails to nest
@example((SkewShape(Partition([2 * 10**5 - 1, 1]), Partition([10**5])), 10**5))  # the same at 10^5
@example((SkewShape.parse("3,1/1"), 2))  # the cores differ
def test_runner_pass_matches_two_displays(case):
    shape, d = case
    assert _pass_outcome(_runners(shape, d)) == _pass_outcome(runners_by_two_displays(shape, d))


def test_quotient_routes_cost_nothing_per_empty_runner():
    # each call holds one to seven beads; a list per runner would take megabytes
    d = 200_000

    def char_numbers():
        r = skew_char_rect(SkewShape(Partition([d])), d)
        return r.value, r.bst_count, r.epsilon

    cases = [
        (lambda: perm(SkewShape.parse("3,1"), d), "cores differ"),
        (lambda: eval_at_root(SkewShape.parse("4,4/1"), d, d), 0),
        (lambda: core(Partition([9, 9, 6, 6, 6, 4, 1]), d), Partition([9, 9, 6, 6, 6, 4, 1])),
        (char_numbers, (1, 1, 1)),
    ]
    for call, expected in cases:
        tracemalloc.start()
        try:
            try:
                result = call()
            except ValueError as exc:
                result = str(exc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == expected
        assert peak < 2**20


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
