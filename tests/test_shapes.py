import copy
import pickle
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from skewsieve.shapes import (
    Composition,
    Partition,
    SkewShape,
    is_border_strip,
    partition_from_beta,
)

from helpers import (
    border_strip_shape,
    cells_of,
    compositions_with_parts,
    conjugate,
    is_border_strip_cells,
    is_horizontal_strip,
    partitions_up_to,
    subpartitions,
)


partition_parts = st.lists(st.integers(0, 9), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_canonical_form_strips_trailing_zeros():
    assert Partition([3, 2, 0, 0]) == Partition([3, 2])
    assert Partition([3, 2, 0]).parts == (3, 2)
    assert Partition().parts == ()
    assert hash(Partition([2, 1, 0])) == hash(Partition([2, 1]))


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])
    # integers only: no truncated floats, no strings read digit by digit
    for bad in ([2.5], [3.0, 1], "31"):
        with pytest.raises(TypeError):
            Partition(bad)


def test_parse_and_str():
    assert Partition.parse("9,9,6,6,6,4,1").parts == (9, 9, 6, 6, 6, 4, 1)
    assert Partition.parse("") == Partition()
    assert Partition.parse("0") == Partition()
    assert str(Partition([4, 2])) == "4,2"
    assert str(Partition()) == "0"
    with pytest.raises(ValueError, match="position"):
        Partition.parse("3,,2")
    with pytest.raises(ValueError, match="position"):
        Partition.parse("3,x")
    with pytest.raises(ValueError):
        Partition.parse("1,2")
    # only ASCII digits are parts
    for text in ("\u0661", "\u00b2", "+1", "1_0", "3,-1"):
        with pytest.raises(ValueError, match="invalid partition at position"):
            Partition.parse(text)


def test_stretch():
    assert Partition([3, 3, 2, 1]).stretch(9).parts == (27, 27, 18, 9)
    lam = Partition([5, 2, 2])
    assert lam.stretch(1) == lam
    assert Partition([2, 1]).stretch(3).parts == (6, 3)
    with pytest.raises(ValueError):
        lam.stretch(0)


@given(partition_parts, st.integers(1, 4), st.integers(1, 4))
def test_stretch_composes(parts, a, b):
    lam = Partition(parts)
    assert lam.stretch(a).stretch(b) == lam.stretch(a * b)


def test_beta_set():
    assert Partition([9, 9, 6, 6, 6, 4, 1]).beta_set(7) == (15, 14, 10, 9, 8, 5, 1)
    assert Partition([2, 1, 1, 1]).beta_set(7) == (8, 6, 5, 4, 2, 1, 0)
    assert Partition().beta_set(3) == (2, 1, 0)
    with pytest.raises(ValueError, match="r too small"):
        Partition([1, 1]).beta_set(1)


@given(partition_parts, st.integers(0, 4))
def test_beta_set_strictly_decreasing(parts, extra):
    lam = Partition(parts)
    r = lam.length + extra
    beta = lam.beta_set(r)
    assert len(beta) == r
    assert all(a > b for a, b in zip(beta, beta[1:]))
    assert all(b >= 0 for b in beta)
    assert partition_from_beta(beta) == lam


def test_conjugate():
    assert conjugate(Partition([3, 1])).parts == (2, 1, 1)
    assert conjugate(Partition()) == Partition()
    for parts in partitions_up_to(6):
        lam = Partition(parts)
        assert conjugate(conjugate(lam)) == lam


def test_skew_shape_basics():
    shape = SkewShape(Partition([3, 2]), Partition([1]))
    assert shape.size == 4
    assert (shape.inner.part(0), shape.inner.part(1)) == (1, 0)
    assert shape.cells() == [(1, 2), (1, 3), (2, 1), (2, 2)]
    assert str(shape) == "3,2/1"
    assert SkewShape.parse("3,2/1") == shape
    assert SkewShape.parse("3,2").inner == Partition()
    with pytest.raises(ValueError):
        SkewShape(Partition([2]), Partition([3]))
    with pytest.raises(ValueError):
        SkewShape.parse("3/2/1")


def test_empty_skew_shape_is_legal():
    shape = SkewShape(Partition([2, 2]), Partition([2, 2]))
    assert shape.size == 0
    assert shape.cells() == []


def test_is_border_strip_examples():
    assert is_border_strip(SkewShape.parse("2,1")) is True
    assert is_border_strip(SkewShape.parse("2,2")) is False
    assert is_border_strip(SkewShape.parse("3,1/1")) is False
    assert is_border_strip(SkewShape.parse("0")) is False


def test_border_strip_implies_nonempty():
    for lam in partitions_up_to(6):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            if is_border_strip(shape):
                assert shape.size >= 1


def test_is_border_strip_matches_cell_test_exhaustively():
    # the row-interval rule against flood fill and 2x2 blocks on the cells
    for lam in partitions_up_to(9):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            assert is_border_strip(shape) == is_border_strip_cells(cells_of(lam, mu))


def test_border_strip_shape_from_composition():
    assert border_strip_shape([2, 1]) == SkewShape.parse("2,1")
    assert border_strip_shape([1, 1, 1]) == SkewShape.parse("1,1,1")
    assert border_strip_shape(Composition([3])) == SkewShape.parse("3")
    for alpha in compositions_with_parts(3, range(1, 4)):
        shape = border_strip_shape(alpha)
        assert is_border_strip(shape)
        assert shape.row_diffs() == alpha
    with pytest.raises(ValueError):
        border_strip_shape([2, 0, 1])


def test_border_strip_survives_terminal_cell_removal():
    # chopping either end of a strip leaves a strip or nothing
    for alpha in compositions_with_parts(3, range(1, 4)):
        shape = border_strip_shape(alpha)
        outer = list(shape.outer.parts)
        inner = [shape.inner.part(i) for i in range(len(outer))]
        # top-right end
        if outer[0] - inner[0] > 1:
            top = SkewShape(Partition([outer[0] - 1] + outer[1:]), Partition(inner))
        else:
            top = SkewShape(Partition(outer[1:]), Partition(inner[1:]))
        assert top.size == 0 or is_border_strip(top)
        # bottom-left end
        if outer[-1] - inner[-1] > 1:
            bottom = SkewShape(Partition(outer), Partition(inner[:-1] + [inner[-1] + 1]))
        else:
            bottom = SkewShape(Partition(outer[:-1]), Partition(inner[:-1]))
        assert bottom.size == 0 or is_border_strip(bottom)


def test_is_horizontal_strip_examples():
    assert is_horizontal_strip(SkewShape.parse("3,1/1")) is True
    assert is_horizontal_strip(SkewShape.parse("1,1")) is False
    assert is_horizontal_strip(SkewShape(Partition(), Partition())) is True


def test_horizontal_strip_matches_column_counts():
    for lam in partitions_up_to(8):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            columns = Counter(j for _, j in cells_of(lam, mu))
            expected = all(c <= 1 for c in columns.values())
            assert is_horizontal_strip(shape) == expected


def test_composition():
    nu = Composition([2, 0, 3])
    assert nu.size == 5
    assert tuple(nu) == (2, 0, 3)
    assert Composition.parse("2,0,3") == nu
    assert Composition.parse(" 2, 0 ,3 ") == nu
    assert Composition.parse("") == Composition()
    with pytest.raises(ValueError):
        Composition([1, -1])
    for bad in ([1.9], "21"):
        with pytest.raises(TypeError):
            Composition(bad)
    # the partition grammar: ASCII digits, and a bad piece names its offset
    for text, pos in (("+1", 0), ("1_0", 0), ("1,,2", 2), ("2,-1", 2), ("1,\u0661", 2), ("\u00b2", 0)):
        with pytest.raises(ValueError, match=f"invalid composition at position {pos}:"):
            Composition.parse(text)


def test_value_types_are_frozen_and_compare_by_value():
    lam, mu = Partition(iter([3, 1, 0])), Partition([1])
    shape = SkewShape(lam, mu)
    nu = Composition(x for x in (1, 2))
    assert lam.parts == (3, 1) and nu.parts == (1, 2)
    assert shape == SkewShape.parse("3,1/1") and hash(shape) == hash(SkewShape.parse("3,1/1"))
    assert shape != SkewShape(lam) and nu != Composition([2, 1]) and lam != Composition([3, 1])
    assert repr(shape) == "SkewShape(outer=Partition(parts=(3, 1)), inner=Partition(parts=(1,)))"
    assert repr(nu) == "Composition(parts=(1, 2))"
    for obj, name in ((lam, "parts"), (nu, "parts"), (shape, "inner")):
        with pytest.raises(AttributeError):
            setattr(obj, name, ())
        with pytest.raises(AttributeError):
            delattr(obj, name)
    for obj in (lam, nu, shape):
        with pytest.raises(AttributeError):
            obj.foo = 1
        with pytest.raises(AttributeError):
            del obj.foo
        assert pickle.loads(pickle.dumps(obj)) == obj == copy.deepcopy(obj)
    assert copy.copy(shape).inner.part(1) == 0
    with pytest.raises(TypeError):
        SkewShape((3, 1), (1,))
