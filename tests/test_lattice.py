import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab.errors import UsageError
from nclab.lattice import TruncationBox, multi_index


def test_multi_index_validation():
    assert multi_index([0, 2, 1]).tolist() == [0, 2, 1]
    with pytest.raises(UsageError):
        multi_index([1, -1])
    with pytest.raises(UsageError):
        multi_index([])


def test_enumerate_1d():
    box = TruncationBox(1, 1)
    assert box.points().ravel().tolist() == [-1, 0, 1]


def test_enumerate_single_point():
    box = TruncationBox(2, 0)
    pts = box.points()
    assert pts.shape == (1, 2)
    assert pts[0].tolist() == [0, 0]


def test_enumerate_2d_lexicographic():
    box = TruncationBox(2, 1)
    pts = box.points()
    assert len(pts) == 9
    assert pts[:4].tolist() == [[-1, -1], [-1, 0], [-1, 1], [0, -1]]
    assert len({tuple(p) for p in pts.tolist()}) == 9


def test_index_examples():
    box = TruncationBox(1, 2)
    assert box.index_of([-2]) == 0
    assert box.index_of([0]) == 2
    assert TruncationBox(2, 1).index_of([0, -1]) == 3


def test_index_out_of_box():
    box = TruncationBox(1, 2)
    with pytest.raises(UsageError):
        box.index_of([3])


def test_invalid_box():
    with pytest.raises(UsageError):
        TruncationBox(0, 1)
    with pytest.raises(UsageError):
        TruncationBox(1, -1)


@pytest.mark.parametrize("n, M", [(40, 1), (1, 2**62), (2, 2**31), (3000, 1), (2**31, 1)])
def test_box_past_int64_indexing_is_refused(n, M):
    # (2M+1)^n >= 2^63 points: 3^40, 2^63 + 1, (2^32 + 1)^2, 3^3000, 3^(2^31)
    with pytest.raises(UsageError, match=rf"box \[-{M},{M}\]\^{n} has 2\^63 or more lattice points"):
        TruncationBox(n, M)


def test_largest_boxes_below_int64_indexing_are_built():
    # M = 0 gives one point at any n
    assert TruncationBox(39, 1).size == 3**39
    assert TruncationBox(1, 2**62 - 1).size == 2**63 - 1
    assert TruncationBox(2**31, 0).size == 1


@given(st.integers(1, 3), st.integers(0, 4))
@settings(max_examples=40)
def test_index_inverts_points_and_negation_reverses(n, M):
    box = TruncationBox(n, M)
    S = box.size
    for i, p in enumerate(box.points()):
        assert box.index_of(p) == i
        assert box.index_of(-p) == S - 1 - i
