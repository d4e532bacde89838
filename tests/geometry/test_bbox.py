"""Tests for repro.geometry.bbox."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point


class TestConstruction:
    def test_valid(self):
        box = BoundingBox(0, 0, 2, 3)
        assert (box.width, box.height) == (2, 3)

    def test_rejects_zero_width(self):
        with pytest.raises(GeometryError):
            BoundingBox(1, 0, 1, 2)

    def test_rejects_inverted(self):
        with pytest.raises(GeometryError):
            BoundingBox(2, 0, 0, 2)

    def test_around_points(self):
        box = BoundingBox.around([Point(1, 5), Point(-2, 0), Point(3, 3)])
        assert box == BoundingBox(-2, 0, 3, 5)

    def test_around_empty_raises(self):
        with pytest.raises(GeometryError):
            BoundingBox.around([])

    def test_around_collinear_points_raises(self):
        # A degenerate (zero-height) box is not a valid mbb of a region.
        with pytest.raises(GeometryError):
            BoundingBox.around([Point(0, 0), Point(1, 0)])


class TestGeometry:
    def test_area(self):
        assert BoundingBox(0, 0, 3, 4).area() == 12

    def test_corners_are_clockwise(self):
        corners = BoundingBox(0, 0, 1, 1).corners()
        assert corners == (Point(0, 0), Point(0, 1), Point(1, 1), Point(1, 0))

    def test_contains_box(self):
        outer = BoundingBox(0, 0, 10, 10)
        assert outer.contains_box(BoundingBox(1, 1, 9, 9))
        assert outer.contains_box(outer)
        assert not outer.contains_box(BoundingBox(-1, 1, 9, 9))

    def test_union(self):
        a, b = BoundingBox(0, 0, 1, 1), BoundingBox(2, -1, 3, 0.5)
        assert a.union(b) == BoundingBox(0, -1, 3, 1)

    def test_intersects(self):
        a = BoundingBox(0, 0, 2, 2)
        assert a.intersects(BoundingBox(1, 1, 3, 3))
        assert a.intersects(BoundingBox(2, 2, 3, 3))  # corner touch counts
        assert not a.intersects(BoundingBox(3, 3, 4, 4))

    def test_translated(self):
        assert BoundingBox(0, 0, 1, 1).translated(5, -5) == BoundingBox(5, -5, 6, -4)


@given(
    st.integers(-100, 100), st.integers(-100, 100),
    st.integers(1, 50), st.integers(1, 50),
)
def test_union_contains_both(x, y, w, h):
    a = BoundingBox(x, y, x + w, y + h)
    b = BoundingBox(x + 7, y - 3, x + 7 + w, y - 3 + h)
    union = a.union(b)
    assert union.contains_box(a) and union.contains_box(b)
