"""Tests for edge division and tile classification (repro.core.split).

Includes the ablation of Section 5 of DESIGN.md: the literal midpoint
rule is ambiguous for edges lying on grid lines; the interior-side rule
resolves them to the semantically correct tile.
"""

from fractions import Fraction

import pytest

from repro.geometry.bbox import BoundingBox
from repro.geometry.region import Region
from repro.geometry.segment import Segment
from repro.geometry.point import Point
from repro.core.compute import compute_cdr
from repro.core.split import (
    classify_segment,
    classify_segment_naive,
    divide_region_edges,
)
from repro.core.tiles import Tile

BOX = BoundingBox(0, 0, 10, 10)


def rect_region(x0, y0, x1, y1) -> Region:
    return Region.from_coordinates([[(x0, y0), (x0, y1), (x1, y1), (x1, y0)]])


class TestClassifySegment:
    def test_strict_interior(self):
        assert classify_segment(Segment(Point(1, 1), Point(2, 3)), BOX) is Tile.B
        assert classify_segment(Segment(Point(-5, 1), Point(-4, 3)), BOX) is Tile.W
        assert classify_segment(Segment(Point(12, 12), Point(13, 14)), BOX) is Tile.NE

    def test_vertical_edge_on_west_line_interior_east(self):
        """Upward edge on x=0 belongs to a clockwise ring with interior
        to the east — the B column."""
        seg = Segment(Point(0, 2), Point(0, 8))
        assert classify_segment(seg, BOX) is Tile.B

    def test_vertical_edge_on_west_line_interior_west(self):
        seg = Segment(Point(0, 8), Point(0, 2))  # downward: interior west
        assert classify_segment(seg, BOX) is Tile.W

    def test_horizontal_edge_on_north_line(self):
        east = Segment(Point(2, 10), Point(8, 10))   # interior south -> B
        west = Segment(Point(8, 10), Point(2, 10))   # interior north -> N
        assert classify_segment(east, BOX) is Tile.B
        assert classify_segment(west, BOX) is Tile.N

    def test_edge_on_line_outside_box_span(self):
        # On x=0 but south of the box: W-column vs S-row combination.
        seg = Segment(Point(0, -8), Point(0, -2))  # upward, interior east
        assert classify_segment(seg, BOX) is Tile.S
        assert classify_segment(seg.reversed(), BOX) is Tile.SW

    def test_naive_rule_prefers_center(self):
        seg = Segment(Point(0, 8), Point(0, 2))
        assert classify_segment_naive(seg, BOX) is Tile.B  # wrong side!


class TestDivideRegionEdges:
    def test_interior_region_unchanged(self):
        region = rect_region(2, 2, 8, 8)
        pieces = divide_region_edges(region, BOX)
        assert len(pieces) == 4
        assert {p.tile for p in pieces} == {Tile.B}

    def test_straddling_region_divided(self):
        region = rect_region(-5, 2, 5, 8)  # straddles x=0
        pieces = divide_region_edges(region, BOX)
        assert len(pieces) == 6  # top and bottom edges split once each
        assert {p.tile for p in pieces} == {Tile.W, Tile.B}

    def test_polygon_index_recorded(self):
        region = Region.from_coordinates(
            [
                [(2, 2), (2, 3), (3, 3), (3, 2)],
                [(12, 2), (12, 3), (13, 3), (13, 2)],
            ]
        )
        pieces = divide_region_edges(region, BOX)
        assert {p.polygon_index for p in pieces} == {0, 1}

    def test_pieces_never_cross_grid_lines(self):
        region = rect_region(-3, -3, 13, 13)
        for piece in divide_region_edges(region, BOX):
            seg = piece.segment
            for x in (0, 10):
                lo, hi = sorted((seg.start.x, seg.end.x))
                assert not (lo < x < hi)
            for y in (0, 10):
                lo, hi = sorted((seg.start.y, seg.end.y))
                assert not (lo < y < hi)


class TestGridAlignedAblation:
    """A region whose boundary lies exactly on grid lines: the interior
    rule reports the true relation; the naive rule drifts into B."""

    def region_west_flush(self) -> Region:
        # A rectangle whose east edge lies exactly on x = 0 (the west
        # grid line): entirely in W, touching B only along a line.
        return rect_region(-4, 2, 0, 8)

    def test_interior_rule_correct(self):
        relation = compute_cdr(self.region_west_flush(), rect_region(0, 0, 10, 10))
        assert str(relation) == "W"

    def test_naive_rule_wrong(self):
        region = self.region_west_flush()
        pieces = divide_region_edges(region, BOX, naive=True)
        tiles = {p.tile for p in pieces}
        assert Tile.B in tiles  # the defect the interior rule fixes

    def test_box_flush_region_is_b(self):
        """A region exactly filling the box must be B, not B plus
        phantom outer tiles."""
        region = rect_region(0, 0, 10, 10)
        relation = compute_cdr(region, rect_region(0, 0, 10, 10))
        assert str(relation) == "B"

    @pytest.mark.parametrize(
        "corners, expected",
        [
            ((-4, 2, 0, 8), "W"), ((10, 2, 14, 8), "E"), ((2, 10, 8, 14), "N"),
            ((2, -4, 8, 0), "S"), ((0, 0, 10, 10), "B"), ((-4, -4, 0, 0), "SW"),
        ],
    )
    def test_walk_and_interior_rule_agree_on_flush_regions(self, corners, expected):
        """Compute-CDR's band walk applies the same inward-normal rule
        without dividing: same tiles as the divided edges, and right."""
        region = rect_region(*corners)
        divided = {p.tile for p in divide_region_edges(region, BOX)}
        relation = compute_cdr(region, rect_region(0, 0, 10, 10))
        assert set(relation.tiles) == divided
        assert str(relation) == expected

    def test_fraction_flush_region(self):
        region = rect_region(Fraction(-4), Fraction(0), Fraction(0), Fraction(10))
        relation = compute_cdr(region, rect_region(0, 0, 10, 10))
        assert str(relation) == "W"
