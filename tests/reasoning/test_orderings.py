"""Tests for the qualitative-placement table."""

from fractions import Fraction

import pytest

from repro.core.compute import compute_cdr
from repro.core.relation import CardinalDirection, DisjunctiveCD
from repro.geometry.bbox import BoundingBox
from repro.geometry.polygon import Polygon
from repro.geometry.region import Region
from repro.reasoning.orderings import (
    GRID_HI,
    GRID_LO,
    axis_placements,
    box_placements,
    grid_bands,
    placement_table,
)
from repro.reasoning.witness import _maximal_tile_rect

REFERENCE = (GRID_LO, GRID_HI)


def zone(value) -> int:
    """The zone of a coordinate around the (0, 10) grid lines."""
    if value < GRID_LO:
        return 0
    if value == GRID_LO:
        return 1
    if value < GRID_HI:
        return 2
    if value == GRID_HI:
        return 3
    return 4


def row_for(x1, x2, y1, y2):
    """The table row whose placement orders like ``[x1, x2] × [y1, y2]``."""
    signature = (zone(x1), zone(x2), zone(y1), zone(y2))
    (row,) = [
        row
        for row in placement_table()
        if tuple(zone(v) for v in (*row.placement.x, *row.placement.y)) == signature
    ]
    return row


def relations(*box) -> set:
    """The relations a region with ``box`` can have against the grid."""
    return {str(r) for r in DisjunctiveCD.from_mask(row_for(*box).admits)}


def box_region(box: BoundingBox) -> Region:
    return Region.from_polygon(
        Polygon.from_coordinates(
            [
                (box.min_x, box.min_y),
                (box.min_x, box.max_y),
                (box.max_x, box.max_y),
                (box.max_x, box.min_y),
            ]
        )
    )


class TestBands:
    def test_low_band_unbounded(self):
        assert grid_bands(0, 10)[0] == (float("-inf"), 0)
        assert relations(-60, -30, 2, 8) == {"W"}

    def test_mid_band(self):
        assert grid_bands(0, 10)[1] == (0, 10)
        assert relations(2, 8, -8, -2) == {"S"}

    def test_high_band_unbounded(self):
        assert grid_bands(0, 10)[2] == (10, float("inf"))
        assert relations(30, 60, 2, 8) == {"E"}

    def test_overlap_open(self):
        assert relations(5, 15, 2, 8) == {"B:E"}
        assert relations(10, 15, 2, 8) == {"E"}  # touches the line from outside
        assert relations(-5, 5, 2, 8) == {"B:W"}


class TestAxisPlacements:
    def test_thirteen_placements(self):
        assert len(axis_placements()) == 13

    def test_all_strictly_ordered(self):
        for placement in axis_placements():
            assert placement.p1 < placement.p2

    def test_distinct_weak_orders(self):
        """Each placement induces a distinct weak order of p1, p2 vs 0, 10."""
        signatures = {(zone(p.p1), zone(p.p2)) for p in axis_placements()}
        assert len(signatures) == 13

    def test_box_placements_cartesian(self):
        assert len(list(box_placements())) == 169
        assert [row.placement for row in placement_table()] == list(box_placements())


class TestRealizability:
    def admits(self, text, x1, x2, y1, y2) -> bool:
        row = row_for(Fraction(x1), Fraction(x2), Fraction(y1), Fraction(y2))
        return CardinalDirection.parse(text) in DisjunctiveCD.from_mask(row.admits)

    def test_b_inside_box(self):
        assert self.admits("B", 2, 8, 2, 8)

    def test_b_needs_box_containment(self):
        assert not self.admits("B", -5, 8, 2, 8)

    def test_s_requires_south_span(self):
        assert self.admits("S", 2, 8, -8, -2)
        assert not self.admits("S", 2, 8, 2, 8)

    def test_multi_tile_needs_straddling_box(self):
        assert self.admits("B:W", -5, 8, 2, 8)
        assert not self.admits("B:W", 2, 8, 2, 8)

    def test_attainment_blocks_unreachable_extremes(self):
        """Box sticking north while the relation has no north-row tile."""
        assert not self.admits("B", 2, 8, 2, 15)


class TestOccupancyOptions:
    def test_box_inside_grid_gives_b_only(self):
        assert relations(2, 8, 2, 8) == {"B"}

    def test_box_equal_to_grid(self):
        assert relations(0, 10, 0, 10) == {"B"}

    def test_box_straddling_west_line(self):
        # Material must reach the west extreme (W tile) and the east
        # extreme (B tile, since the box ends inside the grid).
        assert relations(-5, 8, 2, 8) == {"B:W"}

    def test_disconnection_allows_gaps(self):
        """A box spanning all three columns can skip the middle one —
        the REG* effect behind inv(S) containing NW:NE."""
        options = relations(-5, 15, 12, 18)
        assert "NW:NE" in options
        assert "NW:N:NE" in options
        assert "N" not in options  # cannot attain extremes
        assert len(options) == 2


@pytest.mark.parametrize("converse", [False, True])
def test_every_admitted_relation_is_realised(converse):
    """Each of the 850 (placement, relation) pairs of a mask is realised by
    maximal tile rectangles clipped to the region's box: they span the
    box, and Compute-CDR gives the relation.  ``admits`` is checked for
    the placed box against the reference square, ``converse`` for the
    square against the box."""
    square = BoundingBox(GRID_LO, GRID_LO, GRID_HI, GRID_HI)
    checked = 0
    for row in placement_table():
        x, y = row.placement
        box = BoundingBox(x.p1, y.p1, x.p2, y.p2)
        if converse:
            own, grid, reference, mask = square, (x, y), box, row.converse
        else:
            own, grid, reference, mask = box, (REFERENCE, REFERENCE), square, row.admits
        for relation in DisjunctiveCD.from_mask(mask):
            region = Region(
                _maximal_tile_rect(tile, *grid, own) for tile in relation.tiles
            )
            assert region.bounding_box() == own, (row.placement, relation)
            assert compute_cdr(region, box_region(reference)) == relation, (
                row.placement,
                relation,
            )
            checked += 1
    assert checked == 850
