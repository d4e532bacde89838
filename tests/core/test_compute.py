"""General tests for Algorithm Compute-CDR, beyond the paper's figures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baseline import compute_cdr_clipping
from repro.core.compute import compute_cdr, compute_cdr_against_box
from repro.core.relation import ALL_BASIC_RELATIONS
from repro.core.tiles import Tile
from repro.geometry.polygon import Polygon
from repro.geometry.region import Region
from repro.workloads.generators import (
    random_rectilinear_region,
    region_with_hole,
)


def rect_region(x0, y0, x1, y1) -> Region:
    return Region.from_coordinates([[(x0, y0), (x0, y1), (x1, y1), (x1, y0)]])


REF = rect_region(0, 0, 10, 10)


class TestSingleTileRelations:
    """Each of the nine single-tile definitions of Definition 1."""

    CASES = {
        "B": (2, 2, 8, 8),
        "S": (2, -8, 8, -2),
        "SW": (-8, -8, -2, -2),
        "W": (-8, 2, -2, 8),
        "NW": (-8, 12, -2, 18),
        "N": (2, 12, 8, 18),
        "NE": (12, 12, 18, 18),
        "E": (12, 2, 18, 8),
        "SE": (12, -8, 18, -2),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_strict_placement(self, name):
        assert str(compute_cdr(rect_region(*self.CASES[name]), REF)) == name

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_touching_placement(self, name):
        """Tiles are closed: regions touching the grid lines still get
        the single-tile relation."""
        x0, y0, x1, y1 = self.CASES[name]
        # Snap the rectangle to the tile boundary nearest the box.
        snapped = (
            max(x0, -8) if x0 > 0 else x0, y0, x1, y1,
        )
        touching = {
            "S": (0, -8, 10, 0),
            "N": (0, 10, 10, 18),
            "W": (-8, 0, 0, 10),
            "E": (10, 0, 18, 10),
            "SW": (-8, -8, 0, 0),
            "NW": (-8, 10, 0, 18),
            "NE": (10, 10, 18, 18),
            "SE": (10, -8, 18, 0),
            "B": (0, 0, 10, 10),
        }[name]
        assert str(compute_cdr(rect_region(*touching), REF)) == name


class TestMultiTile:
    def test_cross_shape_five_tiles(self):
        cross = Region.from_coordinates(
            [
                [(2, -5, ), (2, 15), (8, 15), (8, -5)],
                [(-5, 2), (-5, 8), (15, 8), (15, 2)],
            ],
            ensure_clockwise=True,
        )
        assert str(compute_cdr(cross, REF)) == "B:S:W:N:E"

    def test_region_covering_everything(self):
        big = rect_region(-100, -100, 100, 100)
        assert len(compute_cdr(big, REF)) == 9

    def test_ring_around_box_excludes_b(self):
        ring = region_with_hole((-10, -10, 20, 20), (-1, -1, 11, 11))
        assert str(compute_cdr(Region(ring.polygons), REF)) == "S:SW:W:NW:N:NE:E:SE"

    def test_annulus_covering_b_without_edges_in_b(self):
        """The mbb-centre test of Fig. 5: a region containing the whole
        central tile has no edge there, yet B must be reported."""
        big = rect_region(-10, -10, 20, 20)
        assert Tile.B in compute_cdr(big, REF).tiles

    def test_hole_at_center_no_b(self):
        """...and with a hole over the box, B must NOT be reported even
        though the centre-in-polygon test runs per polygon."""
        holed = region_with_hole((-10, -10, 20, 20), (-2, -2, 12, 12))
        relation = compute_cdr(holed, REF)
        assert Tile.B not in relation.tiles

    def test_hole_partially_over_center(self):
        """A hole strictly inside the B tile leaves B present."""
        holed = region_with_hole((-10, -10, 20, 20), (4, 4, 6, 6))
        assert Tile.B in compute_cdr(holed, REF).tiles


class TestInterfaces:
    def test_accepts_bare_polygons(self):
        a = Polygon.from_coordinates([(2, 2), (2, 8), (8, 8), (8, 2)])
        b = Polygon.from_coordinates([(0, 0), (0, 10), (10, 10), (10, 0)])
        assert str(compute_cdr(a, b)) == "B"

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            compute_cdr([(0, 0), (1, 1)], REF)

    def test_against_box_matches(self):
        region = rect_region(2, -8, 8, -2)
        box = REF.bounding_box()
        assert compute_cdr_against_box(region, box) == compute_cdr(region, REF)

    def test_reference_shape_is_irrelevant(self):
        """Only mbb(b) matters: an L-shaped reference with the same box
        gives identical results."""
        l_shaped = Region.from_coordinates(
            [[(0, 0), (0, 10), (3, 10), (3, 3), (10, 3), (10, 0)]]
        )
        probe = rect_region(4, 4, 9, 9)  # over the "missing" part of the L
        assert compute_cdr(probe, l_shaped) == compute_cdr(probe, REF)


class TestRelationUniverse:
    def test_every_relation_is_realisable(self):
        """All 511 relations of D* occur for suitable REG* regions —
        exercised through the witness constructor (a strong mutual test
        of the reasoning layer and Compute-CDR)."""
        from repro.reasoning.witness import witness_regions_for_relation

        for relation in ALL_BASIC_RELATIONS[::13]:  # a deterministic sample
            a, b = witness_regions_for_relation(relation)
            assert compute_cdr(a, b) == relation


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_agrees_with_clipping_baseline(seed):
    """E10's correctness half: Compute-CDR and the clipping baseline are
    extensionally equal on random rectilinear regions."""
    import random

    rng = random.Random(seed)
    primary = random_rectilinear_region(rng, rng.randint(1, 8))
    reference = random_rectilinear_region(rng, rng.randint(1, 8))
    assert compute_cdr(primary, reference) == compute_cdr_clipping(
        primary, reference
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.integers(-30, 30), st.integers(-30, 30))
def test_translation_equivariance(seed, dx, dy):
    """Translating both regions together never changes the relation."""
    import random

    rng = random.Random(seed)
    primary = random_rectilinear_region(rng, 4)
    reference = random_rectilinear_region(rng, 4)
    moved = compute_cdr(primary.translated(dx, dy), reference.translated(dx, dy))
    assert moved == compute_cdr(primary, reference)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_relation_is_deterministic_under_polygon_order(seed):
    import random

    rng = random.Random(seed)
    primary = random_rectilinear_region(rng, 6)
    reference = random_rectilinear_region(rng, 3)
    shuffled = list(primary.polygons)
    rng.shuffle(shuffled)
    assert compute_cdr(Region(shuffled), reference) == compute_cdr(
        primary, reference
    )
