"""Tests for the workload generators (they feed every bench and many
property tests, so their guarantees — validity, determinism, disjointness
— are themselves tested)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.predicates import point_in_polygon
from repro.workloads.generators import (
    random_multi_polygon_region,
    random_rectilinear_region,
    random_region_pair,
    random_star_polygon,
    region_with_hole,
    star_polygon,
)


class TestStarPolygon:
    def test_edge_count(self):
        assert star_polygon(7).edge_count() == 7

    def test_minimum_edges_enforced(self):
        with pytest.raises(GeometryError):
            star_polygon(2)

    def test_clockwise(self):
        assert star_polygon(5).signed_area() < 0

    def test_deterministic(self):
        assert star_polygon(6) == star_polygon(6)

    def test_center_and_radius(self):
        polygon = star_polygon(8, center=(5.0, -3.0), radius=2.0)
        box = polygon.bounding_box()
        assert abs(box.max_x - 7.0) < 1e-9
        assert abs(float(box.min_y + box.max_y) / 2 + 3.0) < 0.5


class TestRandomStarPolygon:
    def test_seed_reproducibility(self):
        assert random_star_polygon(42, 9) == random_star_polygon(42, 9)

    def test_different_seeds_differ(self):
        assert random_star_polygon(1, 9) != random_star_polygon(2, 9)

    def test_bad_radii_rejected(self):
        with pytest.raises(GeometryError):
            random_star_polygon(0, 5, min_radius=2.0, max_radius=1.0)
        with pytest.raises(GeometryError):
            random_star_polygon(0, 5, min_radius=0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(3, 60))
    def test_always_simple(self, seed, n):
        """Angular-sort polygons are simple for every draw."""
        polygon = random_star_polygon(seed, n)
        assert polygon.edge_count() == n
        assert polygon.signed_area() < 0
        if n <= 12:  # is_simple is O(n^2); sample the small sizes
            assert polygon.is_simple()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 60))
    def test_center_inside_for_four_plus_edges(self, seed, n):
        """With n >= 4 the jittered angular gaps stay below 180 degrees,
        so the centre is always interior (for n = 3 a gap may exceed
        180 degrees and the centre can fall just outside)."""
        polygon = random_star_polygon(seed, n)
        from repro.geometry.point import Point

        assert point_in_polygon(Point(0.0, 0.0), polygon)


class TestRandomRectilinearRegion:
    def test_reproducible(self):
        a = random_rectilinear_region(random.Random(5), 6)
        b = random_rectilinear_region(random.Random(5), 6)
        assert a == b

    def test_rectangle_count(self):
        region = random_rectilinear_region(random.Random(1), 9)
        assert len(region) == 9

    def test_integer_coordinates(self):
        region = random_rectilinear_region(random.Random(3), 5)
        for polygon in region.polygons:
            for vertex in polygon.vertices:
                assert isinstance(vertex.x, int) and isinstance(vertex.y, int)

    def test_interiors_disjoint(self):
        """Rectangles are placed in distinct grid cells."""
        region = random_rectilinear_region(random.Random(7), 20)
        boxes = [polygon.bounding_box() for polygon in region.polygons]
        for i, box_a in enumerate(boxes):
            for box_b in boxes[i + 1:]:
                overlap_w = min(box_a.max_x, box_b.max_x) - max(
                    box_a.min_x, box_b.min_x
                )
                overlap_h = min(box_a.max_y, box_b.max_y) - max(
                    box_a.min_y, box_b.min_y
                )
                assert overlap_w <= 0 or overlap_h <= 0

    def test_capacity_check(self):
        with pytest.raises(GeometryError):
            random_rectilinear_region(
                random.Random(0), 1000, bounds=(0, 0, 10, 10)
            )

    def test_zero_rectangles_rejected(self):
        with pytest.raises(GeometryError):
            random_rectilinear_region(random.Random(0), 0)


class TestMultiPolygonRegion:
    def test_total_edges(self):
        region = random_multi_polygon_region(11, 4, 16)
        assert region.edge_count() == 64
        assert len(region) == 4

    def test_components_disjoint(self):
        region = random_multi_polygon_region(11, 9, 8, spacing=3.0)
        boxes = [polygon.bounding_box() for polygon in region.polygons]
        for i, box_a in enumerate(boxes):
            for box_b in boxes[i + 1:]:
                assert not box_a.intersects(box_b)

    def test_deterministic_variant(self):
        region = random_multi_polygon_region(0, 2, 12, jitter=False)
        assert region == random_multi_polygon_region(99, 2, 12, jitter=False)

    def test_zero_polygons_rejected(self):
        with pytest.raises(GeometryError):
            random_multi_polygon_region(0, 0, 8)


class TestRegionWithHole:
    def test_area(self):
        ring = region_with_hole((0, 0, 6, 6), (2, 2, 4, 4))
        assert ring.area() == 36 - 4

    def test_two_polygon_representation(self):
        ring = region_with_hole((0, 0, 6, 6), (2, 2, 4, 4))
        assert len(ring) == 2  # the paper's Fig. 2 style

    def test_hole_must_be_strictly_inside(self):
        with pytest.raises(GeometryError):
            region_with_hole((0, 0, 6, 6), (0, 2, 4, 4))


class TestRandomRegionPair:
    def test_overlapping_bounds(self):
        a, b = random_region_pair(3)
        assert a.bounding_box().intersects(b.bounding_box())

    def test_separated_variant(self):
        a, b = random_region_pair(3, overlap=False)
        assert b.bounding_box().min_x >= 400
