"""Tests for the Fig. 2 representation scenario (sets of polygons)."""

from repro.core.compute import compute_cdr
from repro.geometry.point import Point
from repro.geometry.predicates import point_in_region
from repro.workloads.scenarios import figure2_regions


class TestFigure2:
    def test_a_is_two_polygons_of_figure_sizes(self):
        a = figure2_regions()["a"]
        assert sorted(p.edge_count() for p in a.polygons) == [9, 10]

    def test_all_polygons_simple_and_clockwise(self):
        for region in figure2_regions().values():
            for polygon in region.polygons:
                assert polygon.is_simple()
                assert polygon.signed_area() < 0

    def test_b_has_a_hole_via_shared_edges(self):
        b = figure2_regions()["b"]
        assert len(b) == 2
        assert b.area() == 44  # 8x6 outer minus 2x2 hole
        assert not point_in_region(Point(23, 3), b)   # in the hole
        assert point_in_region(Point(21, 3), b)       # in the ring

    def test_shared_edges_are_interior(self):
        """The cut between the two polygons must not be a boundary of b
        (exactly the paper's point about the representation)."""
        from repro.extensions.topology import RCC8, rcc8
        from repro.geometry.region import Region

        b = figure2_regions()["b"]
        probe = Region.from_coordinates(
            [[(25, 1), (25, 5), (27, 5), (27, 1)]]
        )  # straddles the x = 26 cut without touching b's true boundary
        assert rcc8(probe, b) is RCC8.NTPP

    def test_regions_work_with_compute_cdr(self):
        figs = figure2_regions()
        relation = compute_cdr(figs["a"], figs["b"])
        # a lies entirely west of b's box (x <= 13 < 20), spanning rows.
        assert set(t.name for t in relation.tiles) <= {"W", "NW", "SW"}

    def test_percentages_partition(self):
        from repro.core.percentages import total_area_check

        figs = figure2_regions()
        computed, direct = total_area_check(
            figs["a"], figs["b"].bounding_box()
        )
        assert computed == direct
