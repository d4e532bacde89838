"""Tests for the polygon repair pipeline (repro.geometry.repair).

The pipeline must turn every defect with a canonical fix — reversed
orientation, duplicate/collinear vertices, explicit closing vertices,
zero-area rings, bowties — into valid ``REG*`` geometry, report what it
did, and refuse (per mode) what it cannot fix faithfully.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.validate import validate_region
from repro.errors import GeometryError
from repro.geometry.polygon import _twice_signed_area
from repro.geometry.region import Region
from repro.geometry.repair import (
    LENIENT,
    REPAIR,
    STRICT,
    RepairReport,
    repair_polygon,
    repair_region,
)
from repro.workloads.generators import (
    DEGENERATE_KINDS,
    degenerate_ring,
    random_star_polygon,
)

SQUARE_CW = [(0, 0), (0, 2), (2, 2), (2, 0)]
SQUARE_CCW = list(reversed(SQUARE_CW))


def region_area(region: Region) -> float:
    return float(
        sum(abs(_twice_signed_area(p.vertices)) for p in region.polygons)
    ) / 2.0


class TestCleanInput:
    def test_clean_ring_passes_through(self):
        polygons, actions = repair_polygon(SQUARE_CW)
        assert actions == []
        assert len(polygons) == 1
        assert [((v.x), (v.y)) for v in polygons[0].vertices] == SQUARE_CW

    def test_clean_region_reports_no_change(self):
        region = Region.from_coordinates([SQUARE_CW])
        repaired, report = repair_region(region, region_id="a")
        assert not report.changed
        assert report.summary() == "region 'a': no repairs needed"
        assert region_area(repaired) == 4.0

    def test_strict_mode_accepts_clean_input(self):
        polygons, actions = repair_polygon(SQUARE_CW, mode=STRICT)
        assert len(polygons) == 1 and actions == []


class TestSingleDefects:
    def test_reversed_ring_is_reoriented(self):
        polygons, actions = repair_polygon(SQUARE_CCW)
        assert [a.code for a in actions] == ["reversed-orientation"]
        assert _twice_signed_area(polygons[0].vertices) < 0

    def test_duplicates_and_closing_vertex_removed(self):
        ring = [(0, 0), (0, 0), (0, 2), (2, 2), (2, 2), (2, 0), (0, 0)]
        polygons, actions = repair_polygon(ring)
        assert [a.code for a in actions] == ["removed-duplicate-vertices"]
        assert len(polygons[0].vertices) == 4

    def test_collinear_vertices_removed(self):
        ring = [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 0)]
        polygons, actions = repair_polygon(ring)
        assert [a.code for a in actions] == ["removed-collinear-vertices"]
        assert len(polygons[0].vertices) == 4

    def test_spike_removed(self):
        ring = [(0, 0), (0, 2), (1, 3), (0, 2), (2, 2), (2, 0)]
        polygons, actions = repair_polygon(ring)
        codes = {a.code for a in actions}
        assert codes <= {
            "removed-duplicate-vertices", "removed-collinear-vertices"
        }
        assert len(polygons) == 1
        assert polygons[0].is_simple()

    def test_zero_area_ring_dropped(self):
        polygons, actions = repair_polygon([(0, 0), (1, 1), (2, 2)])
        assert polygons == []
        assert [a.code for a in actions] == ["dropped-zero-area-ring"]

    def test_asymmetric_bowtie_split(self):
        polygons, actions = repair_polygon([(0, 0), (2, 2), (2, 0), (0, 4)])
        assert "split-self-intersection" in [a.code for a in actions]
        assert len(polygons) == 2
        assert all(p.is_simple() for p in polygons)
        total = sum(
            abs(_twice_signed_area(p.vertices)) for p in polygons
        ) / 2
        assert total == pytest.approx(10.0 / 3.0)

    def test_symmetric_bowtie_split_not_dropped(self):
        # Global shoelace is zero (the loops cancel) but the ring is not
        # flat: it must split into its two triangles.
        polygons, actions = repair_polygon([(0, 0), (2, 2), (2, 0), (0, 2)])
        assert len(polygons) == 2
        areas = sorted(
            abs(_twice_signed_area(p.vertices)) / 2 for p in polygons
        )
        assert areas == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_exact_bowtie_split_is_exact(self):
        ring = [
            (Fraction(0), Fraction(0)),
            (Fraction(2), Fraction(2)),
            (Fraction(2), Fraction(0)),
            (Fraction(0), Fraction(4)),
        ]
        polygons, _ = repair_polygon(ring)
        total = sum(
            abs(_twice_signed_area(p.vertices)) for p in polygons
        ) / 2
        assert total == Fraction(10, 3)

    def test_snap_rounding(self):
        ring = [(0.004, -0.003), (0.002, 2.001), (2.0, 2.0), (1.998, 0.001)]
        polygons, actions = repair_polygon(ring, snap_tolerance=0.01)
        assert actions[0].code == "snapped-vertices"
        for vertex in polygons[0].vertices:
            assert (vertex.x / 0.01) == pytest.approx(round(vertex.x / 0.01))


class TestModes:
    @pytest.mark.parametrize(
        "ring, message",
        [
            (SQUARE_CCW, "counter-clockwise"),
            ([(0, 0), (0, 0), (0, 2), (2, 2), (2, 0)], "duplicate"),
            ([(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 0)], "collinear"),
            ([(0, 0), (1, 1), (2, 2)], "degenerate"),
            # Bowtie in clockwise order (CCW would trip orientation first).
            ([(0, 4), (2, 0), (2, 2), (0, 0)], "self-intersects"),
        ],
    )
    def test_strict_raises_on_each_defect(self, ring, message):
        with pytest.raises(GeometryError, match=message):
            repair_polygon(ring, mode=STRICT)

    def test_repair_raises_when_region_left_empty(self):
        with pytest.raises(GeometryError, match="empty after repair"):
            repair_region([[(0, 0), (1, 1), (2, 2)]], region_id="flat")

    def test_lenient_drops_what_repair_cannot_fix(self):
        # The edge (1,0)-(3,0) overlaps (0,0)-(4,0) collinearly: the
        # self-intersection has no proper crossing to split at, and no
        # consecutive vertex triple is collinear, so cleaning keeps it.
        tangle = [(0, 0), (4, 0), (4, 2), (3, 0), (1, 0), (0, 2)]
        with pytest.raises(GeometryError, match="cannot be split"):
            repair_polygon(tangle, mode=REPAIR)
        polygons, actions = repair_polygon(tangle, mode=LENIENT)
        assert polygons == []
        assert "dropped-unrepairable-ring" in [a.code for a in actions]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="repair mode"):
            repair_polygon(SQUARE_CW, mode="fix")

    def test_error_context_attached(self):
        try:
            repair_region(
                [SQUARE_CW, [(0, 0), (1, 1), (2, 2)]],
                mode=STRICT,
                region_id="attica",
            )
        except GeometryError as error:
            assert "attica" in str(error)
            assert "polygon #1" in str(error)
        else:  # pragma: no cover
            pytest.fail("expected GeometryError")


class TestReport:
    def test_codes_are_deduplicated_in_order(self):
        report = RepairReport(
            tuple(
                a
                for ring in ([(0, 0), (0, 0), (0, 2), (2, 2), (2, 0)],) * 2
                for a in repair_polygon(ring)[1]
            ),
            region_id="r",
        )
        assert report.codes() == ("removed-duplicate-vertices",)
        assert "2 repair(s)" in report.summary()


class TestDegenerateGenerators:
    """Property: every generated degenerate ring repairs into geometry
    that passes the full validator."""

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(DEGENERATE_KINDS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # Seed 132's coin flips duplicate no vertex of the base star.
    @example(kind="duplicated", seed=132)
    def test_repaired_ring_validates(self, kind, seed):
        ring = degenerate_ring(random.Random(seed), kind)
        try:
            region, report = repair_region([ring], region_id=kind)
        except GeometryError:
            # Legal only for rings that collapse entirely (the jittered
            # near-grid family can round to a flat ring).
            assert kind == "near-grid"
            return
        issues = validate_region(region, region_id=kind)
        assert issues == [], [str(issue) for issue in issues]
        # "collinear" midpoints are float-computed and may be only
        # *near*-collinear, which is legal unchanged geometry.
        if kind in ("reversed", "duplicated", "bowtie"):
            assert report.changed

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        edge_count=st.integers(min_value=3, max_value=12),
    )
    def test_clean_star_is_untouched(self, seed, edge_count):
        polygon = random_star_polygon(random.Random(seed), edge_count)
        repaired, report = repair_region(polygon)
        assert not report.changed
        assert region_area(repaired) == pytest.approx(
            abs(_twice_signed_area(polygon.vertices)) / 2
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_reversed_star_restores_area(self, seed):
        polygon = random_star_polygon(random.Random(seed), 8)
        reversed_ring = [
            (v.x, v.y) for v in reversed(polygon.vertices)
        ]
        repaired, report = repair_region([reversed_ring])
        assert report.codes() == ("reversed-orientation",)
        assert region_area(repaired) == pytest.approx(
            abs(_twice_signed_area(polygon.vertices)) / 2
        )
