"""Division-free contact predicates against the Fraction-based reference.

``Polygon.is_simple`` and ``polygons_interiors_overlap`` decide segment
contact from the signs of cross-product numerators and test midpoints
on doubled coordinates.  The functions below are the previous
implementations, which divide the numerators out through
:func:`~repro.geometry.intersect.segments_intersection_parameter` and
halve coordinates into ``Fraction`` midpoints; they are kept as the
reference.  Rings are drawn from three coordinate kinds: integers on a
small grid (so collinear, touching and shared-vertex edges are common),
small-denominator fractions, and dyadic floats (exact under float
arithmetic, so both versions must agree there too).
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.validate import (
    ERROR,
    ValidationIssue,
    polygons_interiors_overlap,
    validate_region,
)
from repro.errors import GeometryError
from repro.geometry.intersect import segments_intersection_parameter
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import point_in_ring, point_on_segment
from repro.geometry.region import Region

# -- reference implementations --------------------------------------------


def reference_edges_conflict(e1, e2, adjacent):
    params = segments_intersection_parameter(
        e1.start, (e1.dx, e1.dy), e2.start, (e2.dx, e2.dy)
    )
    if params is None:
        overlap_points = [
            p for p in (e1.start, e1.end) if point_on_segment(p, e2)
        ] + [p for p in (e2.start, e2.end) if point_on_segment(p, e1)]
        distinct = set(overlap_points)
        if adjacent:
            return len(distinct) > 1
        return len(distinct) > 0
    t, u = params
    if not (0 <= t <= 1 and 0 <= u <= 1):
        return False
    if adjacent:
        return not ((t == 0 or t == 1) and (u == 0 or u == 1))
    return True


def reference_is_simple(polygon):
    edges = polygon.edges
    n = len(edges)
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if reference_edges_conflict(edges[i], edges[j], adjacent):
                return False
    return True


def reference_edges_properly_cross(first, second):
    params = segments_intersection_parameter(
        first.start, (first.dx, first.dy), second.start, (second.dx, second.dy)
    )
    if params is None:
        return False
    t, u = params
    return 0 < t < 1 and 0 < u < 1


def reference_point_strictly_in_polygon(point, polygon):
    if any(point_on_segment(point, edge) for edge in polygon.edges):
        return False
    return point_in_ring(point, polygon.vertices)


def reference_interiors_overlap(first, second):
    if not first.bounding_box().intersects(second.bounding_box()):
        return False
    for edge_a in first.edges:
        for edge_b in second.edges:
            if reference_edges_properly_cross(edge_a, edge_b):
                return True
    inside = reference_point_strictly_in_polygon
    if any(inside(v, second) for v in first.vertices):
        return True
    if any(inside(v, first) for v in second.vertices):
        return True
    if any(inside(edge.midpoint, second) for edge in first.edges):
        return True
    return any(inside(edge.midpoint, first) for edge in second.edges)


def reference_validate_region(region, region_id=None):
    issues = []
    polygons = region.polygons
    for index, polygon in enumerate(polygons):
        if not reference_is_simple(polygon):
            issues.append(
                ValidationIssue(
                    ERROR,
                    "non-simple-polygon",
                    f"polygon #{index} self-intersects",
                    region_id,
                )
            )
    for i in range(len(polygons)):
        for j in range(i + 1, len(polygons)):
            if reference_interiors_overlap(polygons[i], polygons[j]):
                issues.append(
                    ValidationIssue(
                        ERROR,
                        "overlapping-parts",
                        f"polygons #{i} and #{j} have overlapping interiors "
                        "(Definition 1 requires disjoint interiors)",
                        region_id,
                    )
                )
    return issues


# -- ring strategies ------------------------------------------------------

COORDINATES = {
    "int-grid": st.integers(0, 4),
    "fraction": st.builds(
        Fraction, st.integers(0, 8), st.sampled_from([1, 2, 3])
    ),
    "dyadic-float": st.integers(0, 16).map(lambda k: k / 4),
}


@st.composite
def polygons(draw, kind):
    coordinate = COORDINATES[kind]
    ring = draw(
        st.lists(st.tuples(coordinate, coordinate), min_size=3, max_size=7)
    )
    try:
        return Polygon.from_coordinates(ring, ensure_clockwise=True)
    except GeometryError:
        assume(False)


KINDS = sorted(COORDINATES)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_is_simple_matches_reference(kind, data):
    polygon = data.draw(polygons(kind))
    assert polygon.is_simple() == reference_is_simple(polygon)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_interiors_overlap_matches_reference(kind, data):
    first = data.draw(polygons(kind))
    second = data.draw(polygons(kind))
    assert polygons_interiors_overlap(first, second) == (
        reference_interiors_overlap(first, second)
    )


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_validate_region_matches_reference(kind, data):
    region = Region(data.draw(st.lists(polygons(kind), min_size=1, max_size=3)))
    assert validate_region(region, region_id="r") == (
        reference_validate_region(region, region_id="r")
    )
