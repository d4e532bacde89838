"""Differential tests: Compute-CDR's band walk against the divided edges.

``compute_cdr_against_box`` walks each edge through the bands of the
grid and orders crossings by cross-multiplication; it never forms a
crossing point.  The reference here is the paper's algorithm as the
library's other parts still spell it out: the tiles of the divided
sub-edges (:func:`~repro.core.split.iter_divided_edges`, which
Compute-CDR% runs) plus the closed point-in-polygon test at the
``Fraction`` centre of the box.  On int and ``Fraction`` input both are
exact, so they must agree everywhere.  On float input the walk must
give the relation of the same polygon lifted to ``Fraction``, which the
divided-edge path run in floats does not always do.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.compute import compute_cdr, compute_cdr_against_box
from repro.core.relation import RELATIONS_BY_MASK
from repro.core.split import iter_divided_edges
from repro.core.tiles import Tile
from repro.errors import GeometryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import point_in_polygon
from repro.geometry.region import Region
from tests.core.test_engine_equivalence import BOX, PLACEMENTS


def reference_relation(region, box):
    """Compute-CDR from divided edges and a closed centre test."""
    mask = 0
    for piece in iter_divided_edges(region, box):
        mask |= 1 << piece.tile
    centre = Point(
        Fraction(box.min_x + box.max_x) / 2, Fraction(box.min_y + box.max_y) / 2
    )
    if any(point_in_polygon(centre, polygon) for polygon in region.polygons):
        mask |= 1 << Tile.B
    return RELATIONS_BY_MASK[mask]


# -- int and Fraction input on a small grid ----------------------------------
#
# Vertices and grid lines share a grid of a few cells, so edges often end on
# a grid line, lie on one, or pass exactly through a corner of the box.

#: Coordinate kinds: ints, ``Fraction`` halves, and ``Fraction`` values on
#: the integer grid mixed with an int box.
SCALES = {
    "int": lambda v: v,
    "half": lambda v: Fraction(v, 2),
    "fraction-on-int-grid": lambda v: Fraction(v),
}

points = st.tuples(st.integers(-2, 6), st.integers(-2, 6))


@st.composite
def boxes(draw):
    x0 = draw(st.integers(0, 3))
    y0 = draw(st.integers(0, 3))
    return x0, y0, draw(st.integers(x0 + 1, 4)), draw(st.integers(y0 + 1, 4))


def ring(coordinates, scale):
    """A clockwise polygon over ``coordinates``, or ``None`` if degenerate."""
    try:
        return Polygon(
            (Point(scale(x), scale(y)) for x, y in coordinates), ensure_clockwise=True
        )
    except GeometryError:
        return None


@st.composite
def shared_edge_polygons(draw):
    """A ring cut along a chord into two polygons sharing that edge."""
    coordinates = draw(st.lists(points, min_size=4, max_size=6, unique=True))
    cut = draw(st.integers(2, len(coordinates) - 2))
    return [coordinates[: cut + 1], coordinates[cut:] + coordinates[:1]]


@st.composite
def grid_regions(draw):
    rings = draw(st.lists(st.lists(points, min_size=3, max_size=6), min_size=1, max_size=3))
    if draw(st.booleans()):
        rings += draw(shared_edge_polygons())
    return rings


@settings(max_examples=400, deadline=None)
@given(grid_regions(), boxes(), st.sampled_from(sorted(SCALES)))
def test_walk_equals_divided_edges_on_a_small_grid(rings, corners, kind):
    scale = SCALES[kind]
    polygons = [p for p in (ring(r, scale) for r in rings) if p is not None]
    assume(polygons)
    region = Region(polygons)
    box = BoundingBox(*(corner if kind != "half" else scale(corner) for corner in corners))
    assert compute_cdr_against_box(region, box) == reference_relation(region, box)


@pytest.mark.parametrize("rings, expected", PLACEMENTS)
def test_walk_equals_divided_edges_on_the_prune_placements(rings, expected):
    region = Region.from_coordinates(rings)
    relation = compute_cdr_against_box(region, BOX)
    assert relation == reference_relation(region, BOX)
    assert str(relation) == expected


@pytest.mark.parametrize(
    "coordinates, expected",
    [
        # An edge through the box corner (0, 0) passes from W to S: the
        # material beside it decides SW or B, and the edge adds neither.
        ([(-2, 2), (2, -2), (-3, -3)], "S:SW:W"),
        ([(-2, 2), (3, 3), (2, -2)], "B:S:W"),
        # Through two opposite corners along the box diagonal.
        ([(-1, -1), (11, 11), (12, -1)], "B:S:SW:NE:E:SE"),
        # Edges lying on grid lines: the inward normal picks the side.
        ([(-2, 0), (-2, 10), (0, 10), (0, 0)], "W"),
        ([(0, 0), (0, 10), (10, 10), (10, 0)], "B"),
    ],
)
def test_corner_crossings_and_edges_on_lines(coordinates, expected):
    region = Region.from_coordinates([coordinates], ensure_clockwise=True)
    relation = compute_cdr_against_box(region, BOX)
    assert str(relation) == expected
    assert relation == reference_relation(region, BOX)


def test_centre_test_is_exact_for_odd_spans():
    """The centre of [0, 1]² is (1/2, 1/2); doubled, no half is formed."""
    box = BoundingBox(0, 0, 1, 1)
    around = Region.from_coordinates([[(-1, -1), (-1, 2), (2, 2), (2, -1)]])
    frame = Region.from_coordinates(
        [
            [(-1, -1), (-1, 2), (0, 2), (0, -1)],
            [(1, -1), (1, 2), (2, 2), (2, -1)],
            [(0, -1), (0, 0), (1, 0), (1, -1)],
            [(0, 1), (0, 2), (1, 2), (1, 1)],
        ]
    )
    assert str(compute_cdr_against_box(around, box)) == "B:S:SW:W:NW:N:NE:E:SE"
    assert str(compute_cdr_against_box(frame, box)) == "S:SW:W:NW:N:NE:E:SE"


# -- float input a few ulps off the grid lines -------------------------------


def _ulps_off(value, count):
    toward = math.inf if count > 0 else -math.inf
    for _ in range(abs(count)):
        value = math.nextafter(value, toward)
    return value


def near_grid_triangles(seed, count):
    """Float triangles whose coordinates sit 0-3 ulps off a grid line (or
    anywhere near the box), against a box with inexact decimal lines."""
    rng = random.Random(seed)
    for _ in range(count):
        x0 = round(rng.uniform(-5, 5), 1)
        y0 = round(rng.uniform(-5, 5), 1)
        x1 = round(x0 + rng.uniform(0.5, 8), 1)
        y1 = round(y0 + rng.uniform(0.5, 8), 1)

        def coordinate(low, high):
            if rng.random() < 0.7:
                return _ulps_off(rng.choice((low, high)), rng.randint(-3, 3))
            return rng.uniform(low - 4, high + 4)

        pair = clockwise_twins(
            [(coordinate(x0, x1), coordinate(y0, y1)) for _ in range(3)]
        )
        if pair is not None:
            yield pair, BoundingBox(x0, y0, x1, y1)


def clockwise_twins(coordinates):
    """The float polygon over ``coordinates`` and its ``Fraction`` twin,
    both in the exact clockwise order; ``None`` when the float polygon
    cannot be built in that order (float orientation is out of scope)."""
    try:
        exact = Polygon(
            (Point(Fraction(x), Fraction(y)) for x, y in coordinates),
            ensure_clockwise=True,
        )
        floats = Polygon(Point(float(v.x), float(v.y)) for v in exact.vertices)
    except GeometryError:
        return None
    return Region.from_polygon(floats), Region.from_polygon(exact)


def exact_box(box):
    return BoundingBox(*(Fraction(v) for v in (box.min_x, box.min_y, box.max_x, box.max_y)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_near_grid_floats_get_the_relation_of_the_lifted_polygon(seed):
    walk_wrong = float_divided_wrong = checked = 0
    for (region, exact_region), box in near_grid_triangles(seed, 1500):
        truth = reference_relation(exact_region, exact_box(box))
        assert compute_cdr_against_box(exact_region, exact_box(box)) == truth
        walk_wrong += compute_cdr_against_box(region, box) != truth
        float_divided_wrong += _divided_in_floats(region, box) != truth
        checked += 1
    assert checked > 1000
    assert walk_wrong == 0
    # The fixture has teeth: dividing the edges in float arithmetic
    # misses sub-ulp slivers here.
    assert float_divided_wrong > 0


def _divided_in_floats(region, box):
    """The divided-edge relation with float crossings and a float centre."""
    mask = 0
    for piece in iter_divided_edges(region, box):
        mask |= 1 << piece.tile
    centre = Point((box.min_x + box.max_x) / 2, (box.min_y + box.max_y) / 2)
    if any(point_in_polygon(centre, polygon) for polygon in region.polygons):
        mask |= 1 << Tile.B
    return RELATIONS_BY_MASK[mask]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.1, 7.8, 10.0, 11.0, 3.3]),
            st.integers(-2, 2),
            st.sampled_from([0.1, 7.8, 10.0, 11.0, 3.3]),
            st.integers(-2, 2),
        ),
        min_size=3,
        max_size=5,
    )
)
def test_near_grid_float_polygons(vertices):
    """Hypothesis-shrunk counterpart of the seeded sweep above."""
    box = BoundingBox(0.1, 10.0, 7.8, 11.0)
    pair = clockwise_twins([(_ulps_off(x, i), _ulps_off(y, j)) for x, i, y, j in vertices])
    assume(pair is not None)
    region, exact_region = pair
    assert compute_cdr_against_box(region, box) == reference_relation(
        exact_region, exact_box(box)
    )


def test_float_centre_is_summed_exactly():
    """The box's lines 2^53 - 1 and 2^53 sum to 2^54 - 1, which rounds to
    2^54 in floats: a float centre would land on the tip of the wedge cut
    into the primary, on its boundary, and lose ``B``."""
    edge = float(2**53)
    region, exact_region = clockwise_twins(
        [
            (edge - 10, -10.0), (edge - 10, 12.0), (edge + 10, 12.0),
            (edge + 10, 5.0), (edge, 1.0), (edge + 10, -3.0), (edge + 10, -10.0),
        ]
    )
    box = BoundingBox(edge - 1, 0.0, edge, 2.0)
    relation = compute_cdr_against_box(region, box)
    assert str(relation) == "B:S:SW:W:NW:N:NE:E:SE"
    assert relation == reference_relation(exact_region, exact_box(box))


def test_float_triangle_with_sub_ulp_slivers():
    """A triangle whose B and E parts are slivers narrower than an ulp of
    the crossing points: dividing in floats gives ``N:NE``."""
    region, exact_region = clockwise_twins(
        [
            (13.163374626037722, 13.195307686381579),
            (7.8, 10.999999999999998),
            (0.1, 11.000000000000002),
        ]
    )
    reference = Region.from_coordinates([[(0.1, 10), (0.1, 11), (7.8, 11), (7.8, 10)]])
    box = reference.bounding_box()
    assert str(compute_cdr(region, reference)) == "B:N:NE:E"
    assert str(reference_relation(exact_region, exact_box(box))) == "B:N:NE:E"
    assert str(_divided_in_floats(region, box)) == "N:NE"
