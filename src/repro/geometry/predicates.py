"""Geometric predicates: orientation, point-on-segment, point-in-polygon.

All predicates are exact for exact (int / Fraction) coordinates — they are
built solely from comparisons, additions and multiplications.

The quadratic validation passes (:meth:`Polygon.is_simple
<repro.geometry.polygon.Polygon.is_simple>`,
:func:`repro.core.validate.polygons_interiors_overlap`) run on
:data:`EdgeBox` tuples instead of :class:`Segment` objects, and decide
segment contact from the signs of cross-product numerators
(:func:`crossing_numerators`) rather than from divided-out parameters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple

from repro.geometry.point import Coordinate, Point
from repro.geometry.segment import Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.geometry.polygon import Polygon
    from repro.geometry.region import Region


def orientation(a: Point, b: Point, c: Point):
    """Twice the signed area of triangle ``abc``.

    Positive when ``c`` lies to the left of the directed line ``a -> b``
    (counter-clockwise turn), negative to the right, zero when collinear.
    """
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def point_on_segment(point: Point, segment: Segment) -> bool:
    """True when ``point`` lies on the closed segment."""
    if orientation(segment.start, segment.end, point) != 0:
        return False
    min_x, max_x = sorted((segment.start.x, segment.end.x))
    min_y, max_y = sorted((segment.start.y, segment.end.y))
    return min_x <= point.x <= max_x and min_y <= point.y <= max_y


def point_in_ring(point: Point, vertices: Iterable[Point]) -> bool:
    """Even–odd (ray casting) test against a closed vertex ring.

    Points exactly on the boundary count as inside — the paper's tiles and
    regions are closed sets, so boundary membership is the semantics we
    need everywhere (e.g. the centre-of-``mbb(b)`` test in Compute-CDR).
    """
    ring = list(vertices)
    n = len(ring)
    inside = False
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        if a == b:
            continue
        if point_on_segment(point, Segment(a, b)):
            return True
        # Standard even-odd crossing: count edges straddling the horizontal
        # ray to the right of the point.  The half-open comparison on y
        # handles vertices lying exactly on the ray without double counting.
        if (a.y > point.y) != (b.y > point.y):
            # x coordinate of the edge at the ray's height, compared via
            # cross-multiplication to stay exact for rational inputs.
            # Edge from a to b, parameter where y == point.y.
            dy = b.y - a.y
            t_num = point.y - a.y
            x_cross_num = a.x * dy + t_num * (b.x - a.x)
            if dy > 0:
                if x_cross_num > point.x * dy:
                    inside = not inside
            else:
                if x_cross_num < point.x * dy:
                    inside = not inside
    return inside


def point_in_polygon(point: Point, polygon: "Polygon") -> bool:
    """True when ``point`` lies in the closed polygon."""
    return point_in_ring(point, polygon.vertices)


def point_in_region(point: Point, region: "Region") -> bool:
    """True when ``point`` lies in (the closure of) any polygon of ``region``."""
    return any(point_in_polygon(point, polygon) for polygon in region.polygons)


#: A directed edge ``a -> b`` as plain coordinates plus its closed
#: bounding box: ``(ax, ay, bx, by, min_x, max_x, min_y, max_y)``.
EdgeBox = Tuple[Coordinate, ...]


def edge_boxes(ring: Sequence[Tuple[Coordinate, Coordinate]]) -> List[EdgeBox]:
    """The closed ring's directed edges ``v_i -> v_{i+1}`` as :data:`EdgeBox` tuples."""
    edges: List[EdgeBox] = []
    n = len(ring)
    for i in range(n):
        ax, ay = ring[i]
        bx, by = ring[(i + 1) % n]
        min_x, max_x = (ax, bx) if ax <= bx else (bx, ax)
        min_y, max_y = (ay, by) if ay <= by else (by, ay)
        edges.append((ax, ay, bx, by, min_x, max_x, min_y, max_y))
    return edges


def boxes_disjoint(first: EdgeBox, second: EdgeBox) -> bool:
    """True when the edges' closed bounding boxes share no point.

    Edges whose boxes are disjoint cannot touch, so the quadratic
    passes skip them before any product is formed.
    """
    return (
        first[4] > second[5]
        or second[4] > first[5]
        or first[6] > second[7]
        or second[6] > first[7]
    )


def crossing_numerators(
    first: EdgeBox, second: EdgeBox
) -> Tuple[Coordinate, Coordinate, Coordinate]:
    """The edges' carrier intersection as ``(denom, t_num, u_num)``.

    The lines ``a + t·(b − a)`` and ``c + u·(d − c)`` meet at
    ``t = t_num / denom`` and ``u = u_num / denom``.  The signs are
    flipped so that ``denom >= 0``: then ``0 <= t <= 1`` holds exactly
    when ``0 <= t_num <= denom``, and ``t == 1`` exactly when
    ``t_num == denom``, so callers decide contact from comparisons and
    never divide — integer coordinates stay integers.  ``denom == 0``
    for parallel carriers.
    """
    ax, ay = first[0], first[1]
    rx, ry = first[2] - ax, first[3] - ay
    sx, sy = second[2] - second[0], second[3] - second[1]
    qx, qy = second[0] - ax, second[1] - ay
    denom = rx * sy - ry * sx
    t_num = qx * sy - qy * sx
    u_num = qx * ry - qy * rx
    if denom < 0:
        return -denom, -t_num, -u_num
    return denom, t_num, u_num


def point_on_edge(x: Coordinate, y: Coordinate, edge: EdgeBox) -> bool:
    """:func:`point_on_segment` for the point ``(x, y)`` and an :data:`EdgeBox`."""
    ax, ay, bx, by, min_x, max_x, min_y, max_y = edge
    return (
        min_x <= x <= max_x
        and min_y <= y <= max_y
        and (bx - ax) * (y - ay) - (by - ay) * (x - ax) == 0
    )


def point_strictly_inside(
    x: Coordinate, y: Coordinate, edges: Sequence[EdgeBox]
) -> bool:
    """True when ``(x, y)`` lies in the interior of the ring ``edges``.

    The even–odd rule of :func:`point_in_ring`, with the same arithmetic
    per edge, except that boundary points count as outside.
    """
    inside = False
    for edge in edges:
        if point_on_edge(x, y, edge):
            return False
        ax, ay, bx, by = edge[0], edge[1], edge[2], edge[3]
        if (ay > y) != (by > y):
            dy = by - ay
            x_cross_num = ax * dy + (y - ay) * (bx - ax)
            if dy > 0:
                if x_cross_num > x * dy:
                    inside = not inside
            elif x_cross_num < x * dy:
                inside = not inside
    return inside
