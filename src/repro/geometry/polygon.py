"""Simple clockwise polygons.

Following Section 3 of the paper, connected regions are represented by
single *simple* polygons whose edges are listed **in clockwise order**.
Composite regions (class ``REG*``) are sets of such polygons — see
:mod:`repro.geometry.region`.

The class validates its input on construction:

* at least three distinct vertices;
* no zero-length edges (consecutive duplicates are rejected);
* non-zero area (fully collinear rings are rejected);
* clockwise orientation — counter-clockwise input is either rejected or,
  with ``ensure_clockwise=True``, silently reversed (useful when importing
  data from sources with the opposite convention).

Self-intersection is *not* checked by default — it is an O(n²) test,
whereas the whole point of the paper is linear-time processing; call
:meth:`Polygon.is_simple` explicitly when ingesting untrusted data.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.errors import GeometryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Coordinate, Point, _half
from repro.geometry.predicates import (
    EdgeBox,
    boxes_disjoint,
    crossing_numerators,
    edge_boxes,
    orientation,
    point_on_edge,
)
from repro.geometry.segment import Segment


class Polygon:
    """A simple polygon stored as a clockwise ring of vertices."""

    __slots__ = ("_vertices", "_edges")

    def __init__(
        self, vertices: Iterable[Point], *, ensure_clockwise: bool = False
    ) -> None:
        ring = _normalised_ring(vertices)
        if len(ring) < 3:
            raise GeometryError(
                f"a polygon needs at least 3 distinct vertices, got {len(ring)}"
            )
        doubled = _twice_signed_area(ring)
        if doubled == 0:
            raise GeometryError("polygon vertices are collinear (zero area)")
        if doubled > 0:  # positive shoelace sum = counter-clockwise (y-up)
            if not ensure_clockwise:
                raise GeometryError(
                    "polygon vertices must be in clockwise order "
                    "(pass ensure_clockwise=True to auto-reverse)"
                )
            ring.reverse()
        self._vertices: Tuple[Point, ...] = tuple(ring)
        self._edges: Tuple[Segment, ...] = ()

    @classmethod
    def from_coordinates(
        cls, coordinates: Sequence[Tuple[Coordinate, Coordinate]], **kwargs
    ) -> "Polygon":
        """Build a polygon from ``[(x, y), ...]`` pairs."""
        return cls((Point(x, y) for x, y in coordinates), **kwargs)

    @property
    def vertices(self) -> Tuple[Point, ...]:
        """The clockwise vertex ring (first vertex not repeated at the end)."""
        return self._vertices

    @property
    def edges(self) -> Tuple[Segment, ...]:
        """The directed clockwise edges ``v_i -> v_{i+1}`` (ring closed).

        Computed once and cached: the algorithms iterate a polygon's
        edges repeatedly and the polygon is immutable.
        """
        if not self._edges:
            ring = self._vertices
            n = len(ring)
            self._edges = tuple(
                Segment(ring[i], ring[(i + 1) % n]) for i in range(n)
            )
        return self._edges

    def edge_count(self) -> int:
        return len(self._vertices)

    def bounding_box(self) -> BoundingBox:
        return BoundingBox.around(self._vertices)

    def area(self) -> Coordinate:
        """The (positive) enclosed area, via the shoelace formula."""
        doubled = _twice_signed_area(list(self._vertices))
        return _half(-doubled) if doubled < 0 else _half(doubled)

    def signed_area(self) -> Coordinate:
        """Shoelace signed area: negative for this class's clockwise rings."""
        return _half(_twice_signed_area(list(self._vertices)))

    def is_simple(self) -> bool:
        """O(n²) check that no two non-adjacent edges intersect.

        Adjacent edges may share their common vertex only.  Edges touching
        anywhere else — including collinear overlap — make the polygon
        non-simple.  Decided by comparisons and products of the
        coordinates alone, so it never divides.
        """
        edges = edge_boxes([(vertex.x, vertex.y) for vertex in self._vertices])
        last = len(edges) - 1
        for i, first in enumerate(edges):
            for j in range(i + 1, last + 1):
                second = edges[j]
                if boxes_disjoint(first, second):
                    continue
                adjacent = j == i + 1 or (i == 0 and j == last)
                if _edges_conflict(first, second, adjacent):
                    return False
        return True

    def simplified(self) -> "Polygon":
        """This polygon with collinear vertices removed.

        Vertices whose two incident edges are collinear carry no
        geometric information (they often appear in hand-edited XML or
        in vectorised raster output); the simplified polygon is the same
        point set with the minimal vertex ring.  Returns ``self`` when
        nothing changes.
        """
        ring = list(self._vertices)
        changed = True
        while changed and len(ring) > 3:
            changed = False
            for i in range(len(ring)):
                before = ring[i - 1]
                vertex = ring[i]
                after = ring[(i + 1) % len(ring)]
                if orientation(before, vertex, after) == 0:
                    del ring[i]
                    changed = True
                    break
        if len(ring) == len(self._vertices):
            return self
        return Polygon(ring)

    def translated(self, dx: Coordinate, dy: Coordinate) -> "Polygon":
        return Polygon(v.translated(dx, dy) for v in self._vertices)

    def scaled(self, factor: Coordinate, origin: Point = None) -> "Polygon":
        if factor == 0:
            raise GeometryError("cannot scale a polygon by zero")
        ring = [v.scaled(factor, origin) for v in self._vertices]
        # Negative factors mirror the polygon, flipping its orientation.
        return Polygon(ring, ensure_clockwise=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return _canonical_rotation(self._vertices) == _canonical_rotation(
            other._vertices
        )

    def __hash__(self) -> int:
        return hash(_canonical_rotation(self._vertices))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        preview = ", ".join(f"({v.x}, {v.y})" for v in self._vertices[:4])
        suffix = ", ..." if len(self._vertices) > 4 else ""
        return f"Polygon([{preview}{suffix}], n={len(self._vertices)})"


def _normalised_ring(vertices: Iterable[Point]) -> List[Point]:
    """Drop consecutive duplicates and an explicit closing vertex."""
    ring = list(vertices)
    if ring and ring[0] == ring[-1]:
        ring.pop()
    cleaned: List[Point] = []
    for vertex in ring:
        if not cleaned or cleaned[-1] != vertex:
            cleaned.append(vertex)
    while len(cleaned) > 1 and cleaned[0] == cleaned[-1]:
        cleaned.pop()
    return cleaned


def _twice_signed_area(ring: List[Point]) -> Coordinate:
    """Twice the shoelace signed area (positive = counter-clockwise)."""
    total = 0
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total


def _canonical_rotation(ring: Tuple[Point, ...]) -> Tuple[Point, ...]:
    """Rotate the ring so that equality ignores the starting vertex."""
    pivot = min(range(len(ring)), key=lambda i: (ring[i].x, ring[i].y))
    return ring[pivot:] + ring[:pivot]


def _edges_conflict(first: EdgeBox, second: EdgeBox, adjacent: bool) -> bool:
    """True when two edges of one ring violate simplicity."""
    denom, t_num, u_num = crossing_numerators(first, second)
    if denom == 0:
        # Parallel: conflict only if they overlap collinearly in more than
        # the shared vertex.
        touching = {
            (x, y)
            for x, y, edge in (
                (first[0], first[1], second),
                (first[2], first[3], second),
                (second[0], second[1], first),
                (second[2], second[3], first),
            )
            if point_on_edge(x, y, edge)
        }
        return len(touching) > (1 if adjacent else 0)
    if not (0 <= t_num <= denom and 0 <= u_num <= denom):
        return False
    if adjacent:
        # Adjacent edges legitimately meet at their shared vertex, i.e. at
        # an endpoint of both.
        return not (
            (t_num == 0 or t_num == denom) and (u_num == 0 or u_num == denom)
        )
    return True
