"""Composite regions — the paper's class ``REG*``.

A :class:`Region` is a non-empty set of simple clockwise polygons.  This
representation covers everything Section 3 of the paper allows:

* connected regions (``REG``): a single polygon;
* disconnected regions: several disjoint polygons (Fig. 2, region ``a``);
* regions with holes: two (or more) polygons sharing boundary edges so
  that their union is an annulus-like shape (Fig. 2, region ``b`` —
  polygons ``(O2 O3 O4 P3 P2 P1)`` and ``(O1 O2 P1 P4 P3 O4)``).

The class does not attempt to verify global properties such as "polygon
interiors are pairwise disjoint" — that is O(n²) and the data sources of
the paper (segmentation software, user annotation) guarantee it.  What it
does guarantee is that a region is non-empty and every member polygon is
individually valid, which is all the algorithms require.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import GeometryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Coordinate
from repro.geometry.polygon import Polygon
from repro.geometry.segment import Segment


class Region:
    """A region of class ``REG*``: a non-empty tuple of simple polygons."""

    __slots__ = ("_polygons", "_box")

    def __init__(self, polygons: Iterable[Polygon]) -> None:
        items = tuple(polygons)
        if not items:
            raise GeometryError("a region must contain at least one polygon")
        for item in items:
            if not isinstance(item, Polygon):
                raise TypeError(f"expected Polygon, got {type(item).__name__}")
        self._polygons = items
        self._box: Optional[BoundingBox] = None

    @classmethod
    def from_polygon(cls, polygon: Polygon) -> "Region":
        """A connected region (class ``REG``) from a single polygon."""
        return cls((polygon,))

    @classmethod
    def from_coordinates(
        cls,
        rings: Sequence[Sequence[Tuple[Coordinate, Coordinate]]],
        *,
        ensure_clockwise: bool = False,
    ) -> "Region":
        """Build a region from ``[[(x, y), ...], ...]`` vertex rings."""
        return cls(
            Polygon.from_coordinates(ring, ensure_clockwise=ensure_clockwise)
            for ring in rings
        )

    @property
    def polygons(self) -> Tuple[Polygon, ...]:
        return self._polygons

    def edges(self) -> List[Segment]:
        """All directed edges of all member polygons, in storage order."""
        out: List[Segment] = []
        for polygon in self._polygons:
            out.extend(polygon.edges)
        return out

    def edge_count(self) -> int:
        """Total edge count ``k`` — the paper's complexity parameter."""
        return sum(polygon.edge_count() for polygon in self._polygons)

    def bounding_box(self) -> BoundingBox:
        """``mbb(region)`` — the minimum bounding box of the whole region.

        Scanned once and kept: a region never changes after construction.
        """
        box = self._box
        if box is None:
            box = self._polygons[0].bounding_box()
            for polygon in self._polygons[1:]:
                box = box.union(polygon.bounding_box())
            self._box = box
        return box

    def area(self) -> Coordinate:
        """Total area, assuming the polygons have disjoint interiors.

        This is exactly the representation of Section 3: composite regions
        (including hole-carrying ones, via polygons that share boundary
        edges) are unions of polygons with pairwise disjoint interiors, so
        the areas simply add.
        """
        return sum(polygon.area() for polygon in self._polygons)

    def is_connected_candidate(self) -> bool:
        """True when the region consists of a single polygon (class ``REG``)."""
        return len(self._polygons) == 1

    def translated(self, dx: Coordinate, dy: Coordinate) -> "Region":
        return Region(p.translated(dx, dy) for p in self._polygons)

    def scaled(self, factor: Coordinate, origin=None) -> "Region":
        return Region(p.scaled(factor, origin) for p in self._polygons)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Region):
            return NotImplemented
        return frozenset(self._polygons) == frozenset(other._polygons)

    def __hash__(self) -> int:
        return hash(frozenset(self._polygons))

    def __len__(self) -> int:
        return len(self._polygons)

    def __iter__(self):
        return iter(self._polygons)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Region({len(self._polygons)} polygons, {self.edge_count()} edges)"
