"""Axis-aligned minimum bounding boxes (the paper's *mbb*).

The minimum bounding box of a region ``b`` is the rectangle formed by the
four lines ``x = inf_x(b)``, ``x = sup_x(b)``, ``y = inf_y(b)`` and
``y = sup_y(b)``.  Its four carrier lines partition the plane into the nine
direction tiles of Section 2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import GeometryError
from repro.geometry.point import Coordinate, Point


@dataclass(frozen=True)
class BoundingBox:
    """A non-degenerate axis-aligned rectangle ``[min_x, max_x] × [min_y, max_y]``.

    Degenerate boxes (zero width or height) are rejected because the
    regions of the paper's class ``REG*`` always have full-dimensional
    extent, so their bounding boxes have positive width and height.
    """

    min_x: Coordinate
    min_y: Coordinate
    max_x: Coordinate
    max_y: Coordinate

    def __post_init__(self) -> None:
        if not (self.min_x < self.max_x and self.min_y < self.max_y):
            raise GeometryError(
                "bounding box must have positive width and height, got "
                f"x:[{self.min_x}, {self.max_x}] y:[{self.min_y}, {self.max_y}]"
            )

    @classmethod
    def around(cls, points: Iterable[Point]) -> "BoundingBox":
        """The smallest box containing every point of ``points``."""
        points = list(points)
        if not points:
            raise GeometryError("cannot bound an empty set of points")
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        return cls(min(xs), min(ys), max(xs), max(ys))

    @property
    def width(self) -> Coordinate:
        return self.max_x - self.min_x

    @property
    def height(self) -> Coordinate:
        return self.max_y - self.min_y

    def area(self) -> Coordinate:
        return self.width * self.height

    def corners(self) -> tuple:
        """The four corners in clockwise order starting at the lower-left."""
        return (
            Point(self.min_x, self.min_y),
            Point(self.min_x, self.max_y),
            Point(self.max_x, self.max_y),
            Point(self.max_x, self.min_y),
        )

    def contains_box(self, other: "BoundingBox") -> bool:
        """True when ``other`` lies entirely inside this (closed) box."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and other.max_x <= self.max_x
            and other.max_y <= self.max_y
        )

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """The smallest box containing both boxes."""
        return BoundingBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def intersects(self, other: "BoundingBox") -> bool:
        """True when the closed boxes share at least one point."""
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
        )

    def translated(self, dx: Coordinate, dy: Coordinate) -> "BoundingBox":
        return BoundingBox(
            self.min_x + dx, self.min_y + dy, self.max_x + dx, self.max_y + dy
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BoundingBox(x=[{self.min_x}, {self.max_x}], "
            f"y=[{self.min_y}, {self.max_y}])"
        )
