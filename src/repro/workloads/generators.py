"""Seeded random workload generators.

All generators take an explicit :class:`random.Random` (or a seed) so
benchmarks and property tests are reproducible.  Two families:

* **star polygons** — float coordinates, arbitrary edge counts; the knob
  for the scaling benchmarks (Theorems 1 & 2 promise ``O(k_a + k_b)``);
* **rectilinear regions** — integer coordinates on a grid; exact under
  Fraction-free arithmetic and guaranteed non-overlapping, the workhorse
  for exactness-sensitive property tests.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple, Union

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.region import Region
from repro.workloads.scenarios import ring_with_hole

RandomLike = Union[random.Random, int, None]


def _rng(source: RandomLike) -> random.Random:
    if isinstance(source, random.Random):
        return source
    return random.Random(source)


def star_polygon(
    edge_count: int,
    *,
    center: Tuple[float, float] = (0.0, 0.0),
    radius: float = 1.0,
) -> Polygon:
    """A regular clockwise polygon with ``edge_count`` edges.

    Deterministic; the building block for scaling workloads where only
    the edge count matters.
    """
    if edge_count < 3:
        raise GeometryError("a polygon needs at least 3 edges")
    cx, cy = center
    points = []
    for i in range(edge_count):
        theta = -2.0 * math.pi * i / edge_count  # negative = clockwise
        points.append(Point(cx + radius * math.cos(theta), cy + radius * math.sin(theta)))
    return Polygon(points)


def random_star_polygon(
    rng: RandomLike,
    edge_count: int,
    *,
    center: Tuple[float, float] = (0.0, 0.0),
    min_radius: float = 0.2,
    max_radius: float = 1.0,
) -> Polygon:
    """A random clockwise polygon with ``edge_count`` edges, built by
    angular sort about ``center``.

    Vertices sit at strictly decreasing angles with random radii, so the
    polygon is always *simple* no matter the draw — important for
    property tests that must never generate invalid input.  For
    ``edge_count >= 4`` every angular gap stays below 180°, making the
    polygon star-shaped with ``center`` in its interior; triangles may
    (rarely) leave the centre just outside.
    """
    rng = _rng(rng)
    if edge_count < 3:
        raise GeometryError("a polygon needs at least 3 edges")
    if not (0 < min_radius <= max_radius):
        raise GeometryError("radii must satisfy 0 < min_radius <= max_radius")
    cx, cy = center
    # Random angular jitter that keeps angles strictly decreasing.
    slice_width = 2.0 * math.pi / edge_count
    points = []
    for i in range(edge_count):
        theta = -(i * slice_width + rng.uniform(0.1, 0.9) * slice_width)
        r = rng.uniform(min_radius, max_radius)
        points.append(Point(cx + r * math.cos(theta), cy + r * math.sin(theta)))
    # Angular order is clockwise whenever the centre is inside the hull;
    # for a triangle with an angular gap over 180° it can come out
    # counter-clockwise — repair rather than reject (still simple).
    return Polygon(points, ensure_clockwise=True)


def random_rectilinear_region(
    rng: RandomLike,
    rectangle_count: int,
    *,
    bounds: Tuple[int, int, int, int] = (-50, -50, 50, 50),
    cell: int = 4,
) -> Region:
    """A region of up to ``rectangle_count`` disjoint integer rectangles.

    Rectangles are placed in distinct cells of a ``cell``-sized grid over
    ``bounds``, so interiors can never overlap.  Coordinates are integers:
    with them every downstream computation (splits, areas, percentages)
    stays exact.
    """
    rng = _rng(rng)
    if rectangle_count < 1:
        raise GeometryError("need at least one rectangle")
    x0, y0, x1, y1 = bounds
    columns = (x1 - x0) // cell
    rows = (y1 - y0) // cell
    if columns * rows < rectangle_count:
        raise GeometryError(
            f"bounds {bounds} with cell={cell} fit only {columns * rows} rectangles"
        )
    cells = rng.sample(range(columns * rows), rectangle_count)
    polygons: List[Polygon] = []
    for index in cells:
        cx = x0 + (index % columns) * cell
        cy = y0 + (index // columns) * cell
        # Random sub-rectangle of the cell, at least 1 unit wide/tall,
        # leaving a 0-margin allowed: adjacent rectangles may share edges
        # (REG* permits that; interiors stay disjoint).
        left = cx + rng.randint(0, cell - 2)
        bottom = cy + rng.randint(0, cell - 2)
        right = rng.randint(left + 1, cx + cell - 1)
        top = rng.randint(bottom + 1, cy + cell - 1)
        polygons.append(
            Polygon.from_coordinates(
                [(left, bottom), (left, top), (right, top), (right, bottom)]
            )
        )
    return Region(polygons)


def random_multi_polygon_region(
    rng: RandomLike,
    polygon_count: int,
    edges_per_polygon: int,
    *,
    spacing: float = 3.0,
    jitter: bool = True,
) -> Region:
    """A disconnected region of ``polygon_count`` star polygons on a grid.

    Each polygon sits in its own grid cell (radius < spacing/2), so the
    region is a valid ``REG*`` member with disjoint components.  The main
    generator for the benchmark sweeps: total edge count is
    ``polygon_count * edges_per_polygon``.
    """
    rng = _rng(rng)
    if polygon_count < 1:
        raise GeometryError("need at least one polygon")
    side = math.ceil(math.sqrt(polygon_count))
    polygons: List[Polygon] = []
    for i in range(polygon_count):
        cx = (i % side) * spacing
        cy = (i // side) * spacing
        max_radius = spacing * 0.45
        if jitter:
            polygons.append(
                random_star_polygon(
                    rng,
                    edges_per_polygon,
                    center=(cx, cy),
                    min_radius=max_radius * 0.3,
                    max_radius=max_radius,
                )
            )
        else:
            polygons.append(
                star_polygon(edges_per_polygon, center=(cx, cy), radius=max_radius)
            )
    return Region(polygons)


def region_with_hole(
    outer: Tuple[int, int, int, int],
    hole: Tuple[int, int, int, int],
) -> Region:
    """A rectangle-with-hole region in the paper's two-polygon style.

    ``outer`` and ``hole`` are ``(x0, y0, x1, y1)`` with the hole strictly
    inside the outer rectangle.
    """
    x0, y0, x1, y1 = outer
    hx0, hy0, hx1, hy1 = hole
    if not (x0 < hx0 < hx1 < x1 and y0 < hy0 < hy1 < y1):
        raise GeometryError("hole must lie strictly inside the outer rectangle")
    return Region(ring_with_hole(x0, y0, x1, y1, hx0, hy0, hx1, hy1))


def degenerate_ring(
    rng: RandomLike,
    kind: str,
    *,
    edge_count: int = 8,
    center: Tuple[float, float] = (0.0, 0.0),
) -> List[Tuple[float, float]]:
    """A raw vertex ring exhibiting one named ingestion defect.

    Returns plain coordinate tuples (not a :class:`Polygon` — most kinds
    would fail its constructor) for feeding the repair pipeline and the
    robustness property tests.  Kinds:

    * ``"reversed"`` — a simple ring in counter-clockwise order;
    * ``"duplicated"`` — a valid ring with consecutive duplicate vertices
      and an explicit closing vertex;
    * ``"collinear"`` — a valid ring with extra vertices inserted on edge
      midpoints (collinear with their neighbours);
    * ``"bowtie"`` — a self-intersecting four-vertex ring (two crossing
      triangles);
    * ``"near-grid"`` — a simple ring whose vertices are jittered to land
      within ~1e-12 of the integer grid lines through ``center`` (the
      adversarial input for the exactness-fallback ladder).
    """
    rng = _rng(rng)
    cx, cy = center
    base = [
        (float(v.x), float(v.y))
        for v in random_star_polygon(rng, edge_count, center=center).vertices
    ]
    if kind == "reversed":
        return list(reversed(base))
    if kind == "duplicated":
        ring: List[Tuple[float, float]] = []
        for vertex in base:
            ring.append(vertex)
            if rng.random() < 0.5:
                ring.append(vertex)
        if len(ring) == len(base):  # no coin landed: still repeat a vertex
            ring.append(ring[-1])
        ring.append(ring[0])  # explicit closing vertex
        return ring
    if kind == "collinear":
        ring = []
        count = len(base)
        for i in range(count):
            x0, y0 = base[i]
            x1, y1 = base[(i + 1) % count]
            ring.append((x0, y0))
            ring.append(((x0 + x1) / 2.0, (y0 + y1) / 2.0))
        return ring
    if kind == "bowtie":
        # Asymmetric bowtie: nonzero signed area, one proper crossing.
        w = rng.uniform(1.0, 3.0)
        return [
            (cx, cy),
            (cx + w, cy + w),
            (cx + w, cy),
            (cx, cy + 2.0 * w),
        ]
    if kind == "near-grid":
        # A large star keeps rounded vertices distinct; the jitter puts
        # every coordinate within 1e-12 of an integer grid line.
        wide = random_star_polygon(
            rng, edge_count, center=center, min_radius=4.0, max_radius=9.0
        )
        return [
            (
                float(round(v.x)) + rng.uniform(-1e-12, 1e-12),
                float(round(v.y)) + rng.uniform(-1e-12, 1e-12),
            )
            for v in wide.vertices
        ]
    raise ValueError(f"unknown degenerate ring kind {kind!r}")


DEGENERATE_KINDS = (
    "reversed", "duplicated", "collinear", "bowtie", "near-grid",
)


def random_region_pair(
    rng: RandomLike,
    *,
    rectangles: int = 6,
    overlap: bool = True,
) -> Tuple[Region, Region]:
    """Two random rectilinear regions for relation-level property tests.

    With ``overlap=True`` both regions are drawn over the same bounds so
    all nine tiles occur; with ``overlap=False`` the second is translated
    far east, biasing toward single-tile relations.
    """
    rng = _rng(rng)
    primary = random_rectilinear_region(rng, rectangles)
    reference = random_rectilinear_region(rng, rectangles)
    if not overlap:
        reference = reference.translated(500, 0)
    return primary, reference
