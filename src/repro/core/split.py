"""Edge division and tile classification (Section 3.1, Example 3).

Given the primary region's polygons and ``mbb(b)``, every edge is divided
at its proper crossings with the four grid lines so that each resulting
sub-edge lies in exactly one tile; the sub-edge's tile is the tile
containing its midpoint.  Compute-CDR% sums its trapezoids over these
sub-edges, and the clipping comparison counts them (E3/E4's
introduced-edge counts).  Compute-CDR itself never materialises them: it
walks each edge through the bands of the grid
(:mod:`repro.core.compute`), which gives the same tiles; the
differential tests in ``tests/core/test_compute_walk.py`` check that
against :func:`iter_divided_edges`.

**Boundary disambiguation.**  The paper picks "the tile where the middle
point lies", which is ambiguous when a sub-edge lies *on* a grid line
(closed tiles overlap there).  Definition 1 partitions the primary region
into full-dimensional parts, so the correct tile is the one on the side
of the edge where the region's material lies — for a clockwise polygon,
the *interior side* of the edge.  :func:`classify_segment` implements
this: midpoints strictly inside a tile are classified directly, and
midpoints on a grid line use the edge's inward normal to decide.  The
ablation test ``tests/core/test_split.py`` shows the naive tie-break
mis-reports relations for grid-aligned edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.geometry.bbox import BoundingBox
from repro.geometry.intersect import split_segment_at_values
from repro.geometry.region import Region
from repro.geometry.segment import Segment
from repro.core.tiles import Tile, _bands_of_point


@dataclass(frozen=True)
class ClassifiedEdge:
    """A sub-edge together with the single tile it lies in."""

    segment: Segment
    tile: Tile
    polygon_index: int


def classify_segment(segment: Segment, box: BoundingBox) -> Tile:
    """The tile of ``box`` containing ``segment``.

    ``segment`` must not properly cross any grid line of ``box`` (i.e. it
    is an output of the division step).  Midpoints on a grid line are
    resolved to the tile on the segment's interior side (clockwise
    convention).

    The midpoint never materialises: the doubled midpoint coordinate
    ``start + end`` is compared against the doubled grid lines, which is
    both allocation-free and exact for integer coordinates (no ``1/2``
    fractions appear).
    """
    start, end = segment.start, segment.end
    column = _band_of_doubled(
        start.x + end.x, 2 * box.min_x, 2 * box.max_x, end.y - start.y
    )
    row = _band_of_doubled(
        start.y + end.y, 2 * box.min_y, 2 * box.max_y, start.x - end.x
    )
    return Tile.from_bands(column, row)


def _band_of_doubled(mid2, lo2, hi2, inward) -> int:
    """Band of a (doubled) midpoint coordinate, tie-broken by the inward
    normal component ``inward`` of the (clockwise) segment.

    After edge division a midpoint lies on a grid line only when the
    whole segment does, in which case ``inward`` is non-zero and points
    to the polygon's material.
    """
    if mid2 < lo2:
        return -1
    if mid2 > hi2:
        return 1
    if mid2 == lo2:
        # On the low line: material east/north of it belongs to band 0.
        if inward > 0:
            return 0
        if inward < 0:
            return -1
        return 0  # pragma: no cover - defensive: degenerate float noise
    if mid2 == hi2:
        if inward > 0:
            return 1
        if inward < 0:
            return 0
        return 0  # pragma: no cover - defensive
    return 0


def classify_segment_naive(segment: Segment, box: BoundingBox) -> Tile:
    """Tie-break boundary midpoints toward the central bands instead.

    This is the literal "middle point" rule with an arbitrary (but fixed)
    preference.  Kept for the ablation benchmark; do not use it for
    computation — it misclassifies regions whose edges lie on grid lines.
    """
    midpoint = segment.midpoint
    columns, rows = _bands_of_point(midpoint, box)
    column = min(columns, key=abs)
    row = min(rows, key=abs)
    return Tile.from_bands(column, row)


def iter_divided_edges(
    region: Region, box: BoundingBox, *, naive: bool = False
) -> Iterator[ClassifiedEdge]:
    """Yield every classified sub-edge of ``region`` w.r.t. ``box``.

    This is a single pass over the region's edges: each edge is divided at
    its (at most four) grid-line crossings and each piece classified in
    O(1) — the source of Compute-CDR%'s ``O(k_a + k_b)`` bound
    (Theorem 2).
    """
    classify = classify_segment_naive if naive else classify_segment
    min_x, max_x = box.min_x, box.max_x
    min_y, max_y = box.min_y, box.max_y
    x_values = (min_x, max_x)
    y_values = (min_y, max_y)
    for index, polygon in enumerate(region.polygons):
        for edge in polygon.edges:
            start, end = edge.start, edge.end
            # Cheap rejection: an edge whose span straddles no grid line
            # needs no division — the overwhelmingly common case.
            if start.x < end.x:
                lo_x, hi_x = start.x, end.x
            else:
                lo_x, hi_x = end.x, start.x
            if start.y < end.y:
                lo_y, hi_y = start.y, end.y
            else:
                lo_y, hi_y = end.y, start.y
            if not (
                lo_x < min_x < hi_x
                or lo_x < max_x < hi_x
                or lo_y < min_y < hi_y
                or lo_y < max_y < hi_y
            ):
                yield ClassifiedEdge(edge, classify(edge, box), index)
                continue
            for piece in split_segment_at_values(edge, x_values, y_values):
                yield ClassifiedEdge(piece, classify(piece, box), index)


def divide_region_edges(
    region: Region, box: BoundingBox, *, naive: bool = False
) -> List[ClassifiedEdge]:
    """Materialised form of :func:`iter_divided_edges`."""
    return list(iter_divided_edges(region, box, naive=naive))
