"""Intersections between segments and axis-parallel grid lines.

The only intersections the paper's algorithms need are between polygon
edges and the four lines carrying ``mbb(b)`` — i.e. segment × vertical
line and segment × horizontal line.  Both are a single division, exact
under :class:`fractions.Fraction` coordinates.

:func:`split_segment_at_values` implements the edge-division step shared
by ``Compute-CDR`` and ``Compute-CDR%``: given an edge ``AB`` and the grid
values, it returns the sub-segments ``A O_1, O_1 O_2, ..., O_k B`` such
that every sub-segment lies in exactly one tile (Example 3 of the paper).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

from repro.geometry.point import Coordinate, Point
from repro.geometry.segment import Segment


def _exact_ratio(num: Coordinate, den: Coordinate) -> Coordinate:
    """``num / den`` — exact (Fraction) when both operands are exact."""
    if isinstance(num, float) or isinstance(den, float):
        return num / den
    return Fraction(num) / Fraction(den)


def segment_crosses_line(
    segment: Segment, *, x: Optional[Coordinate] = None, y: Optional[Coordinate] = None
) -> Optional[Point]:
    """Return the *interior* intersection of ``segment`` with a grid line.

    Exactly one of ``x`` (a vertical line) or ``y`` (a horizontal line)
    must be given.  The function returns the intersection point only when
    the line *properly crosses* the open segment — i.e. the endpoints lie
    strictly on opposite sides.  Touching at an endpoint or lying on the
    line returns ``None`` (Definition 3 of the paper: such lines "do not
    cross" the edge, and no split point is needed there).
    """
    if (x is None) == (y is None):
        raise ValueError("give exactly one of x= or y=")
    a, b = segment.start, segment.end
    if x is not None:
        lo, hi = (a, b) if a.x < b.x else (b, a)
        if not (lo.x < x < hi.x):
            return None
        t = _exact_ratio(x - a.x, b.x - a.x)
        return Point(x, a.y + t * (b.y - a.y))
    lo, hi = (a, b) if a.y < b.y else (b, a)
    if not (lo.y < y < hi.y):
        return None
    t = _exact_ratio(y - a.y, b.y - a.y)
    return Point(a.x + t * (b.x - a.x), y)


def split_segment_at_values(
    segment: Segment,
    x_values: Sequence[Coordinate],
    y_values: Sequence[Coordinate],
) -> List[Segment]:
    """Divide ``segment`` at its proper crossings with the given grid lines.

    Returns the list of consecutive sub-segments from ``segment.start`` to
    ``segment.end``; their union is the original segment and no sub-segment
    properly crosses any of the lines, hence each lies in exactly one
    (closed) tile of the grid.  A segment crossing none of the lines is
    returned unchanged as a one-element list.
    """
    crossings: List[Point] = []
    for x in x_values:
        point = segment_crosses_line(segment, x=x)
        if point is not None:
            crossings.append(point)
    for y in y_values:
        point = segment_crosses_line(segment, y=y)
        if point is not None:
            crossings.append(point)
    if not crossings:
        return [segment]

    # Order the crossing points along the segment's direction of travel.
    # Sorting by the dominant coordinate is exact (no parameter division).
    if abs_gt(segment.dx, segment.dy):
        key = lambda p: p.x  # noqa: E731 - tiny local key
        reverse = segment.dx < 0
    else:
        key = lambda p: p.y  # noqa: E731
        reverse = segment.dy < 0
    crossings.sort(key=key, reverse=reverse)

    pieces: List[Segment] = []
    previous = segment.start
    for point in crossings:
        if point != previous:
            pieces.append(Segment(previous, point))
            previous = point
    if previous != segment.end:
        pieces.append(Segment(previous, segment.end))
    return pieces


def abs_gt(a: Coordinate, b: Coordinate) -> bool:
    """``|a| > |b|`` without constructing new numbers of a wider type."""
    return (a if a >= 0 else -a) > (b if b >= 0 else -b)


def segments_intersection_parameter(
    p: Point, r: tuple, q: Point, s: tuple
) -> Optional[tuple]:
    """Intersection parameters of two parametric lines ``p + t·r`` and ``q + u·s``.

    Returns ``(t, u)`` or ``None`` for parallel lines.  ``r`` and ``s`` are
    ``(dx, dy)`` direction tuples.  Used by the repair pipeline, which
    needs the crossing points themselves to split self-intersecting
    rings; tests that only compare ``t`` and ``u`` with 0 and 1 use the
    division-free :func:`repro.geometry.predicates.crossing_numerators`.
    """
    denom = r[0] * s[1] - r[1] * s[0]
    if denom == 0:
        return None
    qp = (q.x - p.x, q.y - p.y)
    t = _exact_ratio(qp[0] * s[1] - qp[1] * s[0], denom)
    u = _exact_ratio(qp[0] * r[1] - qp[1] * r[0], denom)
    return (t, u)


def collect_segments(points: Iterable[Point]) -> List[Segment]:
    """Close a vertex ring into its list of directed edges.

    Consecutive duplicate vertices are skipped (they would form degenerate
    edges); the ring is closed from the last vertex back to the first.
    """
    ring = list(points)
    segments: List[Segment] = []
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        if a != b:
            segments.append(Segment(a, b))
    return segments
