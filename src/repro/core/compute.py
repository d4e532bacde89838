"""Algorithm **Compute-CDR** (Fig. 5 of the paper).

Computes the cardinal direction relation ``R`` with ``a R b`` for two
regions ``a, b ∈ REG*`` given as sets of clockwise polygons, in a single
pass over the edges — ``O(k_a + k_b)`` time (Theorem 1).

The algorithm:

1. compute ``mbb(b)`` from the reference region's polygons;
2. walk every edge of ``a`` through the grid of ``mbb(b)``, keeping the
   (column, row) band of the piece it is in: the paper divides the edge
   at its proper crossings with the four grid lines and takes each
   piece's tile from its midpoint, and the bands between two
   consecutive crossings are that tile (ALGORITHMS.md §2);
3. a piece lying on a grid line takes the side of the edge's inward
   normal ``(dy, −dx)``, where the clockwise ring's material lies;
4. additionally record ``B`` when the centre of ``mbb(b)`` lies inside a
   polygon of ``a`` — the one case with no witnessing edge, which can only
   happen for the central tile because the eight outer tiles are
   unbounded and a bounded polygon covering part of them always has
   boundary there.  The test runs only when ``mbb(a)`` meets the open
   ``mbb(b)``, which holds the centre: otherwise no polygon of ``a`` can.

No crossing point is formed.  Each vertex gets a position code per axis
from comparisons with the two grid lines, and the codes of an edge's
ends give the bands it visits.  Only an edge that crosses lines of both
axes needs more: its crossings are ordered by comparing
``|g − s| · |d_other|`` products, and a crossing through a grid corner
moves both bands at once.  The centre test runs in doubled coordinates,
so no half is formed either.  Comparisons are exact in every numeric
type; the products and sums of those two steps run on ``Fraction``
values when an operand is a float, so the relation is exact for the
polygon whose vertices are the given binary floats.

The answer is the interned relation of the ORed tile bitmask.  Nothing
here prunes, so this stays the exact engine's oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple, Union, cast

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Coordinate
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import edge_boxes, point_strictly_inside
from repro.geometry.region import Region
from repro.core.relation import RELATIONS_BY_MASK, CardinalDirection
from repro.core.tiles import Tile

RegionLike = Union[Region, Polygon]

#: A coordinate on which sums and products are exact.
Exact = Union[int, Fraction]


def _as_region(value: RegionLike) -> Region:
    if isinstance(value, Region):
        return value
    if isinstance(value, Polygon):
        return Region.from_polygon(value)
    raise TypeError(f"expected Region or Polygon, got {type(value).__name__}")


def compute_cdr(primary: RegionLike, reference: RegionLike) -> CardinalDirection:
    """The cardinal direction relation ``R`` such that ``primary R reference``.

    ``primary`` plays the paper's role of region ``a`` (its exact shape is
    used); ``reference`` plays region ``b`` (only its mbb matters).  Both
    accept a :class:`~repro.geometry.region.Region` or a bare
    :class:`~repro.geometry.polygon.Polygon`.

    >>> from repro.geometry import Polygon
    >>> b = Polygon.from_coordinates([(0, 0), (0, 1), (1, 1), (1, 0)])
    >>> a = Polygon.from_coordinates([(0.2, -2), (0.2, -1), (0.8, -1), (0.8, -2)])
    >>> str(compute_cdr(a, b))
    'S'
    """
    primary_region = _as_region(primary)
    box = _as_region(reference).bounding_box()
    return compute_cdr_against_box(primary_region, box)


# A vertex's *position code* on one axis, against that axis's grid lines
# ``low < high``: 0 below ``low``, 1 on it, 2 strictly between, 3 on
# ``high``, 4 above it.  Even codes are the open bands -1, 0, +1 (band
# index ``code >> 1``, i.e. 0, 1, 2); odd codes are the lines.


def _bands_visited(start: int, end: int) -> int:
    """The bands an edge from position code ``start`` to ``end`` has pieces
    in, as a 3-bit set (bit ``i`` = band index ``i``).

    These are the even codes between the two, ends included; every odd
    code strictly between is a proper crossing.  0 when the edge lies on
    a line (``start == end``, odd), where the inward normal decides.
    """
    if start == end and start & 1:
        return 0
    low, high = min(start, end), max(start, end)
    return sum(1 << (code >> 1) for code in range(low, high + 1) if not code & 1)


#: :func:`_bands_visited` at ``start * 5 + end``.
_VISITED: Tuple[int, ...] = tuple(
    _bands_visited(start, end) for start in range(5) for end in range(5)
)

#: ``1 << tile`` at ``column * 3 + row`` (band indices 0, 1, 2).
_TILE_BITS: Tuple[int, ...] = tuple(
    1 << Tile.from_bands(column - 1, row - 1) for column in range(3) for row in range(3)
)


def _tiles_of_bands(columns: int, rows: int) -> int:
    """The tile mask of an edge visiting band sets ``columns`` × ``rows``.

    Exact when one axis visits a single band: the other axis's bands are
    then all crossed within that one.  0 when both axes cross a line,
    where the order of the crossings decides (:func:`_staircase`).
    """
    if columns & (columns - 1) and rows & (rows - 1):
        return 0
    mask = 0
    for column in range(3):
        for row in range(3):
            if columns >> column & 1 and rows >> row & 1:
                mask |= _TILE_BITS[column * 3 + row]
    return mask


#: :func:`_tiles_of_bands` at ``columns << 3 | rows``.
_TILES: Tuple[int, ...] = tuple(
    _tiles_of_bands(columns, rows) for columns in range(8) for rows in range(8)
)

_B_BIT = 1 << Tile.B


def _exact(value: Coordinate) -> Exact:
    """``value`` itself, or the ``Fraction`` equal to it when it is a float."""
    return Fraction(value) if isinstance(value, float) else value


def compute_cdr_against_box(
    primary: Region, box: BoundingBox
) -> CardinalDirection:
    """Compute-CDR when the reference mbb is already known.

    Useful when many primary regions are compared against one reference
    (e.g. the CARDIRECT relation store), saving the repeated mbb scan.
    Step 4's centre test runs only when no piece set bit ``B`` and
    ``mbb(primary)`` meets the open box; the result is interned.
    """
    x0, x1, y0, y1 = box.min_x, box.max_x, box.min_y, box.max_y
    visited, tiles_of = _VISITED, _TILES
    mask = 0
    for polygon in primary.polygons:
        ring = polygon.vertices
        last = ring[-1]
        sx, sy = last.x, last.y
        ps = 0 if sx < x0 else 1 if sx == x0 else 2 if sx < x1 else 3 if sx == x1 else 4
        qs = 0 if sy < y0 else 1 if sy == y0 else 2 if sy < y1 else 3 if sy == y1 else 4
        for vertex in ring:
            ex, ey = vertex.x, vertex.y
            pe = 0 if ex < x0 else 1 if ex == x0 else 2 if ex < x1 else 3 if ex == x1 else 4
            qe = 0 if ey < y0 else 1 if ey == y0 else 2 if ey < y1 else 3 if ey == y1 else 4
            # On a line, the side of the inward normal (dy, -dx).
            columns = visited[ps * 5 + pe] or 1 << ((ps >> 1) + (ey > sy))
            rows = visited[qs * 5 + qe] or 1 << ((qs >> 1) + (ex < sx))
            mask |= tiles_of[columns << 3 | rows] or _staircase(sx, sy, ex, ey, ps, pe, qs, qe, box)
            sx, sy, ps, qs = ex, ey, pe, qe
    if not mask & _B_BIT and _holds_centre(primary, box):
        mask |= _B_BIT
    return cast(CardinalDirection, RELATIONS_BY_MASK[mask])  # mask >= 1


def _staircase(
    sx: Coordinate,
    sy: Coordinate,
    ex: Coordinate,
    ey: Coordinate,
    ps: int,
    pe: int,
    qs: int,
    qe: int,
    box: BoundingBox,
) -> int:
    """The tiles of an edge that properly crosses lines of both axes.

    The edge leaves its start in the bands its position codes give and
    steps one band per crossing, column by the sign of ``dx`` and row by
    the sign of ``dy``.  The next x-crossing comes first when its
    parameter ``|gx − sx| / |dx|`` is the smaller, compared as
    ``|gx − sx| · |dy|`` against ``|gy − sy| · |dx|``; equal parameters
    are a crossing through a grid corner, which moves both bands at once
    and leaves no piece in the diagonal tiles beside it.
    """
    x_lines, y_lines = (box.min_x, box.max_x), (box.min_y, box.max_y)
    step_x = 1 if pe > ps else -1
    step_y = 1 if qe > qs else -1
    column, end_column = (ps + (step_x > 0)) >> 1, (pe + (step_x < 0)) >> 1
    row, end_row = (qs + (step_y > 0)) >> 1, (qe + (step_y < 0)) >> 1
    x_start, y_start = _exact(sx), _exact(sy)
    x_span, y_span = abs(_exact(ex) - x_start), abs(_exact(ey) - y_start)
    mask = _TILE_BITS[column * 3 + row]
    while column != end_column or row != end_row:
        if column == end_column:
            order = 1
        elif row == end_row:
            order = -1
        else:
            # Band index c steps up across line index c, down across c - 1.
            x_gap = abs(_exact(x_lines[column - (step_x < 0)]) - x_start) * y_span
            y_gap = abs(_exact(y_lines[row - (step_y < 0)]) - y_start) * x_span
            order = (x_gap > y_gap) - (x_gap < y_gap)
        if order <= 0:
            column += step_x
        if order >= 0:
            row += step_y
        mask |= _TILE_BITS[column * 3 + row]
    return mask


def _holds_centre(primary: Region, box: BoundingBox) -> bool:
    """Whether a polygon of ``primary`` holds the centre of ``box``.

    The centre lies strictly inside the box, so a primary whose mbb does
    not meet the open box misses it: comparisons alone settle most pairs.
    The rest run in doubled coordinates: the centre is ``(min + max)``
    per axis and each vertex counts twice, so no half is formed.
    Compute-CDR asks only when no edge piece lies in ``B``; then no edge
    meets the open central tile and the centre lies on no boundary, so
    the strict even–odd test gives the closed test's answer
    (ALGORITHMS.md §2).
    """
    area = primary.bounding_box()
    if not (
        area.min_x < box.max_x
        and box.min_x < area.max_x
        and area.min_y < box.max_y
        and box.min_y < area.max_y
    ):
        return False
    cx = _exact(box.min_x) + _exact(box.max_x)
    cy = _exact(box.min_y) + _exact(box.max_y)
    return any(
        point_strictly_inside(
            cx,
            cy,
            edge_boxes([(2 * _exact(v.x), 2 * _exact(v.y)) for v in polygon.vertices]),
        )
        for polygon in primary.polygons
    )
