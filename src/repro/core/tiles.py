"""The nine direction tiles of a reference bounding box (Fig. 1a).

The four lines carrying ``mbb(b)`` divide the plane into nine closed
tiles.  The paper's canonical writing order for relation tiles is
``B, S, SW, W, NW, N, NE, E, SE`` (Section 2: "we always write B:S:W
instead of W:B:S"); :class:`Tile`'s enum order encodes it, so sorting
tiles by enum value yields the paper's spelling.

Tiles are *closed*: each includes the parts of the grid lines that bound
it, so a point on a grid line belongs to several tiles at once.
:func:`tiles_of_point` returns them all; :func:`tile_of_point` resolves
the ambiguity with an explicit, documented preference only when a caller
really needs a single tile.
"""

from __future__ import annotations

import enum
from typing import FrozenSet, List, Optional, Tuple

from repro.geometry.bbox import BoundingBox
from repro.geometry.clipping import HalfPlane
from repro.geometry.point import Point


class Tile(enum.IntEnum):
    """One of the nine direction tiles, in the paper's canonical order."""

    B = 0
    S = 1
    SW = 2
    W = 3
    NW = 4
    N = 5
    NE = 6
    E = 7
    SE = 8

    def __str__(self) -> str:
        return self.name

    @property
    def column(self) -> int:
        """Horizontal band: -1 = west of the box, 0 = box span, +1 = east."""
        return _COLUMN[self]

    @property
    def row(self) -> int:
        """Vertical band: -1 = south of the box, 0 = box span, +1 = north."""
        return _ROW[self]

    @classmethod
    def from_bands(cls, column: int, row: int) -> "Tile":
        """The tile at horizontal band ``column`` and vertical band ``row``."""
        return _BY_BANDS[(column, row)]


_COLUMN = {
    Tile.NW: -1, Tile.W: -1, Tile.SW: -1,
    Tile.N: 0, Tile.B: 0, Tile.S: 0,
    Tile.NE: 1, Tile.E: 1, Tile.SE: 1,
}
_ROW = {
    Tile.NW: 1, Tile.N: 1, Tile.NE: 1,
    Tile.W: 0, Tile.B: 0, Tile.E: 0,
    Tile.SW: -1, Tile.S: -1, Tile.SE: -1,
}
_BY_BANDS = {(_COLUMN[t], _ROW[t]): t for t in Tile}

#: The paper's canonical order, as a tuple (B, S, SW, W, NW, N, NE, E, SE).
CANONICAL_ORDER: Tuple[Tile, ...] = tuple(sorted(Tile))


def single_tile_prune(
    primary_box: BoundingBox, reference_box: BoundingBox
) -> Optional[Tile]:
    """The single tile containing all of the primary, or ``None``.

    Exact box arithmetic over the native coordinate types (``int`` /
    ``Fraction`` stay rational): when ``mbb(primary)`` lies *strictly*
    inside one non-``B`` tile of ``mbb(reference)``, every point of the
    primary lies in that tile's interior, so ``primary R reference``
    is the single-tile relation ``R = tile`` and the percentage matrix
    is 100 % in that cell.  All comparisons are strict — a primary box
    that merely touches a grid line of the reference box (boundary
    contact) is *not* pruned, because tiles are closed and the touching
    points belong to several tiles at once.

    The exact and sweep engines answer a pruned pair from the boxes;
    ``SpatialIndex.tile_candidates`` lists these pairs.  ``B`` never prunes.
    """
    if primary_box.max_x < reference_box.min_x:
        column = -1
    elif primary_box.min_x > reference_box.max_x:
        column = 1
    elif (
        reference_box.min_x < primary_box.min_x
        and primary_box.max_x < reference_box.max_x
    ):
        column = 0
    else:
        return None  # straddles or touches a vertical grid line
    if primary_box.max_y < reference_box.min_y:
        row = -1
    elif primary_box.min_y > reference_box.max_y:
        row = 1
    elif (
        reference_box.min_y < primary_box.min_y
        and primary_box.max_y < reference_box.max_y
    ):
        row = 0
    else:
        return None  # straddles or touches a horizontal grid line
    if column == 0 and row == 0:
        return None  # strictly inside B: not pruned (see docstring)
    return Tile.from_bands(column, row)


def _bands_of_point(point: Point, box: BoundingBox) -> Tuple[List[int], List[int]]:
    """All (column, row) bands whose closed tile contains ``point``."""
    columns: List[int] = []
    if point.x <= box.min_x:
        columns.append(-1)
    if box.min_x <= point.x <= box.max_x:
        columns.append(0)
    if point.x >= box.max_x:
        columns.append(1)
    rows: List[int] = []
    if point.y <= box.min_y:
        rows.append(-1)
    if box.min_y <= point.y <= box.max_y:
        rows.append(0)
    if point.y >= box.max_y:
        rows.append(1)
    return columns, rows


def tiles_of_point(point: Point, box: BoundingBox) -> FrozenSet[Tile]:
    """All closed tiles of ``box`` containing ``point``.

    A point strictly inside a tile yields a singleton; a point on a grid
    line yields two tiles; a corner of the box yields four.
    """
    columns, rows = _bands_of_point(point, box)
    return frozenset(
        Tile.from_bands(column, row) for column in columns for row in rows
    )


def tile_of_point(
    point: Point, box: BoundingBox, *, prefer: Optional[Tile] = None
) -> Tile:
    """A single tile of ``box`` containing ``point``.

    For points on grid lines, ``prefer`` (when given and applicable) wins;
    otherwise ties break toward the *central* bands, matching the intuition
    that the box "owns" its boundary.  The core algorithms never rely on
    this tie-break — they disambiguate boundary edges by interior side (see
    :mod:`repro.core.split`) — but diagnostic tooling wants a total answer.
    """
    candidates = tiles_of_point(point, box)
    if prefer is not None and prefer in candidates:
        return prefer
    return min(candidates, key=lambda t: (abs(t.column) + abs(t.row), t))


def tile_halfplanes(tile: Tile, box: BoundingBox) -> List[HalfPlane]:
    """The half-planes whose intersection is the closed ``tile`` of ``box``.

    Outer tiles are unbounded and therefore need fewer than four
    half-planes; this is how the clipping baseline handles "unbounded
    boxes" as the paper calls them.
    """
    planes: List[HalfPlane] = []
    if tile.column == -1:
        planes.append(("x", box.min_x, True))
    elif tile.column == 0:
        planes.append(("x", box.min_x, False))
        planes.append(("x", box.max_x, True))
    else:
        planes.append(("x", box.max_x, False))
    if tile.row == -1:
        planes.append(("y", box.min_y, True))
    elif tile.row == 0:
        planes.append(("y", box.min_y, False))
        planes.append(("y", box.max_y, True))
    else:
        planes.append(("y", box.max_y, False))
    return planes
