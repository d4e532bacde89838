"""The qualitative-placement table.

Everything the reasoning layer needs reduces to questions about *one box
against one grid*.  Fix a reference grid with lines ``g_lo < g_hi`` per
axis (we use the concrete integers 0 and 10).  A primary box is
described per axis by its endpoints ``p1 < p2``.  Only the *weak order*
of ``p1, p2`` against ``g_lo, g_hi`` matters for any qualitative
question, and there are exactly 13 such orders per axis (each endpoint is
before / at / between / at / after the grid lines, minus the combinations
violating ``p1 < p2``).  We enumerate them by instantiating concrete
integer coordinates — every qualitative predicate then becomes a plain
numeric comparison, with no symbolic case analysis to get wrong.

Soundness of the whole approach rests on one fact about ``REG*``: a
region may be an arbitrary finite union of full-dimensional pieces, so
*any* placement of material into (closed) grid cells that is compatible
with the region's bounding box is realisable by small rectangles.  Hence
the *realisability lemma*: the relations a region with a given box can
have against a grid are exactly the sets of cells that

* each meet the box full-dimensionally (*reachability*), and
* let the region touch all four sides of its box (*attainment*: for each
  side, one of the cells has a band reaching that side).

:func:`placement_table` applies the lemma once per placement, for the box
against the reference grid and for the reference square against the
box's own grid, and keeps which reference tiles each tile of the box's
grid overlaps.  Inverse, composition and the witness builders read it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from repro.core.tiles import Tile
from repro.geometry.point import Coordinate

#: Concrete coordinates for the reference grid lines on both axes.
GRID_LO: int = 0
GRID_HI: int = 10

NEG_INF = float("-inf")
POS_INF = float("inf")


def grid_bands(
    g_lo: Coordinate, g_hi: Coordinate
) -> Tuple[Tuple[Coordinate, Coordinate], ...]:
    """The ``(lo, hi)`` bounds of a grid's three bands on one axis, indexed
    by band + 1: below ``g_lo`` (unbounded), between, above ``g_hi``
    (unbounded)."""
    return (NEG_INF, g_lo), (g_lo, g_hi), (g_hi, POS_INF)


class AxisPlacement(NamedTuple):
    """Concrete endpoints ``p1 < p2`` of a box against the (0, 10) grid."""

    p1: int
    p2: int


def _zone_representatives() -> Tuple[Tuple[int, int], ...]:
    """Representative coordinates for the five zones around the grid lines."""
    return (
        (-6, -3),             # zone 0: strictly below g_lo
        (GRID_LO, GRID_LO),   # zone 1: exactly g_lo
        (4, 6),               # zone 2: strictly between
        (GRID_HI, GRID_HI),   # zone 3: exactly g_hi
        (13, 16),             # zone 4: strictly above g_hi
    )


@lru_cache(maxsize=1)
def axis_placements() -> Tuple[AxisPlacement, ...]:
    """All 13 qualitative placements of ``p1 < p2`` against the grid.

    Enumerate zone pairs ``z1 <= z2``; the two point zones (exactly on a
    grid line) cannot host both endpoints.  Within one open zone the two
    representative values keep ``p1 < p2``.
    """
    zones = _zone_representatives()
    placements: List[AxisPlacement] = []
    for z1 in range(5):
        for z2 in range(z1, 5):
            if z1 == z2:
                first, second = zones[z1]
                if first == second:  # a point zone cannot hold two endpoints
                    continue
                placements.append(AxisPlacement(first, second))
            else:
                placements.append(AxisPlacement(zones[z1][0], zones[z2][1]))
    return tuple(placements)


class BoxPlacement(NamedTuple):
    """A box against the reference grid on both axes."""

    x: AxisPlacement
    y: AxisPlacement


def box_placements() -> Iterable[BoxPlacement]:
    """All 169 qualitative placements of a box against the grid."""
    for x, y in product(axis_placements(), axis_placements()):
        yield BoxPlacement(x, y)


def _axis_masks(lo, hi, g_lo, g_hi) -> Tuple[int, int, int]:
    """The bands (bit band + 1) of the grid ``(g_lo, g_hi)`` that the span
    ``(lo, hi)`` reaches full-dimensionally, and those of them reaching
    down to ``lo`` and up to ``hi``."""
    reached = low = high = 0
    for index, (band_lo, band_hi) in enumerate(grid_bands(g_lo, g_hi)):
        if max(band_lo, lo) < min(band_hi, hi):
            reached |= 1 << index
            if band_lo <= lo:
                low |= 1 << index
            if band_hi >= hi:
                high |= 1 << index
    return reached, low, high


def _tiles(columns: int, rows: int) -> int:
    """The tile mask of the tiles in column bands ``columns`` and row
    bands ``rows`` (band masks as :func:`_axis_masks` returns them)."""
    return sum(
        1 << tile
        for tile in Tile
        if columns >> (tile.column + 1) & 1 and rows >> (tile.row + 1) & 1
    )


def hitting_sets(allowed: int, groups: Sequence[int]) -> int:
    """The member mask of the tile sets inside ``allowed`` that meet every
    tile mask of ``groups``: bit ``m`` is set for each such tile mask
    ``m``, found by walking the submasks of ``allowed``."""
    members = 0
    submask = allowed
    while submask:
        if all(submask & group for group in groups):
            members |= 1 << submask
        submask = (submask - 1) & allowed
    return members


def _realisable(box_x, box_y, grid_x, grid_y) -> int:
    """The member mask of the relations a region with sides ``box_x``,
    ``box_y`` can have against the grid with lines ``grid_x``, ``grid_y``:
    the reachable tile sets meeting all four attainment groups."""
    reached_x, low_x, high_x = _axis_masks(*box_x, *grid_x)
    reached_y, low_y, high_y = _axis_masks(*box_y, *grid_y)
    return hitting_sets(
        _tiles(reached_x, reached_y),
        (
            _tiles(low_x, reached_y),
            _tiles(high_x, reached_y),
            _tiles(reached_x, low_y),
            _tiles(reached_x, high_y),
        ),
    )


class PlacementRow(NamedTuple):
    """One placement of a box against the (0, 10) reference grid.

    ``admits`` is the member mask of the relations a region with the box
    can have against the reference grid; ``converse`` the member mask of
    those the reference square ``[0, 10]²`` can have against the box's
    own grid.  ``cell_map[int(t)]`` is the tile mask of the reference
    tiles that tile ``t`` of the box's grid overlaps full-dimensionally.
    """

    placement: BoxPlacement
    admits: int
    converse: int
    cell_map: Tuple[int, ...]


@lru_cache(maxsize=1)
def placement_table() -> Tuple[PlacementRow, ...]:
    """The 169 placements in :func:`box_placements` order, built on first
    use and kept for the process (``compose.cache_clear()`` leaves it)."""
    reference = (GRID_LO, GRID_HI)
    table: List[PlacementRow] = []
    for placement in box_placements():
        x, y = placement
        columns = [_axis_masks(*band, *reference)[0] for band in grid_bands(*x)]
        rows = [_axis_masks(*band, *reference)[0] for band in grid_bands(*y)]
        cell_map = tuple(
            _tiles(columns[tile.column + 1], rows[tile.row + 1]) for tile in Tile
        )
        table.append(
            PlacementRow(
                placement,
                _realisable(x, y, reference, reference),
                _realisable(reference, reference, x, y),
                cell_map,
            )
        )
    return tuple(table)
