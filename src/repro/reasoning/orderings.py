"""The qualitative-placement enumeration engine.

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
with the region's bounding box is realisable by small rectangles.  Hence:

* a relation ``R`` (a set of cells of the reference grid) is realisable
  by a region with a given box iff every cell of ``R`` has a
  full-dimensional intersection with the box (*reachability*) and the
  cells of ``R`` let the region touch all four sides of its box
  (*attainment*) — :func:`relation_realizable_for_box`;
* conversely, the set of relations realisable by a region with a given
  box is exactly the family of reachable cell sets hitting all four
  attainment groups — :func:`occupancy_options`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import FrozenSet, Iterable, List, NamedTuple, Set, Tuple

from repro.core.relation import CardinalDirection
from repro.core.tiles import Tile

#: Concrete coordinates for the reference grid lines on both axes.
GRID_LO: int = 0
GRID_HI: int = 10

NEG_INF = float("-inf")
POS_INF = float("inf")


class Interval(NamedTuple):
    """A (possibly unbounded) open interval used for band arithmetic."""

    lo: object
    hi: object

    def overlaps_open(self, other: "Interval") -> bool:
        """True when the two intervals share a full-dimensional stretch."""
        lo = self.lo if self.lo >= other.lo else other.lo
        hi = self.hi if self.hi <= other.hi else other.hi
        return lo < hi


def band(g_lo: object, g_hi: object, index: int) -> Interval:
    """The axis band of a grid: ``-1`` below ``g_lo``, ``0`` between, ``+1`` above."""
    if index == -1:
        return Interval(NEG_INF, g_lo)
    if index == 0:
        return Interval(g_lo, g_hi)
    if index == 1:
        return Interval(g_hi, POS_INF)
    raise ValueError(f"band index must be -1, 0 or 1, got {index}")


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


def _tile_bands(tile: Tile, g_lo, g_hi) -> Tuple[Interval, Interval]:
    return band(g_lo, g_hi, tile.column), band(g_lo, g_hi, tile.row)


def relation_realizable_for_box(
    relation: CardinalDirection, placement: BoxPlacement
) -> bool:
    """Can a region with box ``placement`` occupy exactly ``relation``'s tiles
    of the (0, 10) reference grid?

    Requires (a) every tile of the relation to intersect the box
    full-dimensionally and (b) tiles of the relation to allow the region
    to attain all four sides of its box.
    """
    px = Interval(placement.x.p1, placement.x.p2)
    py = Interval(placement.y.p1, placement.y.p2)
    for tile in relation.tiles:
        band_x, band_y = _tile_bands(tile, GRID_LO, GRID_HI)
        if not (band_x.overlaps_open(px) and band_y.overlaps_open(py)):
            return False
    tiles = relation.tiles
    attain_lo_x = any(band(GRID_LO, GRID_HI, t.column).lo <= placement.x.p1 for t in tiles)
    attain_hi_x = any(band(GRID_LO, GRID_HI, t.column).hi >= placement.x.p2 for t in tiles)
    attain_lo_y = any(band(GRID_LO, GRID_HI, t.row).lo <= placement.y.p1 for t in tiles)
    attain_hi_y = any(band(GRID_LO, GRID_HI, t.row).hi >= placement.y.p2 for t in tiles)
    return attain_lo_x and attain_hi_x and attain_lo_y and attain_hi_y


def occupancy_options(
    box_x: Interval,
    box_y: Interval,
    grid_x: Tuple[object, object],
    grid_y: Tuple[object, object],
) -> Set[FrozenSet[Tile]]:
    """All exact tile-occupancy sets of a region with the given box against
    the grid with lines ``grid_x`` / ``grid_y``.

    The result is the family of subsets ``T`` of the reachable cells such
    that ``T`` hits each of the four attainment groups (cells through
    which the region can touch the corresponding side of its box).
    """
    reachable: List[Tile] = []
    groups: Tuple[List[int], List[int], List[int], List[int]] = ([], [], [], [])
    for tile in Tile:
        band_x = band(grid_x[0], grid_x[1], tile.column)
        band_y = band(grid_y[0], grid_y[1], tile.row)
        if not (band_x.overlaps_open(box_x) and band_y.overlaps_open(box_y)):
            continue
        index = len(reachable)
        reachable.append(tile)
        if band_x.lo <= box_x.lo:
            groups[0].append(index)
        if band_x.hi >= box_x.hi:
            groups[1].append(index)
        if band_y.lo <= box_y.lo:
            groups[2].append(index)
        if band_y.hi >= box_y.hi:
            groups[3].append(index)
    group_masks = []
    for group in groups:
        mask = 0
        for index in group:
            mask |= 1 << index
        group_masks.append(mask)
    options: Set[FrozenSet[Tile]] = set()
    for subset in range(1, 1 << len(reachable)):
        if all(subset & mask for mask in group_masks):
            options.add(
                frozenset(
                    reachable[i] for i in range(len(reachable)) if subset >> i & 1
                )
            )
    return options
