"""Constructing concrete ``REG*`` witnesses for symbolic claims.

Two constructions:

* :func:`witness_regions_for_relation` — for any basic relation ``R``, a
  concrete pair ``(a, b)`` with ``a R b``; used by tests to close the
  loop between the symbolic layer and Compute-CDR.
* :func:`maximal_model` — the canonical "maximal" material assignment
  used by the consistency checker: given solved bounding boxes, each
  region takes *all* arrangement cells inside its box that every
  constraint allows.  If any solution with these boxes exists, the
  maximal one satisfies all "must reach tile" obligations at least as
  well (material is monotone for reachability and the allowed-cell filter
  enforces the prohibitions), so verifying it is a sound decision step.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.relation import CardinalDirection
from repro.core.tiles import Tile
from repro.geometry.bbox import BoundingBox
from repro.geometry.polygon import Polygon
from repro.geometry.region import Region
from repro.reasoning.orderings import GRID_HI, GRID_LO, grid_bands, placement_table

#: The reference grid ``(0, 10)`` on one axis.
_REFERENCE = (GRID_LO, GRID_HI)


def _rect(x0, y0, x1, y1) -> Polygon:
    return Polygon.from_coordinates([(x0, y0), (x0, y1), (x1, y1), (x1, y0)])


#: Where to put a small witness rectangle for each tile of the (0, 10) grid.
_TILE_ANCHOR: Dict[Tile, Tuple[int, int]] = {
    Tile.B: (4, 4),
    Tile.S: (4, -4),
    Tile.SW: (-4, -4),
    Tile.W: (-4, 4),
    Tile.NW: (-4, 12),
    Tile.N: (4, 12),
    Tile.NE: (12, 12),
    Tile.E: (12, 4),
    Tile.SE: (12, -4),
}


def witness_regions_for_relation(
    relation: CardinalDirection,
) -> Tuple[Region, Region]:
    """A concrete pair ``(a, b)`` of ``REG*`` regions with ``a R b``.

    ``b`` is the square ``[0, 10]²``; ``a`` places one ``2 × 2`` rectangle
    strictly inside each tile of ``relation``.
    """
    b = Region.from_polygon(_rect(0, 0, 10, 10))
    pieces: List[Polygon] = []
    for tile in relation.tiles:
        x, y = _TILE_ANCHOR[tile]
        pieces.append(_rect(x, y, x + 2, y + 2))
    return Region(pieces), b


def witness_pair(
    r1: CardinalDirection, r2: CardinalDirection
) -> Optional[Tuple[Region, Region]]:
    """Concrete regions with ``a R1 b`` *and* ``b R2 a``, or ``None``.

    Takes the first placement of ``mbb(a)`` against ``mbb(b)``'s grid
    that admits ``R1`` and whose converse admits ``R2``; there ``a``
    takes the maximal rectangle in each tile of ``R1`` (clipped to its
    box) and ``b`` the maximal rectangle in each cell of ``R2`` of
    ``a``'s grid (clipped to ``b``'s box).  ``None`` is returned exactly
    when ``R2 ∉ inv(R1)`` — this is the constructive counterpart of
    :func:`repro.reasoning.inverse.pair_realizable`.
    """
    for row in placement_table():
        if not (row.admits >> r1.mask & 1 and row.converse >> r2.mask & 1):
            continue
        x, y = row.placement
        box_a = BoundingBox(x.p1, y.p1, x.p2, y.p2)
        box_b = BoundingBox(GRID_LO, GRID_LO, GRID_HI, GRID_HI)
        region_a = Region(
            _maximal_tile_rect(tile, _REFERENCE, _REFERENCE, box_a)
            for tile in r1.tiles
        )
        region_b = Region(_maximal_tile_rect(tile, x, y, box_b) for tile in r2.tiles)
        return region_a, region_b
    return None


def _maximal_tile_rect(
    tile: Tile, grid_x, grid_y, box: BoundingBox
) -> Polygon:
    """The maximal rectangle of ``box`` lying inside a (closed) grid tile."""
    x_lo, x_hi = grid_bands(*grid_x)[tile.column + 1]
    y_lo, y_hi = grid_bands(*grid_y)[tile.row + 1]
    return _rect(
        max(x_lo, box.min_x), max(y_lo, box.min_y),
        min(x_hi, box.max_x), min(y_hi, box.max_y),
    )


def witness_triple(
    r1: CardinalDirection, r2: CardinalDirection, r3: CardinalDirection
) -> Optional[Tuple[Region, Region, Region]]:
    """Concrete regions with ``a R1 b``, ``b R2 c`` and ``a R3 c``.

    Returns ``None`` exactly when ``R3`` is not a disjunct of
    ``compose(R1, R2)`` — the constructive counterpart of
    :func:`repro.reasoning.composition.compose`.
    """
    for row in placement_table():
        if not row.admits >> r2.mask & 1:
            continue
        cmap = row.cell_map
        allowed = 0
        for tile in r1.tiles:
            allowed |= cmap[tile]
        if r3.mask & ~allowed:
            continue  # some R3 tile is unreachable from R1's tiles
        if any(not (r3.mask & cmap[tile]) for tile in r1.tiles):
            continue  # some R1 tile cannot contribute material inside R3
        x, y = row.placement
        region_c = Region([_rect(GRID_LO, GRID_LO, GRID_HI, GRID_HI)])
        b_box = BoundingBox(x.p1, y.p1, x.p2, y.p2)
        region_b = Region(
            _maximal_tile_rect(tile, _REFERENCE, _REFERENCE, b_box)
            for tile in r2.tiles
        )
        b_columns, b_rows = grid_bands(*x), grid_bands(*y)
        c_bands = grid_bands(*_REFERENCE)
        pieces: List[Polygon] = []
        for b_tile in r1.tiles:
            for c_tile in r3.tiles:
                if not (cmap[b_tile] >> c_tile) & 1:
                    continue
                x0, x1 = _intersect_bands(
                    b_columns[b_tile.column + 1], c_bands[c_tile.column + 1]
                )
                y0, y1 = _intersect_bands(
                    b_rows[b_tile.row + 1], c_bands[c_tile.row + 1]
                )
                pieces.append(_rect(x0, y0, x1, y1))
        region_a = Region(pieces)
        return region_a, region_b, region_c
    return None


#: Finite stand-ins for the unbounded sides of outer tiles, far beyond
#: every coordinate the placement engine uses.
_FAR = 40


def _intersect_bands(first, second) -> Tuple[int, int]:
    """Intersect two (possibly unbounded) bands and clamp to ±_FAR."""
    return max(first[0], second[0], -_FAR), min(first[1], second[1], _FAR)


def _band_index(lo, hi, grid_lo, grid_hi) -> Optional[int]:
    """The band of the grid that the closed interval ``[lo, hi]`` lies in.

    ``None`` when the interval straddles a grid line with positive extent
    on both sides (cannot happen for arrangement cells, whose endpoints
    include every grid line).
    """
    if hi <= grid_lo:
        return -1
    if lo >= grid_hi:
        return 1
    if grid_lo <= lo and hi <= grid_hi:
        return 0
    return None


def maximal_model(
    boxes: Mapping[str, BoundingBox],
    constraints: Mapping[Tuple[str, str], CardinalDirection],
) -> Dict[str, Optional[Region]]:
    """The canonical maximal material assignment for solved boxes.

    For every region name, returns the union of all arrangement cells
    (from the x/y coordinates of all boxes) that lie inside the region's
    own box and inside an allowed tile of *every* constraint in which the
    region is the primary.  Returns ``None`` for a region with no allowed
    cell (the candidate assignment fails).
    """
    xs = sorted({v for box in boxes.values() for v in (box.min_x, box.max_x)})
    ys = sorted({v for box in boxes.values() for v in (box.min_y, box.max_y)})
    x_cells = list(zip(xs, xs[1:]))
    y_cells = list(zip(ys, ys[1:]))

    result: Dict[str, Optional[Region]] = {}
    for name, box in boxes.items():
        obligations = [
            (boxes[ref], relation)
            for (primary, ref), relation in constraints.items()
            if primary == name
        ]
        polygons: List[Polygon] = []
        for cx0, cx1 in x_cells:
            if cx0 < box.min_x or cx1 > box.max_x:
                continue
            for cy0, cy1 in y_cells:
                if cy0 < box.min_y or cy1 > box.max_y:
                    continue
                if _cell_allowed(cx0, cx1, cy0, cy1, obligations):
                    polygons.append(_rect(cx0, cy0, cx1, cy1))
        result[name] = Region(polygons) if polygons else None
    return result


def _cell_allowed(
    cx0, cx1, cy0, cy1,
    obligations: Sequence[Tuple[BoundingBox, CardinalDirection]],
) -> bool:
    for ref_box, relation in obligations:
        column = _band_index(cx0, cx1, ref_box.min_x, ref_box.max_x)
        row = _band_index(cy0, cy1, ref_box.min_y, ref_box.max_y)
        if column is None or row is None:  # pragma: no cover - defensive
            return False
        if Tile.from_bands(column, row) not in relation.tiles:
            return False
    return True
