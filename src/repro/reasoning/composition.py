"""Composition of cardinal direction relations ([20], [22]).

``compose(R1, R2)`` returns the *strongest implied disjunctive relation*
between ``a`` and ``c`` given ``a R1 b`` and ``b R2 c`` — i.e. exactly
the set of basic relations ``R3`` for which witness regions
``a, b, c ∈ REG*`` exist with ``a R1 b``, ``b R2 c`` and ``a R3 c``.

The enumeration fixes ``mbb(c)``'s grid at the concrete (0, 10) lines and
runs over the 169 qualitative placements of ``mbb(b)`` against it.  A
placement is admissible when ``R2`` is realisable by ``b`` there.  Given
an admissible placement, region ``a`` must put material into every tile
``t ∈ R1`` of *b's* grid, and each such tile overlaps a fixed set
``cmap(t)`` of tiles of *c's* grid; because ``REG*`` material is freely
divisible, the realisable relations ``a R3 c`` are exactly the subsets of
``∪ cmap(t)`` that intersect every ``cmap(t)``.  (Region ``a``'s own
bounding box constrains nothing else, and regions may overlap, so no
further interaction exists.)

Classic sanity points reproduced by the tests: ``compose(S, S) = {S}``,
``compose(B, B) = {B}``, and ``compose(SW, NE)`` is the universal
relation (all 511 basic relations).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from repro.core.relation import CardinalDirection, DisjunctiveCD
from repro.core.tiles import Tile
from repro.reasoning.orderings import (
    GRID_HI,
    GRID_LO,
    BoxPlacement,
    band,
    box_placements,
    relation_realizable_for_box,
)


@lru_cache(maxsize=None)
def _cell_map(placement: BoxPlacement) -> Tuple[int, ...]:
    """For each tile of b's grid (indexed by ``int(tile)``), the bitmask
    of c-grid tiles it overlaps.

    b's grid lines are the placed box endpoints; c's grid is (0, 10).
    Overlap must be full-dimensional on both axes.  A pure function of
    the 169 fixed placements, so its cache outlives
    ``compose.cache_clear()``.
    """
    b_grid_x = (placement.x.p1, placement.x.p2)
    b_grid_y = (placement.y.p1, placement.y.p2)
    mapping = []
    for b_tile in Tile:
        band_bx = band(b_grid_x[0], b_grid_x[1], b_tile.column)
        band_by = band(b_grid_y[0], b_grid_y[1], b_tile.row)
        mask = 0
        for c_tile in Tile:
            band_cx = band(GRID_LO, GRID_HI, c_tile.column)
            band_cy = band(GRID_LO, GRID_HI, c_tile.row)
            if band_bx.overlaps_open(band_cx) and band_by.overlaps_open(band_cy):
                mask |= 1 << int(c_tile)
        mapping.append(mask)
    return tuple(mapping)


@lru_cache(maxsize=None)
def compose(r1: CardinalDirection, r2: CardinalDirection) -> DisjunctiveCD:
    """Strongest implied relation of ``a`` vs ``c`` from ``a R1 b ∧ b R2 c``.

    >>> from repro.core.relation import CardinalDirection as CD
    >>> str(compose(CD.parse("S"), CD.parse("S")))
    '{S}'
    """
    members = 0
    for placement in box_placements():
        if not relation_realizable_for_box(r2, placement):
            continue
        cmap = _cell_map(placement)
        required = [cmap[t] for t in r1.tiles]
        allowed = 0
        for mask in required:
            allowed |= mask
        # Every submask of `allowed` hitting each required mask is a
        # member's tile mask (the standard submask walk).
        submask = allowed
        while submask:
            if all(submask & mask for mask in required):
                members |= 1 << submask
            submask = (submask - 1) & allowed
    return DisjunctiveCD.from_mask(members)


def compose_disjunctive(d1: DisjunctiveCD, d2: DisjunctiveCD) -> DisjunctiveCD:
    """Composition lifted to disjunctive relations: the union of the
    member pairs' compositions, stopping once it is universal."""
    universal = DisjunctiveCD.universal()
    members = 0
    for r1 in d1:
        for r2 in d2:
            members |= compose(r1, r2).mask
            if members == universal.mask:
                return universal
    return DisjunctiveCD.from_mask(members)
