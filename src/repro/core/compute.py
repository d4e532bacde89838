"""Algorithm **Compute-CDR** (Fig. 5 of the paper).

Computes the cardinal direction relation ``R`` with ``a R b`` for two
regions ``a, b ∈ REG*`` given as sets of clockwise polygons, in a single
pass over the edges — ``O(k_a + k_b)`` time (Theorem 1).

The algorithm:

1. compute ``mbb(b)`` from the reference region's polygons;
2. divide every edge of ``a`` at its proper crossings with the four grid
   lines, so each piece lies in exactly one tile;
3. record the tile of each piece (via its midpoint, disambiguated to the
   interior side for pieces lying on grid lines);
4. additionally record ``B`` when the centre of ``mbb(b)`` lies inside a
   polygon of ``a`` — the one case with no witnessing edge, which can only
   happen for the central tile because the eight outer tiles are
   unbounded and a bounded polygon covering part of them always has
   boundary there.  The test runs only when that centre lies in the
   closed ``mbb(a)``: a point outside it is in no polygon of ``a``.

The answer is the interned relation of the ORed tile bitmask.  Nothing
here prunes, so this stays the exact engine's oracle.
"""

from __future__ import annotations

from typing import Union, cast

from repro.geometry.bbox import BoundingBox
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import point_in_polygon
from repro.geometry.region import Region
from repro.core.relation import RELATIONS_BY_MASK, CardinalDirection
from repro.core.split import iter_divided_edges
from repro.core.tiles import Tile

RegionLike = Union[Region, Polygon]


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


def compute_cdr_against_box(
    primary: Region, box: BoundingBox
) -> CardinalDirection:
    """Compute-CDR when the reference mbb is already known.

    Useful when many primary regions are compared against one reference
    (e.g. the CARDIRECT relation store), saving the repeated mbb scan.
    Step 4's centre test runs only when no piece set bit ``B`` and
    ``mbb(primary)`` holds the centre; the result is interned.
    """
    mask = 0
    for classified in iter_divided_edges(primary, box):
        mask |= 1 << classified.tile
    if not mask & 1 << Tile.B:
        centre = box.center
        if primary.bounding_box().contains_point(centre) and any(
            point_in_polygon(centre, p) for p in primary.polygons
        ):
            mask |= 1 << Tile.B
    return cast(CardinalDirection, RELATIONS_BY_MASK[mask])  # mask >= 1
