"""Vectorised (numpy) implementations of Compute-CDR and Compute-CDR%.

The reference implementations in :mod:`repro.core.compute` and
:mod:`repro.core.percentages` are exact over Python's numeric tower and
process one edge at a time.  For large float workloads this module
offers a drop-in fast path that processes *all* edges as numpy arrays.

The trick is to avoid materialising the edge division entirely.  For an
edge ``P(t) = start + t·(end − start)``, ``t ∈ [0, 1]``:

* the parameter set where ``P(t)`` lies in a column band of the grid is
  an interval (``x(t)`` is monotone or constant), and likewise for rows;
* the edge has a positive-length piece in tile ``(c, r)`` exactly when
  the column interval ∩ row interval has positive length — which is the
  tile-of-midpoint classification of the divided sub-edges, without the
  division (Compute-CDR);
* the trapezoid contribution of the piece is a closed form in the
  interval endpoints: ``E'_m = dy·(t1−t0)·(x(t0)+x(t1)−2m)/2`` — so the
  per-tile accumulators of Compute-CDR% become masked sums
  (the ``B+N`` strip is the single interval ``y(t) ≥ l1`` intersected
  with the central column, so it needs no tile classification at all).

Edges lying exactly on a grid line keep the interior-side rule through a
sign mask on ``dy`` / ``−dx``.

**One kernel, k boxes.**  Every float64 caller runs the same functions:
one region's :class:`EdgeArrays` against the grid lines of ``k``
reference boxes, answered in one numpy pass per step —
:func:`_intervals` (the ``(3, n_edges, k)`` band intervals of both
axes), :func:`_tile_masks` (occupancy reduced to one tile bitmask per
box, plus the centre-of-``mbb`` test for ``B``) and
:func:`_tile_area_columns` (the nine trapezoid sums per box).  The
per-pair entry points below call them with ``k = 1`` and read row 0;
the sweep engine's :meth:`~repro.core.sweep.SweepEngine.sweep_plane`
calls them with a primary row's pending reference boxes.

Semantics: identical to the reference on well-conditioned input; being
float arithmetic, ties at grid lines are only as exact as float64, and
the centre-of-``mbb`` test is exact while the coordinate products it
forms stay below 2^53.  Summation runs over the edges per box, so a
percentage is bit-identical whatever ``k`` only up to the summation
order numpy picks for the array shape (the last few bits).  The property
tests cross-validate the kernel against the reference on thousands of
random workloads; the benchmark ``bench_fast.py`` documents the speedup
(an order of magnitude on 10k-edge regions).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.compute import RegionLike, _as_region
from repro.core.matrix import PercentageMatrix
from repro.core.relation import RELATIONS_BY_MASK, CardinalDirection
from repro.core.tiles import Tile
from repro.errors import RelationError
from repro.geometry.bbox import BoundingBox
from repro.geometry.region import Region

#: Parameter-length threshold under which a piece counts as degenerate.
#: Real pieces of non-adversarial input are many orders of magnitude
#: longer; this only absorbs float round-off at grid crossings.
_EPSILON = 1e-12

#: ``1 << tile`` at (column band, row band), bands indexed 0=-1, 1=0,
#: 2=+1 — turns a (k, 3, 3) occupancy block into (k,) uint16 bitmasks.
_TILE_MASKS = np.array(
    [[1 << int(Tile.from_bands(c - 1, r - 1)) for r in range(3)] for c in range(3)],
    dtype=np.uint16,
)

_B_MASK = np.uint16(1 << int(Tile.B))

#: The columns of :func:`_tile_area_columns`, in the order the per-tile
#: sums are formed — the order also fixes the float summation order of
#: :meth:`~repro.core.matrix.PercentageMatrix.from_areas`.
AREA_TILE_ORDER: Tuple[Tile, ...] = (
    Tile.SW, Tile.W, Tile.NW, Tile.SE, Tile.E, Tile.NE, Tile.S, Tile.N, Tile.B,
)

#: A set of grid lines ``(m1, m2, l1, l2)``, one ``(k,)`` float64 array
#: each: ``mbb.min_x``, ``max_x``, ``min_y``, ``max_y`` of k boxes.
Lines = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Per-band, per-edge, per-box intervals ``(col_lo, col_hi, row_lo,
#: row_hi)``, each ``(3, n_edges, k)`` (see :func:`_axis_intervals`).
Intervals = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class EdgeArrays(NamedTuple):
    """One region's edges as float64 arrays, in ring order.

    ``dx`` / ``dy`` are ``x2 - x1`` / ``y2 - y1``; ``rings`` holds each
    polygon's first edge, counted from the region's first edge.
    """

    x1: np.ndarray
    y1: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    x2: np.ndarray
    y2: np.ndarray
    rings: np.ndarray


def _edge_lists(
    region: Region,
) -> Tuple[List[float], List[float], List[float], List[float], List[int]]:
    """A region's edge endpoints ``(x1, y1, x2, y2)`` as float lists, and
    each polygon's first edge — the one per-region edge loop, shared by
    :func:`_edge_arrays` and :meth:`~repro.core.plane.GeometryPlane.build`."""
    x1: List[float] = []
    y1: List[float] = []
    x2: List[float] = []
    y2: List[float] = []
    rings: List[int] = []
    for polygon in region.polygons:
        rings.append(len(x1))
        vertices = polygon.vertices
        count = len(vertices)
        for i in range(count):
            a, b = vertices[i], vertices[(i + 1) % count]
            x1.append(float(a.x))
            y1.append(float(a.y))
            x2.append(float(b.x))
            y2.append(float(b.y))
    return x1, y1, x2, y2, rings


def _edge_arrays(region: Region) -> EdgeArrays:
    """All edges of ``region`` as :class:`EdgeArrays`."""
    x1_list, y1_list, x2_list, y2_list, rings = _edge_lists(region)
    x1 = np.asarray(x1_list)
    y1 = np.asarray(y1_list)
    x2 = np.asarray(x2_list)
    y2 = np.asarray(y2_list)
    return EdgeArrays(
        x1, y1, x2 - x1, y2 - y1, x2, y2, np.asarray(rings, dtype=np.int64)
    )


def _edges_of(
    region: Region, arrays: Optional[Tuple[np.ndarray, ...]]
) -> EdgeArrays:
    """The caller's :func:`_edge_arrays` result for ``region``, or a
    fresh build when it holds none."""
    return _edge_arrays(region) if arrays is None else EdgeArrays(*arrays)


def _box_lines(box: BoundingBox) -> Lines:
    """One box's grid lines, as the ``k = 1`` case of :data:`Lines`."""
    m1, m2, l1, l2 = np.array(
        [[float(box.min_x)], [float(box.max_x)], [float(box.min_y)], [float(box.max_y)]]
    )
    return m1, m2, l1, l2


# ---------------------------------------------------------------------------
# The kernel: one region's edges against k reference boxes
# ---------------------------------------------------------------------------


def _axis_intervals(
    start: np.ndarray, delta: np.ndarray,
    lows: np.ndarray, highs: np.ndarray,
    tie_sign: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-edge, per-box parameter intervals of one axis's three bands.

    ``lows`` / ``highs`` hold the axis lines of ``k`` reference boxes,
    and the result is ``(lo, hi)`` of shape ``(3, n, k)`` — band 0 =
    below ``lows[j]``, band 1 = between, band 2 = above ``highs[j]`` for
    box ``j``; an empty band is ``(inf, -inf)``.  Band-major, so each
    band is one contiguous ``(n, k)`` block.

    Constant edges (``delta == 0``) occupy a single band chosen by
    position — with the interior-side rule via ``tie_sign`` when
    sitting exactly on a line.
    """
    n, k = start.shape[0], lows.shape[0]
    s = start[:, None]
    d = delta[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_low = (lows[None, :] - s) / d   # (n, k): edge meets x=lows[j]
        t_high = (highs[None, :] - s) / d
    clip_low = np.clip(t_low, 0.0, 1.0)
    clip_high = np.clip(t_high, 0.0, 1.0)
    ascending = (delta > 0)[:, None]
    lo = np.empty((3, n, k))
    hi = np.empty((3, n, k))
    # Below band {position < low}: ascending edges occupy it before
    # t_low, descending edges after it.
    lo[0] = np.where(ascending, 0.0, clip_low)
    hi[0] = np.where(ascending, clip_low, 1.0)
    # Middle band: between the two crossings, whichever order.
    np.minimum(clip_low, clip_high, out=lo[1])
    np.maximum(clip_low, clip_high, out=hi[1])
    # Above band {position > high}: mirrored.
    lo[2] = np.where(ascending, clip_high, 0.0)
    hi[2] = np.where(ascending, 1.0, clip_high)

    constant = delta == 0
    if np.any(constant):
        lo[:, constant] = np.inf
        hi[:, constant] = -np.inf
        position = start[:, None]             # (n, 1), broadcast over boxes
        sign = tie_sign[:, None]
        band = np.ones((n, k), dtype=int)
        band = np.where(position < lows[None, :], 0, band)
        band = np.where(position > highs[None, :], 2, band)
        # Exactly on a line: interior side decides (tie_sign > 0 means
        # the material lies toward increasing coordinate).
        on_low = constant[:, None] & (position == lows[None, :])
        band = np.where(on_low & (sign > 0), 1, band)
        band = np.where(on_low & (sign < 0), 0, band)
        on_high = constant[:, None] & (position == highs[None, :])
        band = np.where(on_high & (sign > 0), 2, band)
        band = np.where(on_high & (sign < 0), 1, band)
        rows, cols = np.nonzero(
            constant[:, None] & np.ones((1, k), dtype=bool)
        )
        lo[band[rows, cols], rows, cols] = 0.0
        hi[band[rows, cols], rows, cols] = 1.0
    return lo, hi


def _intervals(arrays: EdgeArrays, lines: Lines) -> Intervals:
    """Both axes' band intervals of every edge against every box."""
    m1, m2, l1, l2 = lines
    col_lo, col_hi = _axis_intervals(arrays.x1, arrays.dx, m1, m2, arrays.dy)
    row_lo, row_hi = _axis_intervals(arrays.y1, arrays.dy, l1, l2, -arrays.dx)
    return col_lo, col_hi, row_lo, row_hi


def _tile_masks(
    arrays: EdgeArrays, lines: Lines, intervals: Intervals
) -> np.ndarray:
    """Compute-CDR against each box: a ``(k,)`` uint16 tile bitmask.

    A tile is occupied when any edge has a positive-length parameter
    piece in its column ∩ row interval.  The ``B`` tile can also be
    covered without any edge crossing it (the box lies inside the
    region's interior), so a box whose mask lacks ``B`` gets it when its
    centre lies in the region (:func:`_points_in_region`).
    """
    col_lo, col_hi, row_lo, row_hi = intervals
    k = col_lo.shape[2]
    occupied = np.zeros((k, 3, 3), dtype=bool)
    for c in range(3):
        for r in range(3):
            lo = np.maximum(col_lo[c], row_lo[r])
            hi = np.minimum(col_hi[c], row_hi[r])
            occupied[:, c, r] = np.any(hi - lo > _EPSILON, axis=0)
    masks = (
        (occupied * _TILE_MASKS[None, :, :]).sum(axis=(1, 2)).astype(np.uint16)
    )
    missing_b = np.nonzero((masks & _B_MASK) == 0)[0]
    if missing_b.size:
        m1, m2, l1, l2 = lines
        centre_x = (m1[missing_b] + m2[missing_b]) / 2.0
        centre_y = (l1[missing_b] + l2[missing_b]) / 2.0
        inside = _points_in_region(arrays, centre_x, centre_y)
        masks[missing_b[inside]] |= _B_MASK
    return masks


def _points_in_region(
    arrays: EdgeArrays, px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """Boundary-inclusive even–odd membership of points in a region.

    The vectorised form of running
    :func:`repro.geometry.predicates.point_in_ring` over every ring of
    the region — the same operations in the same order, in float64.
    Even–odd parity is taken per ring and the rings' answers are ORed,
    so a region whose polygons overlap — which a store does not reject
    — keeps each polygon's interior; any boundary case is caught by the
    on-segment test first, exactly as in the scalar predicate.
    """
    ax, ay = arrays.x1[:, None], arrays.y1[:, None]
    bx, by = arrays.x2[:, None], arrays.y2[:, None]
    cx, cy = px[None, :], py[None, :]
    degenerate = (ax == bx) & (ay == by)
    # point_on_segment: collinear and inside the segment's bbox.
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    on_segment = (
        ~degenerate
        & (cross == 0)
        & (np.minimum(ax, bx) <= cx)
        & (cx <= np.maximum(ax, bx))
        & (np.minimum(ay, by) <= cy)
        & (cy <= np.maximum(ay, by))
    )
    # Even-odd ray crossings, cross-multiplied like point_in_ring.
    straddles = (ay > cy) != (by > cy)
    dy = by - ay
    t_num = cy - ay
    x_cross_num = ax * dy + t_num * (bx - ax)
    toggles = straddles & (
        ((dy > 0) & (x_cross_num > cx * dy))
        | ((dy < 0) & (x_cross_num < cx * dy))
    )
    odd = np.logical_xor.reduceat(toggles, arrays.rings, axis=0)
    return np.any(odd, axis=0) | np.any(on_segment, axis=0)


def _tile_area_columns(
    arrays: EdgeArrays, lines: Lines, intervals: Intervals
) -> np.ndarray:
    """Compute-CDR% against each box: ``(k, 9)`` raw per-tile areas, the
    columns in :data:`AREA_TILE_ORDER`.

    The trapezoid accumulators are evaluated as ``(n_edges, k)`` masked
    sums over the edges, one numpy pass per tile.
    """
    col_lo, col_hi, row_lo, row_hi = intervals
    m1, m2, l1, l2 = lines
    two_x1, two_y1 = 2.0 * arrays.x1[:, None], 2.0 * arrays.y1[:, None]
    dxc, dyc = arrays.dx[:, None], arrays.dy[:, None]

    def _sanitise(
        lo: np.ndarray, hi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Clear the ±inf empty-interval sentinels before arithmetic."""
        valid = hi > lo
        lo = np.where(valid, lo, 0.0)
        hi = np.where(valid, hi, 0.0)
        return lo, hi

    def e_m_sum(lo: np.ndarray, hi: np.ndarray, two_m: np.ndarray) -> np.ndarray:
        lo, hi = _sanitise(lo, hi)
        length = hi - lo
        x_sum = two_x1 + (lo + hi) * dxc
        return np.sum(dyc * length * (x_sum - two_m), axis=0) / 2.0

    def e_l_sum(lo: np.ndarray, hi: np.ndarray, two_l: np.ndarray) -> np.ndarray:
        lo, hi = _sanitise(lo, hi)
        length = hi - lo
        y_sum = two_y1 + (lo + hi) * dyc
        return np.sum(dxc * length * (y_sum - two_l), axis=0) / 2.0

    def tile_interval(c: int, r: int) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.maximum(col_lo[c], row_lo[r]),
            np.minimum(col_hi[c], row_hi[r]),
        )

    columns = []
    for c, m in ((0, m1), (2, m2)):
        two_m = 2.0 * m
        for r in range(3):
            columns.append(np.abs(e_m_sum(*tile_interval(c, r), two_m)))
    two_l1 = 2.0 * l1
    columns.append(np.abs(e_l_sum(*tile_interval(1, 0), two_l1)))
    area_n = np.abs(e_l_sum(*tile_interval(1, 2), 2.0 * l2))
    columns.append(area_n)

    # The B+N strip: central column ∩ { y(t) >= l1 } = central column ∩
    # (row 1 ∪ row 2), a single interval because y(t) is monotone.
    strip_lo = np.minimum(row_lo[1], row_lo[2])
    strip_hi = np.maximum(row_hi[1], row_hi[2])
    # Rows can be empty (+inf/-inf sentinels); an empty row must not
    # corrupt the union, so fall back to the other row where needed.
    empty_row1 = row_hi[1] < row_lo[1]
    empty_row2 = row_hi[2] < row_lo[2]
    strip_lo = np.where(empty_row1, row_lo[2], strip_lo)
    strip_lo = np.where(empty_row2, row_lo[1], strip_lo)
    strip_hi = np.where(empty_row1, row_hi[2], strip_hi)
    strip_hi = np.where(empty_row2, row_hi[1], strip_hi)
    lo = np.maximum(col_lo[1], strip_lo)
    hi = np.minimum(col_hi[1], strip_hi)
    area_bn = np.abs(e_l_sum(lo, hi, two_l1))
    columns.append(np.maximum(area_bn - area_n, 0.0))
    return np.stack(columns, axis=1)


# ---------------------------------------------------------------------------
# Per-pair entry points: the kernel with k = 1
# ---------------------------------------------------------------------------


def compute_cdr_fast(
    primary: RegionLike,
    reference: RegionLike,
    *,
    arrays: Optional[Tuple[np.ndarray, ...]] = None,
) -> CardinalDirection:
    """Vectorised Compute-CDR (float64).

    Same contract as :func:`repro.core.compute.compute_cdr`; intended for
    large float workloads.  ``arrays`` lets callers that already hold the
    primary's edge arrays (:func:`_edge_arrays`) skip rebuilding them —
    the Python-loop array construction dominates the cost on large
    regions, and the guarded wrapper shares it with its precondition
    check.
    """
    return compute_cdr_fast_against_box(
        _as_region(primary),
        _as_region(reference).bounding_box(),
        arrays=arrays,
    )


def compute_cdr_fast_against_box(
    primary: Region,
    box: BoundingBox,
    *,
    arrays: Optional[Tuple[np.ndarray, ...]] = None,
) -> CardinalDirection:
    """Fast-path Compute-CDR when the reference mbb is already known.

    The counterpart of :func:`repro.core.compute.compute_cdr_against_box`
    for callers that cache reference mbbs (the relation store, the batch
    sweep): only the primary's edges are scanned per call.
    """
    edges = _edges_of(primary, arrays)
    lines = _box_lines(box)
    mask = int(_tile_masks(edges, lines, _intervals(edges, lines))[0])
    relation = RELATIONS_BY_MASK[mask]
    if relation is None:
        raise RelationError("a cardinal direction relation needs >= 1 tile")
    return relation


def compute_cdr_percentages_fast(
    primary: RegionLike,
    reference: RegionLike,
    *,
    arrays: Optional[Tuple[np.ndarray, ...]] = None,
) -> PercentageMatrix:
    """Vectorised Compute-CDR% (float64).

    Same accumulation scheme as the reference (per-tile reference lines,
    ``B`` derived from the ``B+N`` strip), evaluated in closed form over
    the per-edge parameter intervals.
    """
    return compute_cdr_percentages_fast_against_box(
        _as_region(primary),
        _as_region(reference).bounding_box(),
        arrays=arrays,
    )


def compute_cdr_percentages_fast_against_box(
    primary: Region,
    box: BoundingBox,
    *,
    arrays: Optional[Tuple[np.ndarray, ...]] = None,
) -> PercentageMatrix:
    """Fast-path Compute-CDR% when the reference mbb is already known."""
    return PercentageMatrix.from_areas(
        tile_areas_fast(primary, box, arrays=arrays)
    )


def tile_areas_fast(
    primary_region: Region,
    box: BoundingBox,
    *,
    arrays: Optional[Tuple[np.ndarray, ...]] = None,
) -> Dict[Tile, float]:
    """Raw per-tile float areas — the fast counterpart of
    :func:`repro.core.percentages.tile_areas`.

    Exposed separately so diagnostics layers can compare the tile sum
    against the region's own area *before* normalisation hides any
    drift.
    """
    edges = _edges_of(primary_region, arrays)
    lines = _box_lines(box)
    areas = _tile_area_columns(edges, lines, _intervals(edges, lines))
    return dict(zip(AREA_TILE_ORDER, areas[0].tolist()))
