"""The sweep-optimised compute layer: all-pairs relation extraction.

CARDIRECT's core workload is the all-pairs sweep — "compute the
(percentage) relations between all regions" (Section 4 of the paper) —
and large constraint networks (Zhang et al., *Reasoning about Cardinal
Directions between Extended Objects*) need exactly this n×n extraction
to be cheap before consistency checking is practical at scale.  The
historical path was a Python pair-by-pair loop that rebuilt each
primary's edge arrays O(n) times per sweep.  This module stacks three
optimisations on top of the engine layer's per-primary edge cache:

1. **mbb single-tile prune** (:func:`repro.core.tiles.single_tile_prune`)
   — when ``mbb(primary)`` lies *strictly* inside one non-``B`` tile of
   ``mbb(reference)``, the whole primary lies there, so the single-tile
   relation (and a 100 % :class:`~repro.core.matrix.PercentageMatrix`)
   follows from box arithmetic alone — exact over the native coordinate
   types, no edge scan, no float.  Boundary contact never prunes: the
   comparisons are strict, so grazing pairs take the full kernel;
2. **broadcast rows** — one primary is classified against *all*
   remaining reference boxes in a single ``(n_edges, n_boxes, 3)``
   numpy invocation (:func:`repro.core.fast._axis_band_intervals_many`),
   amortising the per-call numpy dispatch overhead that dominates
   per-pair sweeps of small regions;
3. **the plane sweep** — :meth:`SweepEngine.sweep_plane` (registry
   name ``"sweep"``) runs both over a row range of a
   :class:`~repro.core.plane.GeometryPlane`, the configuration
   flattened into columnar arrays.  It is the one broadcast kernel:
   every ``batch_relations`` sweep of this engine goes through it
   (:mod:`repro.core.batch`), serially as an inline run, under
   ``workers=N`` in each pool worker, and so does a full fill of
   :class:`~repro.cardirect.store.RelationStore`'s matrix.  Path
   telemetry distinguishes ``"prune"``, ``"broadcast"`` and ``"fast"``
   (the per-pair protocol) in ``EngineStats.path_counts``.

Semantics: the prune path is exact; the kernel paths are float64,
identical to :mod:`repro.core.fast` (the equivalence property tests
cross-validate every path against the exact reference).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import DEFAULT_EDGE_CACHE_SIZE, Engine
from repro.core.fast import (
    _EPSILON,
    _TILE_GRID,
    _axis_band_intervals_many,
    compute_cdr_fast_against_box,
    tile_areas_fast,
)
from repro.core.matrix import PercentageMatrix
from repro.core.relation import RELATIONS_BY_MASK
from repro.core.tiles import Tile, single_tile_prune
from repro.resilience.deadline import current_deadline
from repro.resilience.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.plane import GeometryPlane

#: Path labels of the sweep engine's telemetry.
PRUNE_PATH = "prune"
BROADCAST_PATH = "broadcast"
FAST_PATH = "fast"

#: Byte codes of the per-pair path plane in :meth:`SweepEngine.sweep_plane`
#: results (0 = not computed: broken / self / past-deadline column).
PLANE_PATH_PRUNE = 1
PLANE_PATH_BROADCAST = 2

#: The area columns of a plane-sweep percentage block, in exactly the
#: insertion order of :func:`_tile_area_columns`'s per-tile dict — the
#: order determines the float summation order of
#: :meth:`~repro.core.matrix.PercentageMatrix.from_areas`.
AREA_TILE_ORDER: Tuple[Tile, ...] = (
    Tile.SW, Tile.W, Tile.NW, Tile.SE, Tile.E, Tile.NE, Tile.S, Tile.N, Tile.B,
)

#: ``1 << tile`` per (column band, row band) — turns a (k, 3, 3)
#: occupancy block into a (k,) uint16 tile bitmask in one reduction.
_TILE_MASKS = np.array(
    [[1 << int(_TILE_GRID[c][r]) for r in range(3)] for c in range(3)],
    dtype=np.uint16,
)

_B_MASK = np.uint16(1 << int(Tile.B))

#: Sentinel band value marking "straddles / touches a grid line" in the
#: vectorised prune (real bands are -1 / 0 / +1).
_NO_BAND = 2


#: The 100 %-in-one-tile matrix of a pair pruned to each tile: one shared
#: object per tile, with float cells (``100.0`` / ``0.0``) like every
#: matrix the kernels compute, so a sweep report never mixes cell types.
PRUNE_MATRICES: Dict[Tile, PercentageMatrix] = {
    tile: PercentageMatrix({t: 100.0 if t is tile else 0.0 for t in Tile})
    for tile in Tile
}


# ---------------------------------------------------------------------------
# Broadcast kernels: one primary against many reference boxes
# ---------------------------------------------------------------------------


def _occupancy_many(
    col_lo: np.ndarray,
    col_hi: np.ndarray,
    row_lo: np.ndarray,
    row_hi: np.ndarray,
) -> np.ndarray:
    """Per-box tile occupancy ``(k, 3, 3)`` from the band intervals.

    A tile is occupied when any edge has a positive-length parameter
    piece in the column ∩ row interval.
    """
    k = col_lo.shape[1]
    occupied = np.zeros((k, 3, 3), dtype=bool)
    for c in range(3):
        for r in range(3):
            lo = np.maximum(col_lo[:, :, c], row_lo[:, :, r])
            hi = np.minimum(col_hi[:, :, c], row_hi[:, :, r])
            occupied[:, c, r] = np.any(hi - lo > _EPSILON, axis=0)
    return occupied


def _tile_area_columns(
    col_lo: np.ndarray,
    col_hi: np.ndarray,
    row_lo: np.ndarray,
    row_hi: np.ndarray,
    arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    lines: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> Dict[Tile, np.ndarray]:
    """The masked trapezoid sums as per-tile ``(k,)`` columns.

    The broadcast counterpart of :func:`repro.core.fast.tile_areas_fast`:
    the trapezoid accumulators of Compute-CDR% are evaluated as
    ``(n_edges, n_boxes)`` masked sums — one numpy pass per tile instead
    of one per pair per tile.  The dict's insertion order is
    :data:`AREA_TILE_ORDER` (load-bearing — see there).
    """
    x1, y1, dx, dy = arrays
    m1, m2, l1, l2 = lines
    x1c, y1c = x1[:, None], y1[:, None]
    dxc, dyc = dx[:, None], dy[:, None]

    def _sanitise(lo: np.ndarray, hi: np.ndarray):
        """Clear the ±inf empty-interval sentinels before arithmetic."""
        valid = hi > lo
        lo = np.where(valid, lo, 0.0)
        hi = np.where(valid, hi, 0.0)
        return lo, hi

    def e_m_sum(lo: np.ndarray, hi: np.ndarray, m: np.ndarray) -> np.ndarray:
        lo, hi = _sanitise(lo, hi)
        length = hi - lo
        x_sum = 2.0 * x1c + (lo + hi) * dxc
        return np.sum(dyc * length * (x_sum - 2.0 * m[None, :]), axis=0) / 2.0

    def e_l_sum(lo: np.ndarray, hi: np.ndarray, l: np.ndarray) -> np.ndarray:
        lo, hi = _sanitise(lo, hi)
        length = hi - lo
        y_sum = 2.0 * y1c + (lo + hi) * dyc
        return np.sum(dxc * length * (y_sum - 2.0 * l[None, :]), axis=0) / 2.0

    def tile_interval(c: int, r: int) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.maximum(col_lo[:, :, c], row_lo[:, :, r]),
            np.minimum(col_hi[:, :, c], row_hi[:, :, r]),
        )

    per_tile: Dict[Tile, np.ndarray] = {}
    for c, m in ((0, m1), (2, m2)):
        for r in range(3):
            lo, hi = tile_interval(c, r)
            per_tile[_TILE_GRID[c][r]] = np.abs(e_m_sum(lo, hi, m))
    lo, hi = tile_interval(1, 0)
    per_tile[Tile.S] = np.abs(e_l_sum(lo, hi, l1))
    lo, hi = tile_interval(1, 2)
    area_n = np.abs(e_l_sum(lo, hi, l2))
    per_tile[Tile.N] = area_n

    # The B+N strip: central column ∩ { y(t) >= l1 } = central column ∩
    # (row 1 ∪ row 2), a single interval because y(t) is monotone.
    strip_lo = np.minimum(row_lo[:, :, 1], row_lo[:, :, 2])
    strip_hi = np.maximum(row_hi[:, :, 1], row_hi[:, :, 2])
    # Rows can be empty (+inf/-inf sentinels); an empty row must not
    # corrupt the union, so fall back to the other row where needed.
    empty_row1 = row_hi[:, :, 1] < row_lo[:, :, 1]
    empty_row2 = row_hi[:, :, 2] < row_lo[:, :, 2]
    strip_lo = np.where(empty_row1, row_lo[:, :, 2], strip_lo)
    strip_lo = np.where(empty_row2, row_lo[:, :, 1], strip_lo)
    strip_hi = np.where(empty_row1, row_hi[:, :, 2], strip_hi)
    strip_hi = np.where(empty_row2, row_hi[:, :, 1], strip_hi)
    lo = np.maximum(col_lo[:, :, 1], strip_lo)
    hi = np.minimum(col_hi[:, :, 1], strip_hi)
    area_bn = np.abs(e_l_sum(lo, hi, l1))
    per_tile[Tile.B] = np.maximum(area_bn - area_n, 0.0)

    return per_tile


def _points_in_region(
    x1: np.ndarray,
    y1: np.ndarray,
    x2: np.ndarray,
    y2: np.ndarray,
    px: np.ndarray,
    py: np.ndarray,
    ring_starts: np.ndarray,
) -> np.ndarray:
    """Boundary-inclusive even–odd membership of points in a region.

    The vectorised counterpart of running
    :func:`repro.geometry.predicates.point_in_ring` over every ring of
    a region — same float operations in the same order, so the plane
    sweep's centre-of-``mbb`` test agrees bit for bit with the per-pair
    kernel's.  Even–odd parity is taken per ring (``ring_starts`` are
    the rings' first edges) and the rings' answers are ORed, so a
    region whose polygons overlap — which a store does not reject —
    gets the per-pair kernel's answer too; any boundary case is caught
    by the on-segment test first, exactly as in the scalar predicate.
    """
    ax, ay = x1[:, None], y1[:, None]
    bx, by = x2[:, None], y2[:, None]
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
    odd = np.logical_xor.reduceat(toggles, ring_starts, axis=0)
    return np.any(odd, axis=0) | np.any(on_segment, axis=0)


# ---------------------------------------------------------------------------
# The sweep engine
# ---------------------------------------------------------------------------


class SweepEngine(Engine):
    """Sweep-optimised backend: prune + cached arrays + broadcast rows.

    Per-pair calls follow the ordinary :class:`Engine` protocol — the
    mbb prune answers trivial exterior placements exactly from box
    arithmetic (path ``"prune"``); everything else takes the float64
    kernel over the cached edge arrays (path ``"fast"``).

    :meth:`sweep_plane` answers whole primary rows: it sweeps a row
    range of a :class:`~repro.core.plane.GeometryPlane` without
    materialising any :class:`~repro.geometry.region.Region` objects —
    pruned columns are filtered out first, the rest go through a single
    broadcast kernel invocation per row (path ``"broadcast"``).  It is
    the path every ``batch_relations`` sweep of this engine takes,
    serial or pooled, the relation store's full matrix fill included.
    It advances ``stats.calls`` by the number of pairs served, so
    pairs-per-second telemetry stays comparable with per-pair engines.
    """

    name = "sweep"
    supports_plane = True

    def __init__(self, *, edge_cache_size: int = DEFAULT_EDGE_CACHE_SIZE) -> None:
        super().__init__(edge_cache_size=edge_cache_size)
        # Pre-seed the paths so telemetry readers always see all keys.
        self.stats.path_counts = {
            PRUNE_PATH: 0,
            BROADCAST_PATH: 0,
            FAST_PATH: 0,
        }

    # -- per-pair protocol -------------------------------------------

    def _relation(self, primary, box):
        tile = single_tile_prune(primary.bounding_box(), box)
        if tile is not None:
            return RELATIONS_BY_MASK[1 << tile], PRUNE_PATH
        relation = compute_cdr_fast_against_box(
            primary, box, arrays=self.edge_arrays(primary)
        )
        return relation, FAST_PATH

    def _percentages(self, primary, box):
        tile = single_tile_prune(primary.bounding_box(), box)
        if tile is not None:
            return PRUNE_MATRICES[tile], PRUNE_PATH
        matrix = PercentageMatrix.from_areas(
            tile_areas_fast(primary, box, arrays=self.edge_arrays(primary))
        )
        return matrix, FAST_PATH

    # -- plane protocol ----------------------------------------------

    def sweep_plane(
        self,
        plane: "GeometryPlane",
        start: int,
        stop: int,
        *,
        include_self: bool = False,
        percentages: bool = False,
        attempt: int = 0,
        row_index: Optional[Sequence[int]] = None,
        column_index: Optional[Sequence[int]] = None,
    ) -> Tuple[int, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Sweep plane rows ``[start, stop)`` against every healthy column.

        The index-addressed row path: geometry comes straight from the
        plane's columnar arrays — no ``Region`` objects, no per-row
        edge rebuilds.  Row results land in full-width arrays indexed
        by global column:

        * ``masks`` — ``(rows, n)`` uint16 tile bitmask per pair
          (``1 << int(tile)``), 0 for self / broken / unswept columns;
        * ``paths`` — ``(rows, n)`` uint8, :data:`PLANE_PATH_PRUNE` /
          :data:`PLANE_PATH_BROADCAST` / 0 (not computed);
        * ``areas`` — ``(rows, n, 9)`` float64 per-tile areas in
          :data:`AREA_TILE_ORDER` for broadcast pairs (``None`` unless
          ``percentages``); pruned pairs are exact 100 %-single-tile by
          construction and carry no float areas.

        Returns ``(rows_done, masks, paths, areas)``.  ``rows_done <
        stop - start`` only when the ambient deadline expired — partial
        work is returned, never discarded; the caller labels the rest.
        Prune decisions match :func:`single_tile_prune`, and each row
        and operation is accounted once, with its prune and broadcast
        pair counts (:meth:`~repro.core.engine.Engine._account`);
        relations and percentages are checked against the exact engine
        by the equivalence suites.

        ``row_index`` / ``column_index`` restrict the sweep to an
        index-supplied subset: ``row_index`` is a list of global plane
        row numbers and ``[start, stop)`` then addresses *positions in
        that list* (so chunk carving stays positional), while
        ``column_index`` limits the reference columns (intersected with
        the healthy set; self-pairs are still excluded by global row
        number).  Result arrays keep their full-width ``(rows, n)``
        global-column layout either way.
        """
        ids = plane.ids
        offsets = plane.offsets
        health = plane.health
        boxes = plane.boxes
        x1, y1 = plane.x1, plane.y1
        x2, y2 = plane.x2, plane.y2
        dx, dy = plane.deltas()
        healthy_columns = plane.healthy_columns()
        if column_index is not None:
            wanted = np.asarray(column_index, dtype=np.int64)
            healthy_columns = healthy_columns[
                np.isin(healthy_columns, wanted)
            ]
        n = plane.size
        rows = stop - start
        masks = np.zeros((rows, n), dtype=np.uint16)
        paths = np.zeros((rows, n), dtype=np.uint8)
        areas = np.zeros((rows, n, 9), dtype=np.float64) if percentages else None
        deadline = current_deadline()
        for row_offset in range(rows):
            position = start + row_offset
            row = position if row_index is None else int(row_index[position])
            if deadline is not None and deadline.expired():
                return row_offset, masks, paths, areas
            if not health[row]:
                continue
            if include_self:
                columns = healthy_columns
            else:
                columns = healthy_columns[healthy_columns != row]
            k = columns.size
            if k == 0:
                continue
            fault_point("batch.row", primary=ids[row], attempt=attempt)

            started = time.perf_counter()
            m1 = boxes[columns, 0]
            m2 = boxes[columns, 1]
            l1 = boxes[columns, 2]
            l2 = boxes[columns, 3]
            p_min_x, p_max_x, p_min_y, p_max_y = boxes[row]
            # The vectorised single-tile prune — float64 mirror of
            # single_tile_prune's strict comparisons (straddle / touch
            # never prunes, strictly-inside-B never prunes).
            col_band = np.where(
                p_max_x < m1,
                -1,
                np.where(
                    p_min_x > m2,
                    1,
                    np.where((m1 < p_min_x) & (p_max_x < m2), 0, _NO_BAND),
                ),
            )
            row_band = np.where(
                p_max_y < l1,
                -1,
                np.where(
                    p_min_y > l2,
                    1,
                    np.where((l1 < p_min_y) & (p_max_y < l2), 0, _NO_BAND),
                ),
            )
            pruned = (
                (col_band != _NO_BAND)
                & (row_band != _NO_BAND)
                & ~((col_band == 0) & (row_band == 0))
            )
            pruned_at = np.nonzero(pruned)[0]
            pending_at = np.nonzero(~pruned)[0]
            row_masks = np.zeros(k, dtype=np.uint16)
            if pruned_at.size:
                row_masks[pruned_at] = _TILE_MASKS[
                    col_band[pruned_at] + 1, row_band[pruned_at] + 1
                ]
            col_lo = col_hi = row_lo = row_hi = None
            edge_first, edge_last = int(offsets[row]), int(offsets[row + 1])
            ex1 = x1[edge_first:edge_last]
            ey1 = y1[edge_first:edge_last]
            edx = dx[edge_first:edge_last]
            edy = dy[edge_first:edge_last]
            if pending_at.size:
                col_lo, col_hi = _axis_band_intervals_many(
                    ex1, edx, m1[pending_at], m2[pending_at], tie_sign=edy
                )
                row_lo, row_hi = _axis_band_intervals_many(
                    ey1, edy, l1[pending_at], l2[pending_at], tie_sign=-edx
                )
                occupied = _occupancy_many(col_lo, col_hi, row_lo, row_hi)
                kernel_masks = (
                    (occupied * _TILE_MASKS[None, :, :])
                    .sum(axis=(1, 2))
                    .astype(np.uint16)
                )
                # The B tile can be covered without any edge crossing it
                # (reference box entirely inside the primary's interior):
                # test the box centre, exactly like the per-pair kernel.
                missing_b = np.nonzero((kernel_masks & _B_MASK) == 0)[0]
                if missing_b.size:
                    centre_x = (m1[pending_at[missing_b]] + m2[pending_at[missing_b]]) / 2.0
                    centre_y = (l1[pending_at[missing_b]] + l2[pending_at[missing_b]]) / 2.0
                    inside = _points_in_region(
                        ex1,
                        ey1,
                        x2[edge_first:edge_last],
                        y2[edge_first:edge_last],
                        centre_x,
                        centre_y,
                        plane.ring_starts(row),
                    )
                    kernel_masks[missing_b[inside]] |= _B_MASK
                row_masks[pending_at] = kernel_masks
            elapsed = time.perf_counter() - started
            masks[row_offset, columns] = row_masks
            paths[row_offset, columns[pruned_at]] = PLANE_PATH_PRUNE
            paths[row_offset, columns[pending_at]] = PLANE_PATH_BROADCAST
            row_paths = {
                PRUNE_PATH: int(pruned_at.size),
                BROADCAST_PATH: int(pending_at.size),
            }
            self._account("relation", elapsed, row_paths)
            if percentages and areas is not None:
                started = time.perf_counter()
                if pending_at.size:
                    per_tile = _tile_area_columns(
                        col_lo,
                        col_hi,
                        row_lo,
                        row_hi,
                        (ex1, ey1, edx, edy),
                        (m1[pending_at], m2[pending_at], l1[pending_at], l2[pending_at]),
                    )
                    areas[row_offset, columns[pending_at], :] = np.stack(
                        [per_tile[tile] for tile in AREA_TILE_ORDER], axis=1
                    )
                self._account("percentages", time.perf_counter() - started, row_paths)
        return rows, masks, paths, areas
