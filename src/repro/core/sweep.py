"""The sweep-optimised compute layer: all-pairs relation extraction.

CARDIRECT's core workload is the all-pairs sweep — "compute the
(percentage) relations between all regions" (Section 4 of the paper) —
and large constraint networks (Zhang et al., *Reasoning about Cardinal
Directions between Extended Objects*) need exactly this n×n extraction
to be cheap before consistency checking is practical at scale.  The
historical path was a Python pair-by-pair loop that rebuilt each
primary's edge arrays O(n) times per sweep.  This module stacks three
optimisations (its per-pair calls also read the engine layer's
per-primary edge cache; the plane sweep needs none):

1. **mbb single-tile prune** (:func:`repro.core.tiles.single_tile_prune`)
   — when ``mbb(primary)`` lies *strictly* inside one non-``B`` tile of
   ``mbb(reference)``, the whole primary lies there, so the single-tile
   relation (and a 100 % :class:`~repro.core.matrix.PercentageMatrix`)
   follows from box arithmetic alone — exact over the native coordinate
   types, no edge scan, no float.  Boundary contact never prunes: the
   comparisons are strict, so grazing pairs take the full kernel;
2. **broadcast rows** — one primary is classified against *all*
   remaining reference boxes by one call of the float64 kernel of
   :mod:`repro.core.fast`, which takes ``k`` boxes at once (the
   per-pair path is its ``k = 1`` case), amortising the per-call numpy
   dispatch overhead that dominates per-pair sweeps of small regions;
3. **the plane sweep** — :meth:`SweepEngine.sweep_plane` (registry
   name ``"sweep"``) runs both over a row range of a
   :class:`~repro.core.plane.GeometryPlane`, the configuration
   flattened into columnar arrays.  It is the one all-pairs path:
   every ``batch_relations`` sweep of this engine goes through it
   (:mod:`repro.core.batch`), serially as an inline run, under
   ``workers=N`` in each pool worker, and so does a full fill of
   :class:`~repro.cardirect.store.RelationStore`'s matrix.  Path
   telemetry distinguishes ``"prune"``, ``"broadcast"`` and ``"fast"``
   (the per-pair protocol) in ``EngineStats.path_counts``.

Semantics: the prune path is exact; the kernel paths are float64 — the
``"fast"`` and ``"broadcast"`` paths run the same functions of
:mod:`repro.core.fast`, so their relations agree and their percentages
differ only in the summation order over ``k`` boxes (the equivalence
property tests cross-validate every path against the exact reference).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import DEFAULT_EDGE_CACHE_SIZE, Engine
from repro.core.fast import (
    _TILE_MASKS,
    _intervals,
    _tile_area_columns,
    _tile_masks,
    compute_cdr_fast_against_box,
    compute_cdr_percentages_fast_against_box,
)
from repro.core.matrix import PercentageMatrix
from repro.core.relation import RELATIONS_BY_MASK
from repro.core.tiles import Tile, single_tile_prune
from repro.resilience.deadline import current_deadline
from repro.resilience.faults import current_injector

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
    pruned columns are filtered out first, the rest go through one call
    of the :mod:`repro.core.fast` kernel per row (path ``"broadcast"``).  It is
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
        matrix = compute_cdr_percentages_fast_against_box(
            primary, box, arrays=self.edge_arrays(primary)
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
          :data:`~repro.core.fast.AREA_TILE_ORDER` for broadcast pairs (``None`` unless
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
        health = plane.health
        boxes = plane.boxes
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
        injector = current_injector()
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
            if injector is not None:
                injector.trigger("batch.row", primary=ids[row], attempt=attempt)

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
            if pending_at.size:
                edges = plane.edge_arrays(row)
                lines = (m1[pending_at], m2[pending_at], l1[pending_at], l2[pending_at])
                intervals = _intervals(edges, lines)
                row_masks[pending_at] = _tile_masks(edges, lines, intervals)
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
                    areas[row_offset, columns[pending_at], :] = _tile_area_columns(
                        edges, lines, intervals
                    )
                self._account("percentages", time.perf_counter() - started, row_paths)
        return rows, masks, paths, areas
