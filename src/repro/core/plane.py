"""The geometry plane: one flattened configuration for the sweep kernel.

Every ``sweep`` of a plane engine (``Engine.supports_plane``) runs
:meth:`~repro.core.sweep.SweepEngine.sweep_plane` over a
:class:`GeometryPlane` — the validated/repaired configuration flattened
**once** into columnar float64/int64 numpy arrays, addressed by row
index, with no :class:`~repro.geometry.region.Region` objects left::

    offsets  int64   (n+1)    per-region edge ranges (broken rows empty)
    rings    int64   (P)      each polygon's first edge, counted from its
                              region's first edge, in edge order
    ring_offsets int64 (n+1)  per-region ranges of ``rings``
    boxes    float64 (n, 4)   mbb per region: min_x, max_x, min_y, max_y
    health   uint8   (n)      1 = usable, 0 = broken (box row is NaN)
    x1 y1 x2 y2  float64 (E)  edge endpoints, concatenated in id order

A serial sweep hands the plane to the kernel inline; under
``workers=N`` the pool initializer receives the same object, which
workers inherit under ``fork`` and receive as one pickled copy each
under ``spawn`` / ``forkserver`` — never once per chunk.  The plane is
built from the per-region edge loop of :func:`repro.core.fast._edge_lists`
and hands the kernel each row as the same
:class:`~repro.core.fast.EdgeArrays` the per-pair path builds
(:meth:`GeometryPlane.edge_arrays`): endpoints are stored as ``(x1, y1,
x2, y2)`` so the exact float64 vertex values are kept, and the deltas
are derived with the same ``x2 - x1`` subtraction.

Coordinate caveat: the plane is float64.  ``int`` coordinates (and any
float input) are preserved exactly; ``Fraction`` coordinates beyond
float64 precision are rounded at :func:`build` time, exactly as the
per-pair calls of the kernel round them at
:func:`repro.core.fast._edge_arrays` time.  The kernel's
centre-of-``mbb`` test is exact while the coordinate products it forms
stay below 2^53, per pair as over the plane.  The prune path, however,
compares float boxes here where the per-pair prune compares native
types, so astronomically large exact coordinates may prune differently.
The equivalence suites cover the int/float workloads the repo
generates.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.fast import EdgeArrays, _edge_lists
from repro.geometry.bbox import BoundingBox
from repro.geometry.region import Region

__all__ = ["GeometryPlane"]


class GeometryPlane:
    """A flattened configuration in plain numpy arrays.

    Build once (:meth:`build`), address regions by row index everywhere.
    """

    def __init__(
        self,
        *,
        ids: Tuple[str, ...],
        offsets: np.ndarray,
        rings: np.ndarray,
        ring_offsets: np.ndarray,
        boxes: np.ndarray,
        health: np.ndarray,
        x1: np.ndarray,
        y1: np.ndarray,
        x2: np.ndarray,
        y2: np.ndarray,
    ) -> None:
        self.ids = ids
        self.offsets = offsets
        self.rings = rings
        self.ring_offsets = ring_offsets
        self.boxes = boxes
        self.health = health
        self.x1 = x1
        self.y1 = y1
        self.x2 = x2
        self.y2 = y2
        self._deltas: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._healthy_columns: Optional[np.ndarray] = None

    @classmethod
    def build(
        cls,
        all_ids: Sequence[str],
        *,
        healthy: Mapping[str, Region],
        boxes: Mapping[str, BoundingBox],
    ) -> "GeometryPlane":
        """Flatten one configuration.

        ``all_ids`` fixes the row order (it must cover every key of
        ``healthy``); the rows of ids missing from ``healthy`` (broken
        regions) get zero edges, a NaN box and ``health == 0`` so the
        kernel can skip them without any per-id lookups.
        """
        n = len(all_ids)
        offsets = np.zeros(n + 1, dtype=np.int64)
        ring_offsets = np.zeros(n + 1, dtype=np.int64)
        box_rows = np.full((n, 4), np.nan, dtype=np.float64)
        health = np.zeros(n, dtype=np.uint8)
        rings: list = []
        x1_all: list = []
        y1_all: list = []
        x2_all: list = []
        y2_all: list = []
        for index, region_id in enumerate(all_ids):
            region = healthy.get(region_id)
            if region is not None:
                x1_list, y1_list, x2_list, y2_list, ring_list = _edge_lists(region)
                rings.extend(ring_list)
                x1_all.extend(x1_list)
                y1_all.extend(y1_list)
                x2_all.extend(x2_list)
                y2_all.extend(y2_list)
                box = boxes[region_id]
                box_rows[index] = (
                    float(box.min_x),
                    float(box.max_x),
                    float(box.min_y),
                    float(box.max_y),
                )
                health[index] = 1
            offsets[index + 1] = len(x1_all)
            ring_offsets[index + 1] = len(rings)
        return cls(
            ids=tuple(all_ids),
            offsets=offsets,
            rings=np.asarray(rings, dtype=np.int64),
            ring_offsets=ring_offsets,
            boxes=box_rows,
            health=health,
            x1=np.asarray(x1_all, dtype=np.float64),
            y1=np.asarray(y1_all, dtype=np.float64),
            x2=np.asarray(x2_all, dtype=np.float64),
            y2=np.asarray(y2_all, dtype=np.float64),
        )

    # -- derived views ------------------------------------------------

    @property
    def size(self) -> int:
        """Region (row) count, broken rows included."""
        return len(self.ids)

    def deltas(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(dx, dy)`` — derived lazily with the exact ``x2 - x1``
        subtraction of :func:`repro.core.fast._edge_arrays`, cached per
        plane."""
        if self._deltas is None:
            self._deltas = (self.x2 - self.x1, self.y2 - self.y1)
        return self._deltas

    def healthy_columns(self) -> np.ndarray:
        """Indices of usable rows (the sweep's reference columns)."""
        if self._healthy_columns is None:
            self._healthy_columns = np.nonzero(self.health)[0]
        return self._healthy_columns

    def edge_arrays(self, row: int) -> EdgeArrays:
        """One region row's edges as the kernel takes them: views into
        the plane's columns, no copy."""
        first, last = self.edge_slice(row)
        dx, dy = self.deltas()
        return EdgeArrays(
            self.x1[first:last],
            self.y1[first:last],
            dx[first:last],
            dy[first:last],
            self.x2[first:last],
            self.y2[first:last],
            self.rings[int(self.ring_offsets[row]) : int(self.ring_offsets[row + 1])],
        )

    def edge_slice(self, row: int) -> Tuple[int, int]:
        """The ``[start, stop)`` edge-array range of one region row."""
        return int(self.offsets[row]), int(self.offsets[row + 1])
