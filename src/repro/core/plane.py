"""The geometry plane: one flattened configuration for the sweep kernel.

Every ``sweep`` of a plane engine (``Engine.supports_plane``) runs
:meth:`~repro.core.sweep.SweepEngine.sweep_plane` over a
:class:`GeometryPlane` — the validated/repaired configuration flattened
**once** into columnar float64/int64 numpy arrays, addressed by row
index, with no :class:`~repro.geometry.region.Region` objects left::

    offsets  int64   (n+1)    per-region edge ranges (broken rows empty)
    rings    int64   (P)      each polygon's first edge, in edge order
    boxes    float64 (n, 4)   mbb per region: min_x, max_x, min_y, max_y
    health   uint8   (n)      1 = usable, 0 = broken (box row is NaN)
    x1 y1 x2 y2  float64 (E)  edge endpoints, concatenated in id order

A serial sweep hands the plane to the kernel inline; under
``workers=N`` the pool initializer receives the same object, which
workers inherit under ``fork`` and receive as one pickled copy each
under ``spawn`` / ``forkserver`` — never once per chunk.  Edge
endpoints are stored as ``(x1, y1, x2, y2)`` — *not* ``(dx, dy)`` — so
the exact float64 vertex values of :func:`repro.core.fast._edge_arrays`
are kept; the deltas are derived with the same ``x2 - x1`` subtraction
the per-pair kernel performs.

Coordinate caveat: the plane is float64.  ``int`` coordinates (and any
float input) are preserved exactly; ``Fraction`` coordinates beyond
float64 precision are rounded at :func:`build` time, exactly as the
per-pair float kernels round them at :func:`repro.core.fast._edge_arrays`
time — the prune path, however, compares float boxes here where the
per-pair prune compares native types, so astronomically large exact
coordinates may prune differently.  The equivalence suites cover the
int/float workloads the repo generates.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.bbox import BoundingBox
from repro.geometry.region import Region

__all__ = ["GeometryPlane"]


def _region_edges(region: Region) -> Tuple[list, list, list, list]:
    """Edge endpoints as float lists — the loop of ``_edge_arrays``,
    keeping ``(x2, y2)`` instead of folding them into deltas."""
    x1_list: list = []
    y1_list: list = []
    x2_list: list = []
    y2_list: list = []
    for polygon in region.polygons:
        vertices = polygon.vertices
        count = len(vertices)
        for i in range(count):
            a, b = vertices[i], vertices[(i + 1) % count]
            x1_list.append(float(a.x))
            y1_list.append(float(a.y))
            x2_list.append(float(b.x))
            y2_list.append(float(b.y))
    return x1_list, y1_list, x2_list, y2_list


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
        box_rows = np.full((n, 4), np.nan, dtype=np.float64)
        health = np.zeros(n, dtype=np.uint8)
        rings: list = []
        x1_all: list = []
        y1_all: list = []
        x2_all: list = []
        y2_all: list = []
        for index, region_id in enumerate(all_ids):
            region = healthy.get(region_id)
            if region is None:
                offsets[index + 1] = offsets[index]
                continue
            x1_list, y1_list, x2_list, y2_list = _region_edges(region)
            edge = len(x1_all)
            for polygon in region.polygons:
                rings.append(edge)
                edge += len(polygon.vertices)
            x1_all.extend(x1_list)
            y1_all.extend(y1_list)
            x2_all.extend(x2_list)
            y2_all.extend(y2_list)
            offsets[index + 1] = offsets[index] + len(x1_list)
            box = boxes[region_id]
            box_rows[index] = (
                float(box.min_x),
                float(box.max_x),
                float(box.min_y),
                float(box.max_y),
            )
            health[index] = 1
        return cls(
            ids=tuple(all_ids),
            offsets=offsets,
            rings=np.asarray(rings, dtype=np.int64),
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
        """``(dx, dy)`` — derived lazily with the per-pair kernel's
        exact ``x2 - x1`` subtraction, cached per plane."""
        if self._deltas is None:
            self._deltas = (self.x2 - self.x1, self.y2 - self.y1)
        return self._deltas

    def healthy_columns(self) -> np.ndarray:
        """Indices of usable rows (the sweep's reference columns)."""
        if self._healthy_columns is None:
            self._healthy_columns = np.nonzero(self.health)[0]
        return self._healthy_columns

    def ring_starts(self, row: int) -> np.ndarray:
        """The first edge of each of a row's polygons, counted from the
        row's own first edge."""
        first, last = self.edge_slice(row)
        lo, hi = np.searchsorted(self.rings, (first, last))
        return self.rings[lo:hi] - first

    def edge_slice(self, row: int) -> Tuple[int, int]:
        """The ``[start, stop)`` edge-array range of one region row."""
        return int(self.offsets[row]), int(self.offsets[row + 1])
