"""The exactness-fallback ladder: fast float path, exact safety net.

:mod:`repro.core.fast` computes relations over float64 numpy arrays and
admits being "only as exact as float64" for ties at grid lines.  The
reference implementations (:mod:`repro.core.compute`,
:mod:`repro.core.percentages`) are exact over Python's numeric tower but
process one edge at a time.  This module ties the two into a ladder:

1. **detect ill-conditioning** — vectorised, on the same edge arrays the
   fast path consumes: an edge endpoint within a configurable relative
   ``epsilon`` of a grid line of ``mbb(b)``, or a grid-line crossing
   whose edge parameter grazes 0 or 1 (a crossing essentially at a
   vertex).  Both are exactly the situations where float64 may land on
   the wrong side of a tie;
2. **run the fast path** when no risk is flagged, sharing the edge
   arrays with the detector so the guard adds only a few O(n) numpy
   comparisons;
3. **fall back to the exact reference** when a risk was flagged, when
   the fast path raises, or — for percentages — when the fast tile areas
   drift from the region's own (shoelace) area by more than the drift
   tolerance;
4. **record which path answered** (and why) in a
   :class:`GuardDiagnostics` object attached to every result.

Floatification of exact (:class:`fractions.Fraction`) coordinates is
covered by the same net: a Fraction whose float image could flip a tie
is, by construction, within float distance of a grid line, which the
epsilon proximity test flags long before (``epsilon`` defaults to 1e-9
relative, nine orders of magnitude above float64 rounding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.core.compute import (
    RegionLike,
    _as_region,
    compute_cdr_against_box,
)
from repro.core.fast import (
    EdgeArrays,
    _edges_of,
    compute_cdr_fast_against_box,
    tile_areas_fast,
)
from repro.core.matrix import PercentageMatrix
from repro.core.percentages import compute_cdr_percentages_against_box
from repro.errors import RelationError
from repro.geometry.bbox import BoundingBox
from repro.geometry.region import Region
from repro.obs.metrics import current_metrics
from repro.resilience.deadline import current_deadline


def _count_fallback(operation: str, reasons: Tuple[str, ...]) -> None:
    """Account one exact-path fallback in the installed metrics registry.

    One increment per flagged reason (a pair can trip several), so the
    ``repro_guard_fallback_total{operation, reason}`` series answers
    "which ill-conditioning class is costing us the fast path".
    """
    registry = current_metrics()
    if registry is None:
        return
    counter = registry.counter(
        "repro_guard_fallback_total",
        "Guarded-ladder exact fallbacks, by flagged reason.",
    )
    for reason in reasons or ("unflagged",):
        counter.inc(operation=operation, reason=reason)

#: Relative distance to a grid line (or to an edge endpoint, in crossing
#: parameter space) under which the float fast path is not trusted.
DEFAULT_EPSILON = 1e-9

#: Relative drift allowed between the fast path's tile-area sum and the
#: region's own area before the percentages fall back to the exact path.
DEFAULT_DRIFT_TOLERANCE = 1e-6

#: Paths of the ladder.
FAST_PATH = "fast"
EXACT_PATH = "exact"


@dataclass(frozen=True)
class GuardDiagnostics:
    """Which rung of the ladder answered, and why."""

    path: str  # FAST_PATH or EXACT_PATH
    reasons: Tuple[str, ...] = ()
    epsilon: float = DEFAULT_EPSILON

    @property
    def took_fast_path(self) -> bool:
        return self.path == FAST_PATH

    def __str__(self) -> str:
        if not self.reasons:
            return self.path
        return f"{self.path} ({', '.join(self.reasons)})"


class GuardedValue(NamedTuple):
    """A computed result plus the diagnostics of how it was obtained."""

    value: object
    diagnostics: GuardDiagnostics


def _risk_reasons(
    arrays: EdgeArrays, box: BoundingBox, epsilon: float
) -> Tuple[str, ...]:
    """Ill-conditioning flags for a primary (as edge arrays) vs a box."""
    x1, y1, dx, dy = arrays.x1, arrays.y1, arrays.dx, arrays.dy
    m1, m2 = float(box.min_x), float(box.max_x)
    l1, l2 = float(box.min_y), float(box.max_y)
    reasons = []

    # Every vertex occurs as the start of exactly one edge, so x1/y1
    # cover all endpoints.  Tolerances are relative to the grid scale.
    tol_x = epsilon * max(1.0, abs(m1), abs(m2))
    tol_y = epsilon * max(1.0, abs(l1), abs(l2))
    if bool(
        np.any(np.abs(x1 - m1) <= tol_x) or np.any(np.abs(x1 - m2) <= tol_x)
    ):
        reasons.append("endpoint-near-vertical-grid-line")
    if bool(
        np.any(np.abs(y1 - l1) <= tol_y) or np.any(np.abs(y1 - l2) <= tol_y)
    ):
        reasons.append("endpoint-near-horizontal-grid-line")

    # Two more risks live at the crossings themselves.  A crossing
    # parameter grazing 0 or 1 is a grid line passing through the
    # immediate neighbourhood of a vertex of a *long* edge — the
    # endpoint test above can miss it because its tolerance is in
    # coordinate space, not parameter space.  And an edge crossing one
    # grid line *at* the perpendicular coordinate of another passes
    # through the immediate neighbourhood of a grid corner: the sliver
    # it cuts into the diagonal tile can be shorter than the fast path's
    # degeneracy threshold while both endpoints are far from every line.
    # One (2, n) division per axis feeds both checks (both lines of the
    # axis broadcast at once; a fully stacked (2, 2, n) pass measures
    # *slower* — the larger temporaries fall out of cache).  Constant
    # edges need no masking: 0-division yields inf/nan, which fails
    # every comparison below.
    grazing = corner = False
    with np.errstate(divide="ignore", invalid="ignore"):
        for start, delta, other_start, other_delta, lines, other_lines, tol in (
            (x1, dx, y1, dy, (m1, m2), (l1, l2), tol_y),
            (y1, dy, x1, dx, (l1, l2), (m1, m2), tol_x),
        ):
            t = (np.array(lines).reshape(2, 1) - start) / delta
            if not grazing and bool(
                np.any((np.abs(t) <= epsilon) | (np.abs(t - 1.0) <= epsilon))
            ):
                grazing = True
            inside = (t > 0.0) & (t < 1.0)
            cross = other_start + t * other_delta
            near = (np.abs(cross - other_lines[0]) <= tol) | (
                np.abs(cross - other_lines[1]) <= tol
            )
            if not corner and bool(np.any(inside & near)):
                corner = True
    if grazing:
        reasons.append("crossing-grazes-vertex")
    if corner:
        reasons.append("crossing-near-grid-corner")
    return tuple(reasons)


def _float_region_area(arrays: EdgeArrays) -> float:
    """The region's total area from its edge arrays (float shoelace).

    Valid for clockwise polygons with disjoint interiors: every
    polygon's signed contribution has the same sign, so the absolute
    value of the global sum is the total area.
    """
    x1, y1, dx, dy = arrays.x1, arrays.y1, arrays.dx, arrays.dy
    return abs(float(np.sum(x1 * dy - y1 * dx))) / 2.0


def guarded_cdr(
    primary: RegionLike,
    reference: RegionLike,
    *,
    epsilon: float = DEFAULT_EPSILON,
) -> GuardedValue:
    """Compute-CDR through the ladder.

    Returns ``GuardedValue(relation, diagnostics)``; the relation is the
    fast path's answer when the input is well-conditioned and the exact
    reference's answer otherwise.
    """
    primary_region = _as_region(primary)
    box = _as_region(reference).bounding_box()
    return guarded_cdr_against_box(primary_region, box, epsilon=epsilon)


def guarded_percentages(
    primary: RegionLike,
    reference: RegionLike,
    *,
    epsilon: float = DEFAULT_EPSILON,
    drift_tolerance: float = DEFAULT_DRIFT_TOLERANCE,
) -> GuardedValue:
    """Compute-CDR% through the ladder.

    In addition to the precondition check, the fast result is accepted
    only when its tile-area sum matches the region's own float area
    within ``drift_tolerance`` (relative) — the post-hoc symptom of a
    tie broken the wrong way — and when it forms a valid percentage
    matrix at all.
    """
    primary_region = _as_region(primary)
    box = _as_region(reference).bounding_box()
    return guarded_percentages_against_box(
        primary_region, box, epsilon=epsilon, drift_tolerance=drift_tolerance
    )


def guarded_percentages_against_box(
    primary: Region,
    box: BoundingBox,
    *,
    epsilon: float = DEFAULT_EPSILON,
    drift_tolerance: float = DEFAULT_DRIFT_TOLERANCE,
    arrays: Optional[Tuple[np.ndarray, ...]] = None,
) -> GuardedValue:
    """Ladder variant of :func:`compute_cdr_percentages_against_box`.

    ``arrays`` lets a caller that already holds the primary's edge
    arrays (the engine layer's per-primary cache, or a preceding
    :func:`guarded_cdr_against_box` call on the same primary) share one
    build between the relation and percentage computations of a pair —
    historically both entry points rebuilt them independently, doubling
    the dominant cost of every percentages-bearing pair.
    """
    edges = _edges_of(primary, arrays)
    reasons = list(_risk_reasons(edges, box, epsilon))
    if not reasons:
        try:
            areas = tile_areas_fast(primary, box, arrays=edges)
            total = sum(areas.values())
            region_area = _float_region_area(edges)
            drift = abs(total - region_area)
            if drift <= drift_tolerance * max(1.0, region_area):
                return GuardedValue(
                    PercentageMatrix.from_areas(areas),
                    GuardDiagnostics(FAST_PATH, (), epsilon),
                )
            reasons.append("tile-area-drift")
        except RelationError:
            reasons.append("invalid-fast-result")
    # The exact reference is the expensive rung of the ladder — refuse
    # to start it on an already-expired budget.
    deadline = current_deadline()
    if deadline is not None:
        deadline.check("guarded.percentages.exact")
    matrix = compute_cdr_percentages_against_box(primary, box)
    _count_fallback("percentages", tuple(reasons))
    return GuardedValue(
        matrix, GuardDiagnostics(EXACT_PATH, tuple(reasons), epsilon)
    )


def box_region(box: BoundingBox) -> Region:
    """A rectangle region whose mbb is exactly ``box``.

    The fast path takes a reference *region*; when only the box is known
    (store caches mbbs) this adapter avoids re-deriving it.
    """
    from repro.geometry.polygon import Polygon
    from repro.geometry.point import Point

    return Region.from_polygon(
        Polygon(
            (
                Point(box.min_x, box.min_y),
                Point(box.min_x, box.max_y),
                Point(box.max_x, box.max_y),
                Point(box.max_x, box.min_y),
            )
        )
    )


def guarded_cdr_against_box(
    primary: Region,
    box: BoundingBox,
    *,
    epsilon: float = DEFAULT_EPSILON,
    arrays: Optional[Tuple[np.ndarray, ...]] = None,
) -> GuardedValue:
    """Ladder variant of :func:`compute_cdr_against_box` (cached-mbb use).

    ``arrays`` shares a previously-built edge-array set (see
    :func:`guarded_percentages_against_box`).
    """
    edges = _edges_of(primary, arrays)
    reasons = _risk_reasons(edges, box, epsilon)
    if not reasons:
        relation = compute_cdr_fast_against_box(primary, box, arrays=edges)
        return GuardedValue(relation, GuardDiagnostics(FAST_PATH, (), epsilon))
    deadline = current_deadline()
    if deadline is not None:
        deadline.check("guarded.relation.exact")
    relation = compute_cdr_against_box(primary, box)
    _count_fallback("relation", reasons)
    return GuardedValue(relation, GuardDiagnostics(EXACT_PATH, reasons, epsilon))


