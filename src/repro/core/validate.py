"""Structured validation of regions and configurations.

The constructors in :mod:`repro.geometry` enforce the *cheap* invariants
(≥3 vertices, non-zero area, clockwise order).  Two further invariants of
the paper's data model are quadratic to check and therefore opt-in:

* every polygon is **simple** (Section 3's representation assumes it);
* the polygons of one region have **pairwise disjoint interiors**
  (Definition 1's parts "have disjoint interiors but may share points in
  their boundaries").

:func:`validate_region` checks both; :func:`validate_configuration` runs
them over every annotated region and additionally flags *inter*-region
interior overlaps (legal for the algorithms, which treat regions
independently, but usually an annotation mistake — reported as a
warning).  The CLI's ``validate --strict`` surfaces all of it.

Both checks run on every region before a batch sweep computes any pair,
so they never divide.  Edge pairs whose bounding boxes are disjoint are
skipped; contact is read from the signs of cross-product numerators
(:func:`~repro.geometry.predicates.crossing_numerators`), and the
midpoint probes run on doubled coordinates, where the midpoint of ``ab``
is ``a + b``.  Integer coordinates therefore stay integers throughout,
and for ``int`` and ``Fraction`` input every answer is exactly the one
the divided-out parameters give.

:func:`repair_validated_region` / :func:`repair_validated_configuration`
close the loop with the repair pipeline (:mod:`repro.geometry.repair`):
they route geometry through ``repair_region``, translate every applied
fix into a warning-severity :class:`ValidationIssue`, and re-validate the
result so residual (unrepairable) defects surface as errors.  The CLI's
``validate --repair`` is a thin wrapper over them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.geometry.point import Coordinate

from repro.cardirect.model import Configuration
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import (
    EdgeBox,
    boxes_disjoint,
    crossing_numerators,
    edge_boxes,
    point_strictly_inside,
)
from repro.geometry.region import Region

#: Issue severities: errors break the algorithms' assumptions; warnings
#: are legal but suspicious.
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class ValidationIssue:
    """One finding of the validator."""

    severity: str
    code: str
    message: str
    region_id: Optional[str] = None

    def __str__(self) -> str:
        scope = f" [{self.region_id}]" if self.region_id else ""
        return f"{self.severity}{scope}: {self.message}"


def _edges_properly_cross(first: EdgeBox, second: EdgeBox) -> bool:
    """Strict interior crossing of two edges (shared endpoints allowed)."""
    denom, t_num, u_num = crossing_numerators(first, second)
    return 0 < t_num < denom and 0 < u_num < denom


def _doubled(
    polygon: Polygon,
) -> Tuple[List[EdgeBox], List[Tuple[Coordinate, Coordinate]]]:
    """The polygon scaled by two: its edges, and its vertices followed by
    its edge midpoints.

    Scaling by two changes no sign or comparison below, and puts every
    edge midpoint on the coordinates' own type — the doubled midpoint of
    ``ab`` is ``a + b`` — so integer input is never halved into
    fractions.
    """
    vertices = polygon.vertices
    doubled = [(2 * vertex.x, 2 * vertex.y) for vertex in vertices]
    midpoints = [
        (start.x + end.x, start.y + end.y)
        for start, end in zip(vertices, vertices[1:] + vertices[:1])
    ]
    return edge_boxes(doubled), doubled + midpoints


def polygons_interiors_overlap(first: Polygon, second: Polygon) -> bool:
    """Do two simple polygons share interior points?

    Checks for proper edge crossings, vertices of one strictly
    inside the other (containment without boundary crossing), and edge
    midpoints strictly inside the other (crossings that pass exactly
    through vertices).  This decides every practically occurring
    configuration; the one blind spot is an overlap whose *entire*
    boundary interaction runs through coincident vertices with all
    midpoints outside — detecting that exactly requires full polygon
    boolean operations, which a diagnostics pass does not justify.

    Every test runs on doubled coordinates (see :func:`_doubled`) and
    decides from signs and comparisons, so nothing is divided.
    """
    if not first.bounding_box().intersects(second.bounding_box()):
        return False
    first_edges, first_probes = _doubled(first)
    second_edges, second_probes = _doubled(second)
    for edge_a in first_edges:
        for edge_b in second_edges:
            if not boxes_disjoint(edge_a, edge_b) and _edges_properly_cross(
                edge_a, edge_b
            ):
                return True
    if any(point_strictly_inside(x, y, second_edges) for x, y in first_probes):
        return True
    return any(point_strictly_inside(x, y, first_edges) for x, y in second_probes)


def validate_region(
    region: Region, *, region_id: Optional[str] = None
) -> List[ValidationIssue]:
    """Check the expensive representation invariants of one region."""
    issues: List[ValidationIssue] = []
    polygons = region.polygons
    for index, polygon in enumerate(polygons):
        if not polygon.is_simple():
            issues.append(
                ValidationIssue(
                    ERROR,
                    "non-simple-polygon",
                    f"polygon #{index} self-intersects",
                    region_id,
                )
            )
    for i in range(len(polygons)):
        for j in range(i + 1, len(polygons)):
            if polygons_interiors_overlap(polygons[i], polygons[j]):
                issues.append(
                    ValidationIssue(
                        ERROR,
                        "overlapping-parts",
                        f"polygons #{i} and #{j} have overlapping interiors "
                        "(Definition 1 requires disjoint interiors)",
                        region_id,
                    )
                )
    return issues


def validate_configuration(
    configuration: Configuration, *, check_cross_overlaps: bool = True
) -> List[ValidationIssue]:
    """Validate every region, plus cross-region overlap warnings."""
    issues: List[ValidationIssue] = []
    annotated = configuration.regions()
    for entry in annotated:
        issues.extend(validate_region(entry.region, region_id=entry.id))
    if check_cross_overlaps:
        for i in range(len(annotated)):
            for j in range(i + 1, len(annotated)):
                if _regions_interiors_overlap(
                    annotated[i].region, annotated[j].region
                ):
                    issues.append(
                        ValidationIssue(
                            WARNING,
                            "regions-overlap",
                            f"regions {annotated[i].id!r} and "
                            f"{annotated[j].id!r} have overlapping interiors",
                        )
                    )
    return issues


def repair_validated_region(
    region: Region,
    *,
    region_id: Optional[str] = None,
    mode: str = "repair",
    snap_tolerance: Optional[Coordinate] = None,
) -> Tuple[Region, List[ValidationIssue]]:
    """Repair a region and report what changed as validation issues.

    Every :class:`~repro.geometry.repair.RepairAction` becomes a
    warning-severity issue (same ``code``), and the repaired region is
    re-validated so defects the pipeline cannot fix (e.g. overlapping
    parts) come back as errors.  Raises
    :class:`~repro.errors.GeometryError` when no faithful repair exists —
    ``strict`` mode on any defect, every mode on a region left empty.
    """
    from repro.geometry.repair import repair_region

    repaired, report = repair_region(
        region, mode=mode, snap_tolerance=snap_tolerance, region_id=region_id
    )
    issues = [
        ValidationIssue(WARNING, action.code, str(action), region_id)
        for action in report.actions
    ]
    issues.extend(validate_region(repaired, region_id=region_id))
    return repaired, issues


def repair_validated_configuration(
    configuration: Configuration,
    *,
    mode: str = "repair",
    snap_tolerance: Optional[Coordinate] = None,
) -> Tuple[Configuration, List[ValidationIssue]]:
    """Repair every region of a configuration, preserving annotations.

    Returns a new :class:`Configuration` (ids, names and colours kept)
    plus the combined issue list.  Propagates
    :class:`~repro.errors.GeometryError` from regions with no faithful
    repair — callers wanting per-region fault isolation instead should
    use :func:`repro.core.batch.batch_relations`.
    """
    issues: List[ValidationIssue] = []
    repaired_regions = []
    for annotated in configuration:
        repaired, region_issues = repair_validated_region(
            annotated.region,
            region_id=annotated.id,
            mode=mode,
            snap_tolerance=snap_tolerance,
        )
        repaired_regions.append(replace(annotated, region=repaired))
        issues.extend(region_issues)
    repaired_configuration = Configuration.from_regions(
        repaired_regions,
        image_name=configuration.image_name,
        image_file=configuration.image_file,
    )
    return repaired_configuration, issues


def _regions_interiors_overlap(first: Region, second: Region) -> bool:
    if not first.bounding_box().intersects(second.bounding_box()):
        return False
    return any(
        polygons_interiors_overlap(p, q)
        for p in first.polygons
        for q in second.polygons
    )
