"""E15 — ablation: interior-side vs naive midpoint classification.

DESIGN.md §5: the paper's "middle point" rule is ambiguous for sub-edges
lying on grid lines.  This bench shows (a) the interior-side rule costs
nothing measurable, and (b) on grid-aligned workloads the naive rule
reports wrong relations — quantified as a defect rate.
"""

import pytest

from repro.core.split import divide_region_edges
from repro.core.relation import CardinalDirection
from repro.geometry.region import Region

from benchmarks.conftest import star_workload


@pytest.fixture(scope="module")
def float_workload():
    return star_workload(1024)


@pytest.fixture(scope="module")
def grid_aligned_cases():
    """Regions flush against the reference grid lines of [0,10]^2."""
    reference = Region.from_coordinates([[(0, 0), (0, 10), (10, 10), (10, 0)]])
    flush = [
        Region.from_coordinates([[(-4, 2), (-4, 8), (0, 8), (0, 2)]]),     # W
        Region.from_coordinates([[(10, 2), (10, 8), (14, 8), (14, 2)]]),   # E
        Region.from_coordinates([[(2, 10), (2, 14), (8, 14), (8, 10)]]),   # N
        Region.from_coordinates([[(2, -4), (2, 0), (8, 0), (8, -4)]]),     # S
        Region.from_coordinates([[(0, 0), (0, 10), (10, 10), (10, 0)]]),   # B
    ]
    truths = [CardinalDirection.parse(t) for t in ("W", "E", "N", "S", "B")]
    return reference, flush, truths


@pytest.mark.benchmark(group="ablation-split")
def test_interior_rule_speed(benchmark, float_workload, reference):
    box = reference.bounding_box()
    pieces = benchmark(divide_region_edges, float_workload, box)
    assert pieces


@pytest.mark.benchmark(group="ablation-split")
def test_naive_rule_speed(benchmark, float_workload, reference):
    box = reference.bounding_box()
    pieces = benchmark(divide_region_edges, float_workload, box, naive=True)
    assert pieces


def test_naive_rule_defect_rate(grid_aligned_cases, capsys):
    """Count wrong relations under each rule on grid-flush inputs."""
    reference, flush, truths = grid_aligned_cases
    box = reference.bounding_box()

    def relation_under(naive: bool, region: Region) -> CardinalDirection:
        tiles = {piece.tile for piece in divide_region_edges(region, box, naive=naive)}
        return CardinalDirection(*tiles)

    naive_wrong = sum(
        relation_under(True, region) != truth
        for region, truth in zip(flush, truths)
    )
    interior_wrong = sum(
        relation_under(False, region) != truth
        for region, truth in zip(flush, truths)
    )
    with capsys.disabled():
        print(
            f"\nGrid-flush defect rate (E15): naive {naive_wrong}/{len(flush)}, "
            f"interior-side {interior_wrong}/{len(flush)}"
        )
    assert interior_wrong == 0
    assert naive_wrong > 0


def test_rules_agree_off_grid(float_workload, reference):
    """Away from grid alignment the two rules coincide — the ablation is
    purely about the degenerate cases."""
    box = reference.bounding_box()
    fancy = [p.tile for p in divide_region_edges(float_workload, box)]
    naive = [p.tile for p in divide_region_edges(float_workload, box, naive=True)]
    assert fancy == naive
