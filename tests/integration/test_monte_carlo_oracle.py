"""A third, implementation-independent oracle for Compute-CDR%.

Both the reference implementation and the clipping baseline share the
library's geometric primitives; a subtle bug in those primitives could
make them agree *and* be wrong.  This module estimates the per-tile
areas by plain Monte-Carlo point sampling — no edge splitting, no
trapezoid expressions, no clipping — and checks the exact algorithms
land within statistical tolerance.
"""

import random

import pytest

from repro.core.percentages import compute_cdr_percentages
from repro.core.tiles import Tile, tiles_of_point
from repro.geometry.point import Point
from repro.geometry.predicates import point_in_region
from repro.geometry.region import Region
from repro.workloads.generators import random_rectilinear_region, region_with_hole


def monte_carlo_percentages(
    primary: Region, reference: Region, rng: random.Random, samples: int = 20000
):
    """Estimate the percentage matrix by rejection sampling.

    Samples points uniformly over the primary's bounding box, keeps those
    inside the region, and tallies the tile of each kept point (interior
    sampling makes boundary ties measure-zero; any tile of the point's
    tile set is fine).
    """
    box = primary.bounding_box()
    reference_box = reference.bounding_box()
    counts = {tile: 0 for tile in Tile}
    kept = 0
    width, height = float(box.width), float(box.height)
    for _ in range(samples):
        point = Point(
            float(box.min_x) + rng.random() * width,
            float(box.min_y) + rng.random() * height,
        )
        if not point_in_region(point, primary):
            continue
        kept += 1
        tile = next(iter(tiles_of_point(point, reference_box)))
        counts[tile] += 1
    assert kept > 0, "sampling missed the region entirely"
    return {tile: 100.0 * count / kept for tile, count in counts.items()}, kept


@pytest.mark.parametrize("seed", [3, 17, 117, 2024])
def test_exact_percentages_within_sampling_tolerance(seed):
    rng = random.Random(seed)
    primary = random_rectilinear_region(rng, rng.randint(2, 6))
    reference = random_rectilinear_region(rng, rng.randint(2, 6))
    exact = compute_cdr_percentages(primary, reference)
    estimate, kept = monte_carlo_percentages(primary, reference, rng)
    # Binomial std-dev of a share p over n samples is sqrt(p(1-p)/n)*100;
    # 5 sigma at p=0.5, n=kept gives the bound below.
    tolerance = 5 * 50.0 / (kept ** 0.5)
    for tile in Tile:
        assert abs(float(exact.percentage(tile)) - estimate[tile]) <= tolerance, (
            tile, float(exact.percentage(tile)), estimate[tile],
        )


def test_hole_region_oracle():
    rng = random.Random(99)
    ring = region_with_hole((-10, -10, 20, 20), (0, 0, 10, 10))
    reference = Region.from_coordinates([[(0, 0), (0, 10), (10, 10), (10, 0)]])
    exact = compute_cdr_percentages(ring, reference)
    estimate, kept = monte_carlo_percentages(ring, reference, rng)
    tolerance = 5 * 50.0 / (kept ** 0.5)
    assert float(exact.percentage(Tile.B)) == 0
    assert estimate[Tile.B] <= tolerance
    for tile in Tile:
        assert abs(float(exact.percentage(tile)) - estimate[tile]) <= tolerance
