"""Reasoning-layer benchmarks: inverse, composition, consistency, solve.

Not part of the paper's evaluation, but the operations its framework
cites ([20, 21, 22]); the bench documents that the qualitative
enumeration engine is fast enough for interactive use and that the
pairwise caches amortise.
"""

import itertools
import random

import pytest

from repro.core.compute import compute_cdr
from repro.core.relation import ALL_BASIC_RELATIONS, DisjunctiveCD
from repro.geometry.polygon import Polygon
from repro.geometry.region import Region
from repro.geometry.transform import translate_region
from repro.reasoning.composition import compose
from repro.reasoning.consistency import check_consistency
from repro.reasoning.inverse import inverse
from repro.reasoning.network import DisjunctiveNetwork
from repro.workloads.generators import random_rectilinear_region


@pytest.mark.benchmark(group="reasoning-inverse")
def test_inverse_cold(benchmark):
    sample = ALL_BASIC_RELATIONS[::37]

    def run():
        inverse.cache_clear()
        return sum(len(inverse(relation)) for relation in sample)

    total = benchmark(run)
    assert total > 0


@pytest.mark.benchmark(group="reasoning-compose")
def test_compose_cold(benchmark):
    pairs = [
        (ALL_BASIC_RELATIONS[i], ALL_BASIC_RELATIONS[-i - 1])
        for i in range(0, 511, 73)
    ]

    def run():
        compose.cache_clear()
        return sum(len(compose(r1, r2)) for r1, r2 in pairs)

    total = benchmark(run)
    assert total > 0


@pytest.mark.benchmark(group="reasoning-consistency")
@pytest.mark.parametrize("size", (4, 8))
def test_consistency_of_geometric_networks(benchmark, size):
    """Fully-specified consistent networks derived from real geometry."""
    rng = random.Random(size)
    regions = {
        f"r{i}": random_rectilinear_region(rng, 3) for i in range(size)
    }
    constraints = {
        (i, j): compute_cdr(regions[i], regions[j])
        for i in regions
        for j in regions
        if i != j
    }

    result = benchmark(check_consistency, constraints)
    assert result


def box_network(rng: random.Random, variables: int = 5) -> DisjunctiveNetwork:
    """A complete network over boxes in the cells of a 5x5 lattice.

    Each constraint holds the scene's true relation and the relation of
    the primary moved one cell, unless that is ``B`` (its inverse has 487
    members), so the scene is a witness and no constraint has more than
    two members.
    """
    cells = rng.sample(range(25), variables)
    boxes = [
        Region.from_polygon(
            Polygon.from_coordinates([(x, y), (x, y + 8), (x + 8, y + 8), (x + 8, y)])
        )
        for x, y in ((10 * (cell % 5), 10 * (cell // 5)) for cell in cells)
    ]
    network = DisjunctiveNetwork()
    for a, b in itertools.combinations(range(variables), 2):
        members = {compute_cdr(boxes[a], boxes[b])}
        dx, dy = rng.choice(((10, 0), (-10, 0), (0, 10), (0, -10)))
        decoy = compute_cdr(translate_region(boxes[a], dx, dy), boxes[b])
        if str(decoy) != "B":
            members.add(decoy)
        network.constrain(f"v{a}", f"v{b}", DisjunctiveCD(members))
    return network


@pytest.mark.benchmark(group="reasoning-solve")
def test_solve_box_networks(benchmark):
    """Path consistency and the refinement search on seeded 5-variable
    networks; a fresh copy of each network per round, warm caches."""
    rng = random.Random(5)
    networks = [box_network(rng).constraints() for _ in range(12)]

    def run():
        solved = 0
        for constraints in networks:
            network = DisjunctiveNetwork()
            for (a, b), relation in constraints.items():
                network.constrain(a, b, relation)
            solved += bool(network.solve(max_candidates=50))
        return solved

    solved = benchmark(run)
    assert solved == len(networks)
