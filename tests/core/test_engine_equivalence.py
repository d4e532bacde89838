"""Property tests: every registered engine computes the same relations.

The engine registry promises that backends are interchangeable — same
qualitative :class:`CardinalDirection` on every input, and percentage
matrices that agree with the exact reference within float tolerance for
the float backends.  The exact engine itself, single-tile prune
included, must equal the paper's Compute-CDR / Compute-CDR%, which never
prune: same relation, same matrix, same cell types, same XML text.
These properties are exercised over the seeded ``workloads.generators``
scenarios, including regions recovered from the degenerate-ring
workloads of the robustness PR (repaired first, then fed to every
engine), and over hand-made placements around the prune's boundaries.
"""

import random
from fractions import Fraction

import pytest

from repro.cardirect.xmlio import format_percentages
from repro.core import engine as engine_module
from repro.core.compute import compute_cdr_against_box
from repro.core.engine import available_engines, create_engine
from repro.core.percentages import compute_cdr_percentages_against_box
from repro.core.relation import RELATIONS_BY_MASK, CardinalDirection
from repro.core.tiles import Tile
from repro.errors import GeometryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.region import Region
from repro.geometry.repair import repair_region
from repro.workloads.generators import (
    DEGENERATE_KINDS,
    degenerate_ring,
    random_multi_polygon_region,
    random_region_pair,
)

SEEDS = (1, 7, 20040314)

#: Relative drift allowed between any engine's percentages and the exact
#: reference's, in percentage points.
TOLERANCE = 1e-6


def assert_exact_engine_is_the_paper(primary, reference_box, context):
    exact = create_engine("exact")
    relation = exact.relation(primary, reference_box)
    assert relation == compute_cdr_against_box(primary, reference_box), context
    matrix = exact.percentages(primary, reference_box)
    paper = compute_cdr_percentages_against_box(primary, reference_box)
    assert matrix == paper, context
    assert [type(matrix[tile]) for tile in Tile] == [
        type(paper[tile]) for tile in Tile
    ], context
    assert format_percentages(matrix) == format_percentages(paper), context
    return relation, matrix


def assert_engines_agree(primary, reference_box, context):
    expected_relation, expected_matrix = assert_exact_engine_is_the_paper(
        primary, reference_box, context
    )
    for name in available_engines():
        if name == "exact":
            continue
        engine = create_engine(name)
        assert engine.relation(primary, reference_box) == expected_relation, (
            name,
            context,
        )
        matrix = engine.percentages(primary, reference_box)
        for tile in Tile:
            drift = abs(
                float(matrix.percentage(tile))
                - float(expected_matrix.percentage(tile))
            )
            assert drift <= 100.0 * TOLERANCE, (name, tile, drift, context)


class TestRectilinearScenarios:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("overlap", [True, False])
    def test_all_engines_agree_on_random_pairs(self, seed, overlap):
        rng = random.Random(seed)
        for case in range(4):
            primary, reference = random_region_pair(rng, overlap=overlap)
            assert_engines_agree(
                primary,
                reference.bounding_box(),
                context=(seed, overlap, case),
            )


class TestFloatScenarios:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_engines_agree_on_star_workloads(self, seed):
        primary = random_multi_polygon_region(seed, 4, 12)
        reference = random_multi_polygon_region(seed + 1, 2, 8)
        assert_engines_agree(
            primary, reference.bounding_box(), context=("star", seed)
        )


class TestDegenerateRingScenarios:
    """PR 1's degenerate rings, repaired, through every engine."""

    @pytest.mark.parametrize("kind", DEGENERATE_KINDS)
    def test_all_engines_agree_on_repaired_degenerate_rings(self, kind):
        rng = random.Random(20040314)
        reference_box = random_region_pair(rng)[1].bounding_box()
        checked = 0
        for case in range(6):
            ring = degenerate_ring(rng, kind)
            try:
                primary, _ = repair_region([ring])
            except GeometryError:
                continue  # ring collapsed; rejection is covered elsewhere
            if kind == "near-grid":
                # The adversarial fixture: the guarded ladder must agree
                # with exact even when float64 cannot be trusted, i.e.
                # exactly where the fast path is allowed to differ.
                assert_exact_engine_is_the_paper(
                    primary, reference_box, (kind, case)
                )
                guarded = create_engine("guarded")
                exact = create_engine("exact")
                assert guarded.relation(
                    primary, reference_box
                ) == exact.relation(primary, reference_box), (kind, case)
            else:
                assert_engines_agree(
                    primary, reference_box, context=(kind, case)
                )
            checked += 1
        assert checked >= 3, f"kind {kind!r} produced too few usable regions"


def rect(x0, y0, x1, y1):
    return [(x0, y0), (x0, y1), (x1, y1), (x1, y0)]


#: The reference box of every placement below.
BOX = BoundingBox(0, 0, 10, 10)

#: Per exterior tile, a rectangle strictly inside it.
TILE_RECTS = {
    Tile.SW: rect(-8, -8, -2, -2), Tile.S: rect(2, -8, 8, -2),
    Tile.SE: rect(12, -8, 18, -2), Tile.W: rect(-8, 2, -2, 8),
    Tile.E: rect(12, 2, 18, 8), Tile.NW: rect(-8, 12, -2, 18),
    Tile.N: rect(2, 12, 8, 18), Tile.NE: rect(12, 12, 18, 18),
}

#: ``(rings, relation)``: placements the prune must leave to the edges,
#: or decide correctly, each with its relation pinned.
PLACEMENTS = [
    *[([ring], str(tile)) for tile, ring in TILE_RECTS.items()],
    # Touching a grid line from outside and from inside.
    ([rect(-6, 2, 0, 8)], "W"), ([rect(0, 2, 6, 8)], "B"),
    ([rect(10, 2, 16, 8)], "E"), ([rect(4, 2, 10, 8)], "B"),
    ([rect(2, -6, 8, 0)], "S"), ([rect(2, 0, 8, 6)], "B"),
    ([rect(2, 10, 8, 16)], "N"), ([rect(2, 4, 8, 10)], "B"),
    ([rect(0, 12, 6, 18)], "N"), ([rect(-6, 10, 0, 16)], "NW"),
    # One column, two rows; one row, two columns.
    ([rect(12, 5, 18, 15)], "NE:E"), ([rect(-8, -5, -2, 5)], "SW:W"),
    ([rect(5, 12, 15, 18)], "N:NE"), ([rect(-5, -8, 5, -2)], "S:SW"),
    # Multi-polygon primaries: one tile, then two tiles.
    ([rect(12, 12, 14, 14), rect(15, 15, 18, 18)], "NE"),
    ([rect(12, 12, 14, 14), rect(12, -8, 14, -2)], "NE:SE"),
    # Covering mbb(b): only the centre test finds B.
    ([rect(-5, -5, 15, 15)], "B:S:SW:W:NW:N:NE:E:SE"),
    ([rect(-5, -5, 15, 15), rect(20, 20, 25, 25)], "B:S:SW:W:NW:N:NE:E:SE"),
]

#: ``(rings, box, cell type)``: the matrix cell type Compute-CDR% gives.
TYPE_VECTORS = [
    ([rect(12, 12, 18, 18)], BOX, Fraction),
    ([rect(12.5, 12, 18, 18)], BOX, float),
    ([rect(12.4, 12, 17.3, 15)], BOX, float),  # one cell 99.99999999999999
    ([rect(12, 12, 18, 18)], BoundingBox(0.0, 0.0, 10.0, 10.0), float),
    ([[(0, 10), (0, 12), (1.5, 11), (2, 12), (2, 10)]],
     BoundingBox(5, 0, 15, 8), float),
]


class TestSingleTilePruneScenarios:
    """The exact engine's prune at and around its boundaries."""

    @pytest.mark.parametrize("rings, expected", PLACEMENTS)
    def test_placements(self, rings, expected):
        primary = Region.from_coordinates(rings)
        assert_engines_agree(primary, BOX, rings)
        relation = create_engine("exact").relation(primary, BOX)
        assert relation == CardinalDirection.parse(expected)

    @pytest.mark.parametrize("rings, box, cell_type", TYPE_VECTORS)
    def test_cell_types(self, rings, box, cell_type):
        primary = Region.from_coordinates(rings)
        _, matrix = assert_exact_engine_is_the_paper(primary, box, rings)
        assert {type(matrix[tile]) for tile in Tile} == {cell_type}

    @pytest.mark.parametrize("tile", sorted(TILE_RECTS))
    def test_pruned_pairs_walk_no_edge(self, tile, monkeypatch):
        def walked(*args):
            raise AssertionError("a box-decided pair walked its edges")

        for name in ("compute_cdr_against_box",
                     "compute_cdr_percentages_against_box"):
            monkeypatch.setattr(engine_module, name, walked)
        exact = create_engine("exact")
        primary = Region.from_coordinates([TILE_RECTS[tile]])
        relation, path = exact.relation_with_path(primary, BOX)
        assert relation is RELATIONS_BY_MASK[1 << tile] and path is None
        matrix, path = exact.percentages_with_path(primary, BOX)
        assert matrix[tile] == 100 and type(matrix[tile]) is Fraction
        assert path is None
