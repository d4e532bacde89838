"""Property tests for the sweep layer: prune, per-pair, plane, workers.

The acceptance bar of the sweep engine is *equivalence*: every one of
its paths — the exact mbb single-tile prune, the per-pair fast kernel,
the plane kernel's broadcast rows, and the parallel executor — must reproduce
the exact reference engine's answers on the seeded workloads.  The
prune gets special adversarial attention: it must never fire on
boundary contact (a primary mbb touching a grid line of the reference
mbb), because the touching points belong to several closed tiles at
once and only the full kernel resolves them.
"""

import random

import pytest

from repro.core.batch import batch_relations
from repro.core.engine import create_engine
from repro.core.sweep import (
    BROADCAST_PATH,
    FAST_PATH,
    PRUNE_PATH,
    SweepEngine,
)
from repro.core.tiles import Tile, single_tile_prune
from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.geometry.bbox import BoundingBox
from repro.workloads.generators import (
    random_rectilinear_region,
    random_region_pair,
)

SEEDS = (3, 11, 20040314)

#: Relative drift allowed between float percentages and exact ones,
#: in percentage points (matches the engine-equivalence suite).
TOLERANCE = 1e-6


def box(min_x, min_y, max_x, max_y):
    return BoundingBox(min_x, min_y, max_x, max_y)


def assert_matrices_close(got, want, context=None):
    for tile in Tile:
        drift = abs(
            float(got.percentage(tile)) - float(want.percentage(tile))
        )
        assert drift <= 100.0 * TOLERANCE, (tile, drift, context)


class TestSingleTilePrune:
    REFERENCE = box(0, 0, 10, 10)

    @pytest.mark.parametrize(
        "primary, tile",
        [
            (box(-5, -5, -1, -1), Tile.SW),
            (box(2, -5, 8, -1), Tile.S),
            (box(11, -5, 15, -1), Tile.SE),
            (box(-5, 2, -1, 8), Tile.W),
            (box(11, 2, 15, 8), Tile.E),
            (box(-5, 11, -1, 15), Tile.NW),
            (box(2, 11, 8, 15), Tile.N),
            (box(11, 11, 15, 15), Tile.NE),
        ],
    )
    def test_every_exterior_tile_prunes(self, primary, tile):
        assert single_tile_prune(primary, self.REFERENCE) is tile

    def test_strict_interior_is_not_pruned(self):
        # B is deliberately excluded: interior pairs go to the kernel.
        assert single_tile_prune(box(2, 2, 8, 8), self.REFERENCE) is None

    @pytest.mark.parametrize(
        "primary",
        [
            box(-5, 2, 0, 8),  # touches the west grid line from outside
            box(10, 2, 15, 8),  # touches the east grid line from outside
            box(2, -5, 8, 0),  # touches the south grid line
            box(2, 10, 8, 15),  # touches the north grid line
            box(-5, -5, 0, 0),  # corner contact
            box(0, 0, 8, 8),  # inside but touching two grid lines
            box(0, 2, 8, 8),  # inside but touching one grid line
            box(-5, 2, 2, 8),  # straddles the west grid line
            box(-5, -5, 15, 15),  # contains the reference box
        ],
    )
    def test_boundary_contact_never_prunes(self, primary):
        assert single_tile_prune(primary, self.REFERENCE) is None

    @pytest.mark.parametrize("seed", SEEDS)
    def test_prune_agrees_with_exact(self, seed):
        """Whenever the prune fires, the exact engine concurs — the
        relation is the single tile and its percentage is 100."""
        rng = random.Random(seed)
        exact = create_engine("exact")
        fired = 0
        for _ in range(8):
            primary, reference = random_region_pair(rng, overlap=False)
            reference_box = reference.bounding_box()
            tile = single_tile_prune(
                primary.bounding_box(), reference_box
            )
            if tile is None:
                continue
            fired += 1
            relation = exact.relation(primary, reference_box)
            assert set(relation) == {tile}
            matrix = exact.percentages(primary, reference_box)
            assert float(matrix.percentage(tile)) == 100.0
        assert fired > 0, "workload never exercised the prune"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grazing_pairs_take_the_kernel_and_still_agree(self, seed):
        """A primary translated to exact boundary contact (integer
        coordinates, so contact is exact) must not prune — and the
        sweep engine must still agree with the exact reference."""
        rng = random.Random(seed)
        exact = create_engine("exact")
        sweep = create_engine("sweep")
        grazed = 0
        for _ in range(6):
            primary = random_rectilinear_region(rng, 4)
            reference = random_rectilinear_region(rng, 4)
            primary_box = primary.bounding_box()
            reference_box = reference.bounding_box()
            # Slide the primary due west of the reference so its east
            # edge lands exactly on the reference's west grid line.
            shift = reference_box.min_x - primary_box.max_x
            grazing = primary.translated(shift, 0)
            grazing_box = grazing.bounding_box()
            assert grazing_box.max_x == reference_box.min_x
            assert single_tile_prune(grazing_box, reference_box) is None
            grazed += 1
            assert sweep.relation(grazing, reference_box) == exact.relation(
                grazing, reference_box
            )
            assert_matrices_close(
                sweep.percentages(grazing, reference_box),
                exact.percentages(grazing, reference_box),
            )
        assert grazed > 0
        assert sweep.stats.path_counts[PRUNE_PATH] == 0
        assert sweep.stats.path_counts[FAST_PATH] > 0


def adversarial_boxes(rng):
    """Overlapping, disjoint, containing and contained references."""
    boxes = [
        random_rectilinear_region(rng, 4).bounding_box() for _ in range(6)
    ]
    boxes.append(box(-500, -500, 500, 500))  # contains every primary
    boxes.append(box(-1, -1, 1, 1))  # small, near the middle
    boxes.append(box(300, 300, 310, 310))  # far away: single tile
    return boxes


class TestSweepEngineBulk:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_per_pair_calls_agree_with_exact(self, seed):
        rng = random.Random(seed)
        exact = create_engine("exact")
        sweep = create_engine("sweep")
        primary = random_rectilinear_region(rng, 6)
        for reference_box in adversarial_boxes(rng):
            relation, path = sweep.relation_with_path(primary, reference_box)
            assert path in (PRUNE_PATH, FAST_PATH)
            assert relation == exact.relation(primary, reference_box)
            assert_matrices_close(
                sweep.percentages(primary, reference_box),
                exact.percentages(primary, reference_box),
            )

    def test_path_counts_are_preseeded(self):
        engine = SweepEngine()
        assert engine.stats.path_counts == {
            PRUNE_PATH: 0,
            BROADCAST_PATH: 0,
            FAST_PATH: 0,
        }

    def test_edge_cache_serves_both_operations(self):
        rng = random.Random(2)
        engine = create_engine("sweep")
        primary = random_rectilinear_region(rng, 5)
        reference_box = random_rectilinear_region(rng, 4).bounding_box()
        engine.relation(primary, reference_box)
        engine.percentages(primary, reference_box)
        assert engine.stats.edge_cache_hits >= 1

    def test_edge_cache_can_be_disabled(self):
        rng = random.Random(2)
        engine = create_engine("sweep", edge_cache_size=0)
        primary = random_rectilinear_region(rng, 5)
        reference_box = random_rectilinear_region(rng, 4).bounding_box()
        engine.relation(primary, reference_box)
        engine.percentages(primary, reference_box)
        assert engine.stats.edge_cache_hits == 0


def _configuration(seed, count=8):
    rng = random.Random(seed)
    spread = []
    for index in range(count):
        region = random_rectilinear_region(rng, 3)
        if index % 2:
            # Push half the regions far out so the sweep mixes pruned
            # and full-kernel pairs.
            region = region.translated(400 * index, -300)
        spread.append(
            AnnotatedRegion(id=f"r{index}", name=f"r{index}", region=region)
        )
    return Configuration.from_regions(spread)


class TestBatchIntegration:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_sweep_matches_exact(self, seed):
        configuration = _configuration(seed)
        expected = batch_relations(configuration, engine="exact")
        got = batch_relations(configuration, engine="sweep", percentages=True)
        assert got.relations() == expected.relations()
        counted = got.engine_stats.path_counts
        assert counted[PRUNE_PATH] > 0
        assert counted[BROADCAST_PATH] > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_workers_match_serial(self, seed):
        configuration = _configuration(seed)
        serial = batch_relations(
            configuration, engine="sweep", percentages=True
        )
        parallel = batch_relations(
            configuration, engine="sweep", percentages=True, workers=2
        )
        assert [
            (o.primary_id, o.reference_id, o.status, o.relation)
            for o in serial.outcomes
        ] == [
            (o.primary_id, o.reference_id, o.status, o.relation)
            for o in parallel.outcomes
        ]
        # Per-worker stats merge into one report-level record.
        assert (
            parallel.engine_stats.calls == serial.engine_stats.calls
        )
        assert (
            parallel.engine_stats.path_counts
            == serial.engine_stats.path_counts
        )

    def test_workers_preserve_engine_configuration(self):
        """A custom engine instance's tunables survive the fan-out."""
        configuration = _configuration(5)
        engine = create_engine("guarded", epsilon=10.0)
        report = batch_relations(configuration, engine=engine, workers=2)
        assert report.engine == "guarded"
        # An absurdly wide epsilon flags every pair ill-conditioned, so
        # every worker must have taken the exact rung — proof the
        # epsilon crossed the process boundary.
        assert report.engine_stats.path_counts.get("fast", 0) == 0
        assert report.engine_stats.path_counts["exact"] > 0

    def test_workers_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            batch_relations(_configuration(5, count=3), workers=0)


class TestEngineSpawn:
    def test_spawn_preserves_guarded_tunables(self):
        engine = create_engine(
            "guarded", epsilon=1e-3, drift_tolerance=1e-2
        )
        rng = random.Random(9)
        engine.relation(
            random_rectilinear_region(rng, 3),
            random_rectilinear_region(rng, 3).bounding_box(),
        )
        clone = engine.spawn()
        assert clone is not engine
        assert clone.epsilon == 1e-3
        assert clone.drift_tolerance == 1e-2
        # Fresh telemetry, not a copy of the parent's.
        assert engine.stats.calls["relation"] == 1
        assert clone.stats.calls["relation"] == 0

    def test_worker_spec_round_trips(self):
        engine = create_engine("guarded", epsilon=1e-3)
        name, options = engine.worker_spec()
        rebuilt = create_engine(name, **options)
        assert rebuilt.epsilon == 1e-3


def _rectangle(min_x, min_y, max_x, max_y):
    from repro.geometry.point import Point
    from repro.geometry.polygon import Polygon

    return Polygon(
        (
            Point(min_x, min_y),
            Point(min_x, max_y),
            Point(max_x, max_y),
            Point(max_x, min_y),
        )
    )


class TestPruneCells:
    """A pruned pair's matrix has float cells, like every matrix the
    kernels compute, so one sweep report never mixes cell types."""

    def test_pruned_matrix_cells_and_text_match_the_exact_engine(self):
        from repro.cardirect.xmlio import format_percentages
        from repro.geometry.region import Region

        a = Region.from_polygon(_rectangle(0.5, 2.5, 10.5, 8.5))
        b = Region.from_polygon(_rectangle(20.5, 0.5, 30.5, 10.5))
        configuration = Configuration.from_regions(
            [AnnotatedRegion("a", a), AnnotatedRegion("b", b)]
        )
        assert single_tile_prune(a.bounding_box(), b.bounding_box()) is Tile.W
        exact = create_engine("exact").percentages(a, b.bounding_box())
        per_pair = SweepEngine().percentages(a, b.bounding_box())
        report = batch_relations(
            configuration, engine="sweep", percentages=True
        )
        plane = report.outcomes[0].percentages
        assert report.outcomes[0].path == PRUNE_PATH
        for matrix in (per_pair, plane):
            assert all(type(matrix[tile]) is float for tile in Tile)
            assert format_percentages(matrix) == format_percentages(exact)
        assert format_percentages(plane) == (
            "0.0 0.0 0.0 100.0 0.0 0.0 0.0 0.0 0.0"
        )


class TestOverlappingPolygons:
    """A store does not validate, so a region may hold two overlapping
    polygons.  The plane's centre-of-mbb test must OR the polygons'
    even-odd answers like Compute-CDR's test, not take parity over
    all their edges at once (which the overlap cancels out)."""

    def test_full_fill_keeps_b_like_relation(self):
        from repro.cardirect.store import RelationStore
        from repro.core.compute import compute_cdr
        from repro.geometry.region import Region

        a = Region((_rectangle(0, 0, 10, 10), _rectangle(4, 4, 14, 14)))
        b = Region.from_polygon(_rectangle(6, 6, 8, 8))
        configuration = Configuration.from_regions(
            [AnnotatedRegion("a", a), AnnotatedRegion("b", b)]
        )
        expected = compute_cdr(a, b)
        assert Tile.B in expected.tiles
        pair_store = RelationStore(configuration, engine="sweep")
        assert pair_store.relation("a", "b") == expected
        filled = RelationStore(configuration, engine="sweep")
        relations = {(p, r): rel for p, r, rel in filled.all_relations()}
        assert relations[("a", "b")] == expected
