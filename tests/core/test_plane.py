"""The geometry plane: layout, cleanup, and parity.

Three obligations, in order of blast radius:

* the flattened plane must hold a configuration exactly — edge
  endpoints, boxes and health flags as :meth:`GeometryPlane.build`
  laid them out;
* a sweep must never leak a ``/dev/shm`` segment, a worker process or
  an executor thread, whatever kills it — crashed or hung workers,
  expired deadlines, or a Ctrl-C in the supervisor loop;
* the plane kernel must agree with the exact engine, serially and at
  ``workers=N``, and ``workers=N`` must be *indistinguishable* from the
  serial sweep, over the plane or over region maps: identical outcome
  objects (relations, percentages, paths, errors) and identical repair
  reports, with or without fault injection.

CI replays this module under several ``REPRO_CHAOS_SEED`` values, like
the rest of the chaos suite.
"""

import json
import math
import multiprocessing
import os
import random
import threading

import pytest

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.core.batch import _ChunkSizer, batch_relations
from repro.core.engine import create_engine
from repro.core.fast import _edge_arrays
from repro.core.plane import GeometryPlane
from repro.core.tiles import Tile
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.region import Region
from repro.resilience.faults import ENV_FAULTS, ENV_SEED, FaultSpec, injecting
from repro.resilience.retry import RetryPolicy
from repro.workloads.generators import random_star_polygon

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: No backoff sleeps — chaos tests stay fast.
TWO_ATTEMPTS = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)

#: The engines the registry ships: the sweep engine's workers read the
#: plane, the others' take the region maps from the pool initializer.
BUILTIN_ENGINES = ("sweep", "exact", "fast", "guarded", "clipping")


def square(size: float = 1.0) -> Region:
    return Region.from_polygon(
        Polygon(
            (
                Point(0, 0),
                Point(0, size),
                Point(size, size),
                Point(size, 0),
            )
        )
    )


def grid_configuration(count: int) -> Configuration:
    regions = []
    for index in range(count):
        dx, dy = (index % 3) * 4.0, (index // 3) * 4.0
        regions.append(
            AnnotatedRegion(f"r{index}", square().translated(dx, dy))
        )
    return Configuration.from_regions(regions)


def star_configuration(count: int, *, edges: int = 10) -> Configuration:
    """Seeded star regions on a jittered grid (mirrors the benchmark
    workload): neighbours overlap, distant pairs prune."""
    rng = random.Random(20040314)
    side = max(1, math.ceil(math.sqrt(count)))
    regions = []
    for index in range(count):
        center = (
            (index % side) * 3.0 + rng.uniform(-0.5, 0.5),
            (index // side) * 3.0 + rng.uniform(-0.5, 0.5),
        )
        polygon = random_star_polygon(
            rng, edges, center=center, min_radius=0.4, max_radius=2.0
        )
        regions.append(
            AnnotatedRegion(f"g{index}", Region.from_polygon(polygon))
        )
    return Configuration.from_regions(regions)


def bowtie(x: float, y: float) -> Region:
    """Clockwise and self-intersecting: repairable by splitting."""
    return Region.from_polygon(
        Polygon(
            (Point(x, y + 4), Point(x + 2, y), Point(x + 2, y + 2), Point(x, y))
        )
    )


def overlapping_squares(x: float, y: float) -> Region:
    """Two squares with overlapping interiors: unrepairable."""
    part = square(2.0).polygons[0]
    return Region((part.translated(x, y), part.translated(x + 1, y)))


def degenerate_star_configuration() -> Configuration:
    """:func:`star_configuration` with two repairable bowties and two
    unrepairable regions spliced into the id order."""
    regions = list(star_configuration(24))
    regions.insert(3, AnnotatedRegion("broken-a", overlapping_squares(2, 2)))
    regions.insert(8, AnnotatedRegion("bowtie-a", bowtie(5, 1)))
    regions.insert(15, AnnotatedRegion("broken-b", overlapping_squares(8, 6)))
    regions.insert(21, AnnotatedRegion("bowtie-b", bowtie(1, 9)))
    return Configuration.from_regions(regions)


def nested_configuration() -> Configuration:
    """Unit squares inside a large square and one outside it: the large
    region covers an inner square's ``B`` tile without an edge crossing
    it, which only the kernel's centre-of-``mbb`` test detects."""
    regions = [AnnotatedRegion("outer", square(10.0))]
    for index, (dx, dy) in enumerate(((2, 2), (6, 3), (4, 7), (12, 1))):
        regions.append(
            AnnotatedRegion(f"inner{index}", square().translated(dx, dy))
        )
    return Configuration.from_regions(regions)


def overlapping_polygons_configuration() -> Configuration:
    """A region of two overlapping squares — which a store, not
    validating, accepts — around a small square: the overlap cancels a
    parity taken over all the region's edges at once, so only a
    per-polygon centre-of-``mbb`` test keeps ``B`` in ``a``'s relation."""
    part = square(10.0).polygons[0]
    a = Region((part, part.translated(4, 4)))
    b = square(2.0).translated(6, 6)
    return Configuration.from_regions(
        [AnnotatedRegion("a", a), AnnotatedRegion("b", b)]
    )


def _shm_segments():
    """Names of the live POSIX shared-memory segments (Linux)."""
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("psm_")
        }
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


@pytest.fixture
def no_leaked_segments():
    """Assert the test leaves no new ``/dev/shm`` segment behind, and no
    pool worker process or executor thread either."""
    before = _shm_segments()
    threads_before = set(threading.enumerate())
    yield
    leaked = _shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
    assert multiprocessing.active_children() == []
    stray = [
        thread.name
        for thread in threading.enumerate()
        if thread not in threads_before
    ]
    assert not stray, f"leaked threads: {stray}"


def plane_inputs(configuration):
    """The (all_ids, healthy, boxes) triple a validated batch produces."""
    all_ids = [annotated.id for annotated in configuration]
    healthy = {
        annotated.id: annotated.region for annotated in configuration
    }
    boxes = {
        region_id: region.bounding_box()
        for region_id, region in healthy.items()
    }
    return all_ids, healthy, boxes


class TestSegmentLayout:
    def test_build_round_trips_geometry_exactly(self, no_leaked_segments):
        configuration = star_configuration(9)
        all_ids, healthy, boxes = plane_inputs(configuration)
        plane = GeometryPlane.build(all_ids, healthy=healthy, boxes=boxes)
        assert plane.ids == tuple(all_ids)
        assert plane.size == 9
        for row, region_id in enumerate(all_ids):
            start, stop = plane.edge_slice(row)
            vertices = healthy[region_id].polygons[0].vertices
            assert stop - start == len(vertices)
            for offset, vertex in enumerate(vertices):
                # Exact float64 round-trip, not approximate.
                assert plane.x1[start + offset] == float(vertex.x)
                assert plane.y1[start + offset] == float(vertex.y)
            box = boxes[region_id]
            assert tuple(plane.boxes[row]) == (
                float(box.min_x),
                float(box.max_x),
                float(box.min_y),
                float(box.max_y),
            )
        dx, dy = plane.deltas()
        assert (dx == plane.x2 - plane.x1).all()
        assert (dy == plane.y2 - plane.y1).all()
        assert list(plane.healthy_columns()) == list(range(9))

    def test_rows_are_the_per_pair_edge_arrays(self, no_leaked_segments):
        """Each row hands the kernel exactly the arrays a per-pair call
        builds for the region, ring starts of multi-polygon regions
        included."""
        configuration = degenerate_star_configuration()
        all_ids, healthy, boxes = plane_inputs(configuration)
        plane = GeometryPlane.build(all_ids, healthy=healthy, boxes=boxes)
        for row, region_id in enumerate(all_ids):
            got = plane.edge_arrays(row)
            want = _edge_arrays(healthy[region_id])
            for name, mine, theirs in zip(want._fields, got, want):
                assert mine.tolist() == theirs.tolist(), (region_id, name)
        assert plane.edge_arrays(all_ids.index("broken-a")).rings.tolist() == [0, 4]

    def test_broken_rows_have_no_edges_and_nan_boxes(
        self, no_leaked_segments
    ):
        configuration = grid_configuration(3)
        all_ids, healthy, boxes = plane_inputs(configuration)
        del healthy["r1"], boxes["r1"]  # r1 is broken
        plane = GeometryPlane.build(all_ids, healthy=healthy, boxes=boxes)
        start, stop = plane.edge_slice(1)
        assert start == stop  # zero edges for the broken row
        assert plane.health[1] == 0
        assert all(value != value for value in plane.boxes[1])  # NaN
        assert list(plane.healthy_columns()) == [0, 2]


class TestSegmentCleanup:
    """The lifecycle contract: no orphaned segment, whatever happens."""

    def test_clean_run_leaves_no_segment(self, no_leaked_segments):
        report = batch_relations(
            grid_configuration(6), engine="sweep", workers=2
        )
        assert not report.error_outcomes()

    def test_killed_worker_leaves_no_segment(self, no_leaked_segments):
        with injecting(
            FaultSpec(
                site="batch.worker",
                kind="kill",
                only={"chunk": 0, "attempt": 0},
            ),
            seed=CHAOS_SEED,
        ):
            report = batch_relations(
                grid_configuration(8),
                engine="sweep",
                workers=2,
                retry_policy=TWO_ATTEMPTS,
            )
        assert report.worker_failures >= 1
        assert not report.error_outcomes()

    def test_deadline_expiry_leaves_no_segment(self, no_leaked_segments):
        with injecting(
            FaultSpec(site="batch.worker", kind="delay", seconds=0.5),
            seed=CHAOS_SEED,
        ):
            report = batch_relations(
                grid_configuration(12),
                engine="sweep",
                workers=2,
                deadline=0.2,
                retry_policy=TWO_ATTEMPTS,
            )
        assert report.deadline_hit

    @pytest.mark.parametrize("engine", ["sweep", "exact"])
    def test_hung_worker_is_killed_with_its_pool(
        self, engine, no_leaked_segments
    ):
        """A hung worker never returns on its own: abandoning its pool
        must kill it, or it outlives the sweep by the length of the
        hang (and keeps the interpreter from exiting)."""
        configuration = grid_configuration(8)
        expected = batch_relations(configuration, engine=engine).outcomes
        with injecting(
            FaultSpec(
                site="batch.worker",
                kind="delay",
                seconds=5.0,
                only={"chunk": 0, "attempt": 0},
            ),
            seed=CHAOS_SEED,
        ):
            report = batch_relations(
                configuration,
                engine=engine,
                workers=2,
                retry_policy=TWO_ATTEMPTS,
                chunk_timeout=0.5,
            )
        assert report.worker_failures >= 1
        assert report.outcomes == expected

    def test_keyboard_interrupt_leaves_no_segment(
        self, no_leaked_segments, monkeypatch
    ):
        import concurrent.futures

        def interrupted_wait(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            concurrent.futures, "wait", interrupted_wait
        )
        with pytest.raises(KeyboardInterrupt):
            batch_relations(
                grid_configuration(8), engine="sweep", workers=2
            )


class TestSerialParity:
    """workers=N must be indistinguishable from the serial sweep."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_outcomes_and_repairs_identical_to_serial(
        self, workers, no_leaked_segments
    ):
        configuration = star_configuration(100)
        serial = batch_relations(
            configuration, engine="sweep", percentages=True
        )
        parallel = batch_relations(
            configuration,
            engine="sweep",
            percentages=True,
            workers=workers,
        )
        # Full-object equality: ids, statuses, relations, percentage
        # matrices, ladder paths and error strings all compare.
        assert parallel.outcomes == serial.outcomes
        assert parallel.repairs == serial.repairs
        assert parallel.broken == serial.broken

    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("percentages", [False, True])
    @pytest.mark.parametrize("include_self", [False, True])
    def test_degenerate_map_identical_to_serial(
        self, include_self, percentages, restricted, no_leaked_segments
    ):
        """Broken primaries meeting broken references, repaired bowties,
        self pairs and restricted sweeps all assemble exactly as the
        serial sweep answers them — on every built-in engine, whether
        its workers read the plane (sweep) or the region maps."""
        configuration = degenerate_star_configuration()
        options = {"include_self": include_self, "percentages": percentages}
        if restricted:
            options["primaries"] = ["g5", "broken-b", "bowtie-a", "broken-a", "g0"]
            options["references"] = [
                "broken-a", "g7", "bowtie-b", "g5", "broken-b", "g20",
            ]
        for engine in BUILTIN_ENGINES:
            serial = batch_relations(configuration, engine=engine, **options)
            parallel = batch_relations(
                configuration, engine=engine, workers=2, **options
            )
            assert sorted(serial.broken) == ["broken-a", "broken-b"]
            assert sorted(serial.repairs) == ["bowtie-a", "bowtie-b"]
            assert any(
                {outcome.primary_id, outcome.reference_id}
                == set(serial.broken)
                for outcome in serial.outcomes
            )
            assert parallel.outcomes == serial.outcomes, engine
            assert parallel.repairs == serial.repairs, engine
            assert parallel.broken == serial.broken, engine

    @pytest.mark.parametrize("kind", ["kill", "raise"])
    def test_parity_survives_env_injected_faults(
        self, kind, monkeypatch, no_leaked_segments
    ):
        configuration = star_configuration(40)
        serial = batch_relations(
            configuration, engine="sweep", percentages=True
        )
        monkeypatch.setenv(
            ENV_FAULTS,
            json.dumps(
                [
                    {
                        "site": "batch.worker",
                        "kind": kind,
                        "only": {"chunk": 0, "attempt": 0},
                    }
                ]
            ),
        )
        monkeypatch.setenv(ENV_SEED, str(CHAOS_SEED))
        report = batch_relations(
            configuration,
            engine="sweep",
            percentages=True,
            workers=2,
            retry_policy=TWO_ATTEMPTS,
        )
        assert report.outcomes == serial.outcomes
        assert report.repairs == serial.repairs
        assert report.worker_failures >= 1


#: The restriction of ``test_degenerate_map_identical_to_serial``.
DEGENERATE_RESTRICTION = {
    "primaries": ["g5", "broken-b", "bowtie-a", "broken-a", "g0"],
    "references": ["broken-a", "g7", "bowtie-b", "g5", "broken-b", "g20"],
}

#: Percentage drift allowed against the exact engine, in percentage
#: points (the engine-equivalence suites' relative tolerance of 1e-6).
PERCENT_TOLERANCE = 100 * 1e-6


class TestExactOracle:
    """The plane kernel against the exact engine, serial and pooled.

    Serial and ``workers=N`` sweeps of the sweep engine both run the
    plane kernel, so their parity cannot catch a kernel defect; the
    exact ``Fraction`` engine can.
    """

    @pytest.mark.parametrize(
        "case",
        [
            "degenerate",
            "degenerate-self",
            "restricted",
            "restricted-self",
            "star",
            "nested",
        ],
    )
    def test_sweep_engine_agrees_with_exact(self, case, no_leaked_segments):
        if case == "star":
            configuration, options = star_configuration(40), {}
        elif case == "nested":
            configuration, options = nested_configuration(), {}
        else:
            configuration = degenerate_star_configuration()
            options = {"include_self": case.endswith("-self")}
            if case.startswith("restricted"):
                options.update(DEGENERATE_RESTRICTION)
        exact = batch_relations(
            configuration, engine="exact", percentages=True, **options
        )
        for workers in (None, 2):
            report = batch_relations(
                configuration,
                engine="sweep",
                percentages=True,
                workers=workers,
                **options,
            )
            assert len(report.outcomes) == len(exact.outcomes)
            for got, want in zip(report.outcomes, exact.outcomes):
                pair = (got.primary_id, got.reference_id, workers)
                assert (
                    got.primary_id,
                    got.reference_id,
                    got.status,
                    got.error,
                ) == (
                    want.primary_id,
                    want.reference_id,
                    want.status,
                    want.error,
                ), pair
                assert got.relation == want.relation, pair
                if want.percentages is None:
                    assert got.percentages is None, pair
                    continue
                for tile in Tile:
                    drift = abs(
                        float(got.percentages.percentage(tile))
                        - float(want.percentages.percentage(tile))
                    )
                    assert drift <= PERCENT_TOLERANCE, (pair, tile, drift)


    @pytest.mark.parametrize("case", ["star", "nested", "overlapping"])
    def test_per_pair_engines_agree_with_the_plane(self, case):
        """The per-pair paths run the plane's float64 kernel with one
        box: the ``fast`` engine and the sweep engine's per-pair calls
        give every healthy pair the plane report's relation, and its
        percentages within 1e-9 relative — of the cell, or of the
        matrix's 100 % for a cell the ``B = (B+N) - N`` subtraction
        leaves near zero — since the summation order over many boxes
        moves the last bits."""
        options = {}
        if case == "star":
            configuration = star_configuration(40)
        elif case == "nested":
            configuration = nested_configuration()
        else:
            configuration = overlapping_polygons_configuration()
            options = {"validate": False, "repair": False}
        report = batch_relations(
            configuration, engine="sweep", percentages=True, **options
        )
        healthy = report.ok_outcomes()
        assert len(healthy) == len(report.outcomes)
        regions = {annotated.id: annotated.region for annotated in configuration}
        for name in ("sweep", "fast"):
            engine = create_engine(name)
            for want in healthy:
                primary = regions[want.primary_id]
                box = regions[want.reference_id].bounding_box()
                pair = (name, want.primary_id, want.reference_id)
                assert engine.relation(primary, box) == want.relation, pair
                matrix = engine.percentages(primary, box)
                for tile in Tile:
                    assert math.isclose(
                        matrix[tile],
                        want.percentages[tile],
                        rel_tol=1e-9,
                        abs_tol=100 * 1e-9,
                    ), (pair, tile, matrix[tile], want.percentages[tile])


class TestChunkSizer:
    def test_serial_sweep_asks_the_kernel_one_chunk_at_a_time(
        self, monkeypatch
    ):
        """A serial percentage sweep carves its inline run, so at most
        one chunk's ``(rows, n, 9)`` area block is alive at a time."""
        from repro.core.sweep import SweepEngine

        asked = []
        sweep_plane = SweepEngine.sweep_plane

        def recording(self, plane, start, stop, **options):
            asked.append(stop - start)
            return sweep_plane(self, plane, start, stop, **options)

        monkeypatch.setattr(SweepEngine, "sweep_plane", recording)
        report = batch_relations(
            star_configuration(40), engine="sweep", percentages=True
        )
        assert not report.error_outcomes()
        assert sum(asked) == 40
        assert len(asked) > 1 and max(asked) < 40

    def test_initial_size_splits_the_lead_window(self):
        # 8 rows over 2 workers: lead chunks of 4 — exactly two chunks.
        assert _ChunkSizer(8, 2).next_size(8) == 4
        # 1000 rows over 4 workers: ceil(1000 / 8) = 125.
        assert _ChunkSizer(1000, 4).next_size(1000) == 125

    def test_never_exceeds_per_worker_ceiling(self):
        sizer = _ChunkSizer(100, 4)
        sizer.observe(25, 0.0001)  # absurdly fast chunk
        assert sizer.next_size(100) <= 25  # ceil(100 / 4)

    def test_adapts_toward_target_chunk_seconds(self):
        sizer = _ChunkSizer(10_000, 2)
        size = sizer.next_size(10_000)
        sizer.observe(size, size / 20_000.0)  # 20k rows/sec observed
        grown = sizer.next_size(10_000)
        assert grown > size
        assert grown <= 5_000  # still capped at total / workers

    def test_clamps_to_remaining_rows(self):
        sizer = _ChunkSizer(100, 2)
        assert sizer.next_size(3) == 3
        assert sizer.next_size(1) == 1

    def test_tail_chunks_split_the_remaining_rows(self):
        # Fast rows: the latency target alone would carve 50 and leave
        # one worker idle behind it while the other took the last 24.
        sizer = _ChunkSizer(100, 2)
        sizer.observe(13, 0.001)
        assert sizer.next_size(100) == 50
        assert sizer.next_size(74) == 37
        assert sizer.next_size(37) == 19
        assert sizer.next_size(6) == 4  # never below the minimum chunk
