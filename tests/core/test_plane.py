"""The shared-memory geometry plane: layout, lifecycle, and parity.

Three obligations, in order of blast radius:

* the flattened segment must round-trip a configuration exactly —
  edge endpoints, boxes, health flags and metadata all byte-equal
  between :meth:`GeometryPlane.build` and :meth:`GeometryPlane.attach`;
* the owning parent must never leak a ``/dev/shm`` segment, a worker
  process or an executor thread, whatever kills the sweep — crashed or
  hung workers, expired deadlines, a Ctrl-C in the supervisor loop, or
  a chaos fault at the ``plane.attach`` site;
* ``workers=N`` must be *indistinguishable* from the serial sweep, over
  the plane or over region maps: identical outcome objects (relations,
  percentages, paths, errors) and identical repair reports, with or
  without fault injection.

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
from repro.core.plane import GeometryPlane
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
        plane = GeometryPlane.build(
            all_ids, healthy=healthy, boxes=boxes, broken={}
        )
        try:
            assert plane.ids == tuple(all_ids)
            assert plane.size == 9
            assert plane.owner
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
        finally:
            plane.destroy()

    def test_attach_sees_identical_arrays_and_meta(
        self, no_leaked_segments
    ):
        configuration = star_configuration(5)
        all_ids, healthy, boxes = plane_inputs(configuration)
        plane = GeometryPlane.build(
            all_ids,
            healthy=healthy,
            boxes=boxes,
            broken={"ghost": "unusable"},
            repaired=("g1",),
        )
        try:
            attached = GeometryPlane.attach(plane.name)
            try:
                assert not attached.owner
                assert attached.ids == plane.ids
                assert attached.broken == {"ghost": "unusable"}
                assert attached.repaired == ("g1",)
                assert (attached.offsets == plane.offsets).all()
                assert bytes(attached.boxes.data) == bytes(
                    plane.boxes.data
                )
                for section in ("x1", "y1", "x2", "y2"):
                    assert (
                        getattr(attached, section)
                        == getattr(plane, section)
                    ).all()
            finally:
                attached.close()
        finally:
            plane.destroy()

    def test_broken_rows_have_no_edges_and_nan_boxes(
        self, no_leaked_segments
    ):
        configuration = grid_configuration(3)
        all_ids, healthy, boxes = plane_inputs(configuration)
        del healthy["r1"], boxes["r1"]
        plane = GeometryPlane.build(
            all_ids,
            healthy=healthy,
            boxes=boxes,
            broken={"r1": "self-intersecting"},
        )
        try:
            start, stop = plane.edge_slice(1)
            assert start == stop  # zero edges for the broken row
            assert plane.health[1] == 0
            assert all(value != value for value in plane.boxes[1])  # NaN
            assert list(plane.healthy_columns()) == [0, 2]
        finally:
            plane.destroy()

    def test_destroy_is_idempotent_and_frees_the_segment(self):
        configuration = grid_configuration(2)
        all_ids, healthy, boxes = plane_inputs(configuration)
        plane = GeometryPlane.build(
            all_ids, healthy=healthy, boxes=boxes, broken={}
        )
        name = plane.name
        plane.destroy()
        assert name not in _shm_segments()
        plane.destroy()  # second call must not raise
        with pytest.raises(FileNotFoundError):
            GeometryPlane.attach(name)


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


class TestAttachFaults:
    """Chaos at the ``plane.attach`` site (the pool initializer)."""

    @pytest.mark.parametrize("kind", ["raise", "kill"])
    def test_first_generation_attach_failure_recovers(
        self, kind, no_leaked_segments
    ):
        configuration = grid_configuration(6)
        expected = batch_relations(configuration, engine="sweep").outcomes
        with injecting(
            # Only generation 0: the rebuilt pool must attach cleanly.
            FaultSpec(
                site="plane.attach", kind=kind, only={"generation": 0}
            ),
            seed=CHAOS_SEED,
        ):
            report = batch_relations(
                configuration,
                engine="sweep",
                workers=2,
                retry_policy=TWO_ATTEMPTS,
            )
        assert report.outcomes == expected
        assert report.worker_failures >= 1

    def test_persistent_attach_failure_falls_back_inline(
        self, no_leaked_segments
    ):
        configuration = grid_configuration(4)
        expected = batch_relations(configuration, engine="sweep").outcomes
        with injecting(
            FaultSpec(site="plane.attach", kind="raise"),
            seed=CHAOS_SEED,
        ):
            report = batch_relations(
                configuration,
                engine="sweep",
                workers=2,
                retry_policy=TWO_ATTEMPTS,
            )
        assert report.outcomes == expected
        assert report.inline_chunks >= 1


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


class TestChunkSizer:
    def test_initial_size_splits_the_lead_window(self):
        # 8 rows over 2 workers: lead chunks of 4 — exactly two chunks.
        assert _ChunkSizer(8, 2).next_size(8) == 4
        # 1000 rows over 4 workers: ceil(1000 / 16) = 63.
        assert _ChunkSizer(1000, 4).next_size(1000) == 63

    def test_never_exceeds_per_worker_ceiling(self):
        sizer = _ChunkSizer(100, 4)
        sizer.observe(25, 0.0001)  # absurdly fast chunk
        assert sizer.next_size(100) <= 25  # ceil(100 / 4)

    def test_adapts_toward_target_chunk_seconds(self):
        sizer = _ChunkSizer(10_000, 2)
        size = sizer.next_size(10_000)
        sizer.observe(size, size / 10_000.0)  # 10k rows/sec observed
        grown = sizer.next_size(10_000)
        assert grown > size
        assert grown <= 5_000  # still capped at total / workers

    def test_clamps_to_remaining_rows(self):
        sizer = _ChunkSizer(100, 2)
        assert sizer.next_size(3) == 3
        assert sizer.next_size(1) == 1
