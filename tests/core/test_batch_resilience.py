"""Chaos tests for the supervised batch pipeline (repro.core.batch).

The acceptance scenarios of the resilience work: a worker process
killed mid-batch, a chunk that raises, and a chunk that hangs must all
leave ``batch_relations(workers=N)`` with exactly the per-pair outcomes
of a serial run — the crash surfaced only in telemetry and report
metadata.  Faults come from the deterministic injector
(:mod:`repro.resilience.faults`); CI replays this module under several
``REPRO_CHAOS_SEED`` values.
"""

import json
import os

import pytest

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.cardirect.store import RelationStore
from repro.core.batch import DEADLINE, OK, batch_relations
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.region import Region
from repro.resilience.faults import ENV_FAULTS, ENV_SEED, FaultSpec, injecting
from repro.resilience.retry import RetryPolicy

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: Retry policies used throughout: no backoff sleeps, tests stay fast.
TWO_ATTEMPTS = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)


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
    """``count`` unit squares scattered on a grid — all pairs answerable."""
    regions = []
    for index in range(count):
        dx, dy = (index % 3) * 4.0, (index // 3) * 4.0
        regions.append(
            AnnotatedRegion(f"r{index}", square().translated(dx, dy))
        )
    return Configuration.from_regions(regions)


def serial_oracle(configuration: Configuration, engine: str = "sweep"):
    """The per-pair outcomes of an undisturbed serial sweep."""
    report = batch_relations(configuration, engine=engine)
    return [
        (o.primary_id, o.reference_id, o.status, o.relation)
        for o in report.outcomes
    ]


def outcome_tuples(report):
    return [
        (o.primary_id, o.reference_id, o.status, o.relation)
        for o in report.outcomes
    ]


class TestWorkerCrashRecovery:
    """Crash, raise, hang and exhaustion on the sweep engine's plane
    pool; the subclasses below replay every scenario on engines without
    a plane, whose workers take the region maps from the initializer."""

    engine = "sweep"

    def test_killed_worker_recovers_to_serial_outcomes(self):
        configuration = grid_configuration(8)
        expected = serial_oracle(configuration, self.engine)
        with injecting(
            FaultSpec(
                site="batch.worker",
                kind="kill",
                only={"chunk": 0, "attempt": 0},
            ),
            seed=CHAOS_SEED,
        ):
            report = batch_relations(
                configuration,
                engine=self.engine,
                workers=4,
                retry_policy=TWO_ATTEMPTS,
            )
        # The crash is invisible in the per-pair answers...
        assert outcome_tuples(report) == expected
        assert not report.error_outcomes()
        assert not report.deadline_outcomes()
        # ...and visible in the supervision metadata.
        assert report.worker_failures >= 1
        assert report.chunk_retries >= 1
        assert "worker failure" in report.summary()

    def test_raising_chunk_recovers_to_serial_outcomes(self):
        configuration = grid_configuration(6)
        expected = serial_oracle(configuration, self.engine)
        with injecting(
            FaultSpec(
                site="batch.worker",
                kind="raise",
                only={"chunk": 0, "attempt": 0},
            ),
            seed=CHAOS_SEED,
        ):
            report = batch_relations(
                configuration,
                engine=self.engine,
                workers=2,
                retry_policy=TWO_ATTEMPTS,
            )
        assert outcome_tuples(report) == expected
        assert not report.error_outcomes()

    def test_hung_chunk_is_abandoned_and_redispatched(self):
        configuration = grid_configuration(4)
        expected = serial_oracle(configuration, self.engine)
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
                engine=self.engine,
                workers=2,
                retry_policy=TWO_ATTEMPTS,
                chunk_timeout=0.5,
            )
        # Chunk 1 finished first (completion-order collection), yet the
        # reassembled outcome list is primary-major, byte-identical to
        # the serial sweep.
        assert outcome_tuples(report) == expected
        assert report.worker_failures >= 1

    def test_persistent_crash_falls_back_inline(self):
        configuration = grid_configuration(4)
        expected = serial_oracle(configuration, self.engine)
        with injecting(
            # No attempt filter: every pooled try of chunk 0 dies, so
            # recovery must come from the in-parent serial fallback
            # (which never visits the batch.worker site).
            FaultSpec(site="batch.worker", kind="kill", only={"chunk": 0}),
            seed=CHAOS_SEED,
        ):
            report = batch_relations(
                configuration,
                engine=self.engine,
                workers=2,
                retry_policy=TWO_ATTEMPTS,
            )
        assert outcome_tuples(report) == expected
        assert report.inline_chunks >= 1

    def test_env_var_faults_reach_pool_workers(self, monkeypatch):
        configuration = grid_configuration(6)
        expected = serial_oracle(configuration, self.engine)
        monkeypatch.setenv(
            ENV_FAULTS,
            json.dumps(
                [
                    {
                        "site": "batch.worker",
                        "kind": "kill",
                        "only": {"chunk": 0, "attempt": 0},
                    }
                ]
            ),
        )
        monkeypatch.setenv(ENV_SEED, str(CHAOS_SEED))
        report = batch_relations(
            configuration,
            engine=self.engine,
            workers=2,
            retry_policy=TWO_ATTEMPTS,
        )
        assert outcome_tuples(report) == expected
        assert report.worker_failures >= 1


class TestWorkerCrashRecoveryExact(TestWorkerCrashRecovery):
    engine = "exact"


class TestWorkerCrashRecoveryGuarded(TestWorkerCrashRecovery):
    engine = "guarded"


class TestDeadlines:
    def test_expired_deadline_yields_labelled_partial_report(self):
        configuration = grid_configuration(4)
        report = batch_relations(
            configuration, engine="sweep", deadline=0.0
        )
        assert report.deadline_hit
        assert len(report.deadline_outcomes()) == 12  # all ordered pairs
        assert not report.error_outcomes()
        assert all(o.status == DEADLINE for o in report.outcomes)
        assert "past deadline" in report.summary()

    def test_mid_run_expiry_keeps_finished_pairs(self):
        configuration = grid_configuration(6)
        with injecting(
            # One slow row burns the whole budget; everything computed
            # before it must survive as OK outcomes.
            FaultSpec(
                site="batch.row",
                kind="delay",
                seconds=0.4,
                only={"primary": "r2"},
            ),
            seed=CHAOS_SEED,
        ):
            report = batch_relations(
                configuration, engine="sweep", deadline=0.2
            )
        assert report.deadline_hit
        statuses = {o.status for o in report.outcomes}
        assert statuses == {OK, DEADLINE}
        ok_primaries = {
            o.primary_id for o in report.outcomes if o.status == OK
        }
        assert "r0" in ok_primaries and "r5" not in ok_primaries

    def test_serial_expiry_is_counted_once(self):
        """The plane kernel stops at the expiry and the per-pair path
        labels the rest; only the latter counts the expiry."""
        from repro import obs

        configuration = grid_configuration(6)
        registry = obs.MetricsRegistry()
        with obs.collecting(registry), injecting(
            FaultSpec(
                site="batch.row",
                kind="delay",
                seconds=0.4,
                only={"primary": "r2"},
            ),
            seed=CHAOS_SEED,
        ):
            report = batch_relations(
                configuration, engine="sweep", deadline=0.2
            )
        assert report.deadline_hit
        counter = registry.counter("repro_deadline_exceeded_total")
        assert counter.value(site="batch.sweep") == 1

    def test_generous_deadline_changes_nothing(self):
        configuration = grid_configuration(4)
        expected = serial_oracle(configuration)
        report = batch_relations(
            configuration, engine="sweep", deadline=600.0
        )
        assert outcome_tuples(report) == expected
        assert not report.deadline_hit


class TestArgumentValidation:
    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_rejects_non_positive_workers(self, bad):
        with pytest.raises(ValueError, match="workers"):
            batch_relations(grid_configuration(2), workers=bad)

    @pytest.mark.parametrize("bad", [2.5, True, "3"])
    def test_rejects_non_integer_workers(self, bad):
        with pytest.raises(ValueError, match="workers"):
            batch_relations(grid_configuration(2), workers=bad)

    def test_store_batch_relations_validates_too(self):
        store = RelationStore(grid_configuration(2))
        with pytest.raises(ValueError, match="workers"):
            store.batch_relations(workers=0)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_non_positive_chunk_timeout(self, bad):
        with pytest.raises(ValueError, match="chunk_timeout"):
            batch_relations(grid_configuration(2), chunk_timeout=bad)


class TestCorruptIngestion:
    def test_corrupted_region_is_repaired_not_fatal(self):
        configuration = grid_configuration(3)
        with injecting(
            FaultSpec(
                site="batch.region",
                kind="corrupt",
                only={"region_id": "r1"},
            ),
            seed=CHAOS_SEED,
        ) as injector:
            report = batch_relations(configuration, engine="sweep")
        assert [site for site, _, _ in injector.fired] == ["batch.region"]
        # The bowtie injected at ingestion is caught by validation and
        # repaired; every pair still gets an answer.
        assert "r1" in report.repairs
        assert not report.error_outcomes()
        assert len(report.outcomes) == 6


class TestInjectorResolution:
    """A sweep resolves the fault injector once, not once per pair or
    region: each resolution reads ``REPRO_FAULTS`` from ``os.environ``,
    which costs microseconds, and a per-pair engine's sweep used to pay
    that for every pair."""

    @pytest.mark.parametrize("engine", ["exact", "sweep"])
    def test_environment_reads_do_not_grow_with_the_pairs(
        self, engine, monkeypatch
    ):
        monkeypatch.delenv(ENV_FAULTS, raising=False)
        reads = []
        real_get = os.environ.get

        def counting_get(key, default=None):
            if key == ENV_FAULTS:
                reads.append(key)
            return real_get(key, default)

        monkeypatch.setattr(os.environ, "get", counting_get)
        counts = []
        for count in (10, 20):
            reads.clear()
            report = batch_relations(grid_configuration(count), engine=engine)
            assert len(report.ok_outcomes()) == count * (count - 1)
            counts.append(len(reads))
        # One read per batch_relations call, plus one per sweep_plane
        # call (the serial plane sweep runs in two chunks here).
        assert max(counts) <= 3, counts


class TestStoreFillUnderFaults:
    """A store's full matrix fill is one ``batch_relations`` call, so the
    batch fault sites reach it; pairs the batch could not answer are
    replayed through ``relation()``, outside those sites."""

    @pytest.mark.parametrize(
        "engine, site", [("exact", "batch.pair"), ("sweep", "batch.row")]
    )
    def test_raising_faults_leave_the_matrix_intact(self, engine, site):
        configuration = grid_configuration(12)
        expected = list(
            RelationStore(configuration, engine=engine).all_relations()
        )
        with injecting(
            FaultSpec(site=site, kind="raise", rate=0.3), seed=CHAOS_SEED
        ) as injector:
            store = RelationStore(configuration, engine=engine)
            assert list(store.all_relations()) == expected
        assert injector.fired


class TestObservabilityUnderFaults:
    """Worker telemetry must survive injected faults: spans and metrics
    from chunks that completed (including retried dispatches of a killed
    chunk) still graft into the parent's sinks, and the events read off
    the trace still link to the grafted spans."""

    def test_kill_fault_keeps_worker_spans(self):
        from repro import obs

        configuration = grid_configuration(8)
        expected = serial_oracle(configuration)
        with obs.tracing() as tracer:
            with injecting(
                FaultSpec(
                    site="batch.worker",
                    kind="kill",
                    only={"chunk": 0, "attempt": 0},
                ),
                seed=CHAOS_SEED,
            ):
                report = batch_relations(
                    configuration,
                    engine="sweep",
                    workers=4,
                    retry_policy=TWO_ATTEMPTS,
                )
        assert outcome_tuples(report) == expected
        assert report.worker_failures >= 1
        # Chunks that completed (and the killed chunk's successful
        # retry) shipped their spans despite the crash next door.
        worker_spans = [s for s in tracer.spans if s.worker is not None]
        assert worker_spans, "no worker spans were grafted"
        by_id = {s.span_id: s for s in tracer.spans}
        assert len(by_id) == len(tracer.spans), "span id collision"
        for span in worker_spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id, "dangling grafted parent"

    def test_kill_fault_keeps_worker_metrics_and_events(self):
        from repro import obs

        configuration = grid_configuration(8)
        expected = serial_oracle(configuration)
        with obs.tracing() as tracer, obs.collecting() as registry:
            with injecting(
                FaultSpec(
                    site="batch.worker",
                    kind="kill",
                    only={"chunk": 0, "attempt": 0},
                ),
                seed=CHAOS_SEED,
            ):
                report = batch_relations(
                    configuration,
                    engine="sweep",
                    workers=4,
                    retry_policy=TWO_ATTEMPTS,
                )
        assert outcome_tuples(report) == expected
        # The loss itself is an event, one per lost dispatch, linked to
        # the sweep's root span...
        lost = [
            r
            for r in obs.event_records(tracer.spans)
            if r["name"] == "batch.worker_lost"
        ]
        assert lost and all(r["severity"] == "warning" for r in lost)
        assert len(lost) == report.worker_failures
        by_id = {s.span_id: s for s in tracer.spans}
        assert {by_id[r["span"]].name for r in lost} == {"batch.relations"}
        # ...and a labelled restart counter.
        snapshot = registry.snapshot()
        restart = snapshot.get("repro_worker_restart_total")
        assert restart is not None
        assert sum(s["value"] for s in restart["series"]) == len(lost)
        # Engine work done in surviving workers reached the registry.
        operations = snapshot.get("repro_engine_operations_total")
        assert operations is not None
        assert sum(s["value"] for s in operations["series"]) > 0

    def test_kill_fault_keeps_worker_event_span_links(self, monkeypatch):
        from repro import obs

        monkeypatch.setenv("REPRO_SLOW_OP_BUDGET", "0")
        configuration = grid_configuration(8)
        with obs.tracing() as tracer:
            with injecting(
                FaultSpec(
                    site="batch.worker",
                    kind="kill",
                    only={"chunk": 0, "attempt": 0},
                ),
                seed=CHAOS_SEED,
            ):
                batch_relations(
                    configuration,
                    engine="sweep",
                    workers=4,
                    retry_policy=TWO_ATTEMPTS,
                )
        records = list(obs.event_records(tracer.spans))
        worker_events = [r for r in records if "worker" in r]
        assert worker_events, "no worker events were grafted"
        # Every record from a grafted worker span links to that span in
        # the parent trace and keeps its worker tag.
        by_id = {s.span_id: s for s in tracer.spans}
        for event in worker_events:
            span = by_id[event["span"]]
            assert span.name == event["attrs"]["span"]
            assert span.worker == event["worker"]
