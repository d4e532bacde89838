"""Tests for the pluggable compute-engine layer (repro.core.engine)."""

import pytest

from repro.core.batch import batch_relations
from repro.core.engine import (
    Engine,
    EngineStats,
    available_engines,
    create_engine,
    register_engine,
    resolve_engine,
    unregister_engine,
)
from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.cardirect.store import RelationStore
from repro.geometry.region import Region


def square(x0=0, y0=0, size=1) -> Region:
    return Region.from_coordinates(
        [[(x0, y0), (x0, y0 + size), (x0 + size, y0 + size), (x0 + size, y0)]]
    )


@pytest.fixture
def primary() -> Region:
    return square(2, 2)


@pytest.fixture
def box():
    return square().bounding_box()


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_engines()) >= {
            "exact",
            "fast",
            "guarded",
            "clipping",
        }

    def test_create_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="quantum"):
            create_engine("quantum")
        with pytest.raises(ValueError, match="registered"):
            create_engine("quantum")

    def test_duplicate_registration_rejected_unless_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            register_engine("exact", Engine)
        # replace=True is the explicit override (restore immediately).
        original = create_engine("exact")
        register_engine("exact", type(original), replace=True)
        assert "exact" in available_engines()

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            register_engine("", Engine)

    def test_resolve_engine_accepts_instances_and_names(self):
        instance = create_engine("fast")
        assert resolve_engine(instance) is instance
        assert resolve_engine("fast").name == "fast"
        with pytest.raises(TypeError, match="Engine instance"):
            resolve_engine(42)


class TestStats:
    def test_calls_and_timings_accumulate(self, primary, box):
        engine = create_engine("exact")
        engine.relation(primary, box)
        engine.relation(primary, box)
        engine.percentages(primary, box)
        assert engine.stats.calls == {"relation": 2, "percentages": 1}
        assert engine.stats.total_calls == 3
        assert engine.stats.seconds["relation"] > 0.0
        assert engine.stats.total_seconds > 0.0

    def test_guarded_engine_counts_paths(self, primary, box):
        engine = create_engine("guarded")
        assert engine.stats.path_counts == {"fast": 0, "exact": 0}
        _, path = engine.relation_with_path(primary, box)
        assert path in ("fast", "exact")
        assert engine.stats.path_counts[path] == 1

    def test_single_path_engines_report_no_path(self, primary, box):
        for name in ("exact", "fast", "clipping"):
            engine = create_engine(name)
            _, path = engine.relation_with_path(primary, box)
            assert path is None
            assert engine.stats.path_counts == {}

    def test_cache_assists_and_snapshot(self, primary, box):
        stats = EngineStats()
        stats.record("relation", 0.5, "fast")
        stats.record_cache_assist()
        stats.record_cache_assist()
        snapshot = stats.as_dict()
        assert snapshot["cache_assists"] == 2
        assert snapshot["path_counts"] == {"fast": 1}
        # The snapshot is detached from the live counters.
        stats.record_cache_assist()
        assert snapshot["cache_assists"] == 2

    def test_summary_mentions_counts_and_paths(self, primary, box):
        engine = create_engine("guarded")
        engine.relation(primary, box)
        summary = engine.stats.summary()
        assert "1 relation" in summary
        assert "paths:" in summary
        assert "ms" in summary


class RecordingEngine(Engine):
    """A third-party backend: exact answers, custom bookkeeping."""

    name = "recording"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.seen = []

    def _relation(self, primary, box):
        from repro.core.compute import compute_cdr_against_box

        self.seen.append(("relation", box))
        return compute_cdr_against_box(primary, box), "recorded"

    def _percentages(self, primary, box):
        from repro.core.percentages import compute_cdr_percentages_against_box

        self.seen.append(("percentages", box))
        return compute_cdr_percentages_against_box(primary, box), "recorded"


@pytest.fixture
def recording_registration():
    register_engine(RecordingEngine.name, RecordingEngine)
    try:
        yield RecordingEngine.name
    finally:
        unregister_engine(RecordingEngine.name)


class TestThirdPartyBackend:
    def test_plugged_engine_reaches_every_consumer(
        self, recording_registration
    ):
        configuration = Configuration.from_regions(
            [
                AnnotatedRegion("a", square()),
                AnnotatedRegion("b", square(4, 4)),
            ]
        )
        # One registration, zero per-consumer surgery:
        store = RelationStore(configuration, engine=recording_registration)
        assert str(store.relation("a", "b")) == "SW"
        assert store.engine.seen[0][0] == "relation"
        assert store.engine.stats.path_counts == {"recorded": 1}

        report = batch_relations(
            configuration, engine=recording_registration
        )
        assert report.engine == "recording"
        assert report.engine_stats.calls["relation"] == 2
        assert all(o.path == "recorded" for o in report.ok_outcomes())

    def test_engine_instance_usable_directly(self, primary, box):
        engine = RecordingEngine()
        engine.relation(primary, box)
        store = RelationStore(
            Configuration.from_regions([AnnotatedRegion("a", square())]),
            engine=engine,
        )
        assert store.engine is engine
