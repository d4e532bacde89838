"""Engine-layer observability: hardened observers, stats edge cases,
and the span/metric telemetry engines feed into installed sinks."""

import pytest

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.core.batch import batch_relations
from repro.core.engine import EngineEvent, EngineStats, create_engine
from repro.geometry.region import Region
from repro.obs import (
    MetricsRegistry,
    Tracer,
    collecting,
    tracing,
    uninstall_metrics,
    uninstall_tracer,
)


@pytest.fixture(autouse=True)
def _clean_sinks():
    uninstall_tracer()
    uninstall_metrics()
    yield
    uninstall_tracer()
    uninstall_metrics()


def square(x0=0, y0=0, size=1) -> Region:
    return Region.from_coordinates(
        [[(x0, y0), (x0, y0 + size), (x0 + size, y0 + size), (x0 + size, y0)]]
    )


def one_row_configuration() -> Configuration:
    """Primary ``p`` and four references: one sweep-plane row of 4."""
    return Configuration.from_regions(
        [AnnotatedRegion("p", square(1, 1))]
        + [AnnotatedRegion(f"r{i}", square(i * 5, 0)) for i in range(4)]
    )


class TestObserverHardening:
    """A raising observer must never abort the observed operation."""

    def _engine(self, name="exact"):
        events = []

        def observer(event):
            events.append(event)
            raise RuntimeError("observer exploded")

        return create_engine(name, observer=observer), events

    def test_relation_survives_raising_observer(self):
        engine, events = self._engine()
        relation = engine.relation(square(2, 2), square().bounding_box())
        assert relation is not None
        assert len(events) == 1  # the observer did run
        assert engine.stats.observer_errors == 1

    def test_percentages_survives_raising_observer(self):
        engine, events = self._engine()
        matrix = engine.percentages(square(2, 2), square().bounding_box())
        assert matrix is not None
        assert engine.stats.observer_errors == 1

    def test_errors_accumulate_and_reach_summary(self):
        engine, _ = self._engine()
        box = square().bounding_box()
        for _ in range(3):
            engine.relation(square(2, 2), box)
        assert engine.stats.observer_errors == 3
        assert "observer errors: 3" in engine.stats.summary()

    def test_observer_error_does_not_poison_installed_sinks(self):
        engine, _ = self._engine()
        with tracing() as tracer:
            engine.relation(square(2, 2), square().bounding_box())
        assert [s.name for s in tracer.spans] == ["engine.exact.relation"]


class TestEngineStatsEdgeCases:
    def test_merge_empty_snapshot(self):
        stats = EngineStats()
        stats.record("relation", 0.5)
        stats.merge(EngineStats().as_dict())
        assert stats.calls["relation"] == 1
        assert stats.total_seconds == 0.5

    def test_merge_into_empty_stats(self):
        stats = EngineStats()
        other = EngineStats()
        other.record("relation", 0.25, path="fast")
        other.record_cache_assist()
        other.observer_errors = 2
        stats.merge(other.as_dict())
        assert stats.calls["relation"] == 1
        assert stats.path_counts == {"fast": 1}
        assert stats.cache_assists == 1
        assert stats.observer_errors == 2

    def test_repeated_merge_accumulates(self):
        stats = EngineStats()
        other = EngineStats()
        other.record("percentages", 0.1, path="exact")
        snapshot = other.as_dict()
        for _ in range(3):
            stats.merge(snapshot)
        assert stats.calls["percentages"] == 3
        assert stats.seconds["percentages"] == pytest.approx(0.3)
        assert stats.path_counts == {"exact": 3}

    def test_record_bulk_zero_count(self):
        stats = EngineStats()
        stats.record_bulk("relation", 0.05, 0)
        assert stats.calls["relation"] == 0
        assert stats.seconds["relation"] == 0.05  # kernel time still real

    def test_record_bulk_mixed_with_per_pair_fallback(self):
        """A sweep answers most pairs in bulk, odd ones per pair."""
        stats = EngineStats()
        stats.record_bulk(
            "relation", 0.2, 90, paths={"prune": 60, "broadcast": 30}
        )
        for _ in range(10):
            stats.record("relation", 0.01, path="fast")
        assert stats.calls["relation"] == 100
        assert stats.seconds["relation"] == pytest.approx(0.3)
        assert stats.path_counts == {
            "prune": 60,
            "broadcast": 30,
            "fast": 10,
        }

    def test_bulk_event_count_reaches_observers(self):
        events = []
        engine = create_engine("sweep", observer=events.append)
        batch_relations(one_row_configuration(), engine=engine, primaries=["p"])
        assert sum(e.count for e in events) == 4
        assert all(isinstance(e, EngineEvent) for e in events)
        assert any("x" in str(e) for e in events if e.count > 1)


class TestEngineTelemetry:
    """Engines report to the *installed* tracer/registry directly."""

    def test_relation_records_span(self):
        engine = create_engine("exact")
        with tracing() as tracer:
            engine.relation(square(2, 2), square().bounding_box())
        (span,) = tracer.spans
        assert span.name == "engine.exact.relation"
        assert span.attributes["operation"] == "relation"

    def test_relation_records_metrics(self):
        engine = create_engine("guarded")
        with collecting() as registry:
            engine.relation(square(2, 2), square().bounding_box())
        counter = registry.counter("repro_engine_operations_total")
        assert counter.value(
            engine="guarded", operation="relation", path="fast"
        ) == 1
        histogram = registry.histogram("repro_engine_operation_seconds")
        assert histogram.count(engine="guarded", operation="relation") == 1

    def test_bulk_sweep_span_carries_count(self):
        engine = create_engine("sweep")
        with tracing() as tracer:
            batch_relations(
                one_row_configuration(), engine=engine, primaries=["p"]
            )
        spans = [s for s in tracer.spans if s.name.startswith("engine.")]
        bulk = [s for s in spans if s.attributes.get("count", 1) > 1]
        assert bulk, "expected a bulk engine span"
        assert sum(s.attributes.get("count", 1) for s in spans) == 4

    def test_disabled_sinks_cost_nothing_visible(self):
        engine = create_engine("exact")
        engine.relation(square(2, 2), square().bounding_box())
        # no tracer/registry installed: nothing to assert but no crash,
        # and stats still advance normally
        assert engine.stats.calls["relation"] == 1
