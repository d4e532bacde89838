"""Engine-layer observability: stats edge cases, and the span/metric
telemetry engines feed into installed sinks from the same counts."""

import pytest

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.core.batch import batch_relations
from repro.core.engine import EngineStats, create_engine
from repro.geometry.region import Region
from repro.obs import (
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


def seven_region_map() -> Configuration:
    """Six 2×2 squares on a 5-unit grid plus one 20×20 square: the sweep
    prunes 12 of the 42 ordered pairs and broadcasts the other 30."""
    return Configuration.from_regions(
        [AnnotatedRegion(f"s{i}", square(5 * (i % 3), 5 * (i // 3), 2)) for i in range(6)]
        + [AnnotatedRegion("big", square(0, 0, 20))]
    )


def one_row_configuration() -> Configuration:
    """Primary ``p`` and four references: one sweep-plane row of 4."""
    return Configuration.from_regions(
        [AnnotatedRegion("p", square(1, 1))]
        + [AnnotatedRegion(f"r{i}", square(i * 5, 0)) for i in range(4)]
    )


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
        other.record("relation", 0.25, "fast")
        other.record_cache_assist()
        stats.merge(other.as_dict())
        assert stats.calls["relation"] == 1
        assert stats.path_counts == {"fast": 1}
        assert stats.cache_assists == 1

    def test_repeated_merge_accumulates(self):
        stats = EngineStats()
        other = EngineStats()
        other.record("percentages", 0.1, "exact")
        snapshot = other.as_dict()
        for _ in range(3):
            stats.merge(snapshot)
        assert stats.calls["percentages"] == 3
        assert stats.seconds["percentages"] == pytest.approx(0.3)
        assert stats.path_counts == {"exact": 3}

    def test_record_bulk_zero_count(self):
        stats = EngineStats()
        assert stats.record("relation", 0.05, {"prune": 0}) == 0
        assert stats.calls["relation"] == 0
        assert stats.seconds["relation"] == 0.05  # kernel time still real

    def test_record_bulk_mixed_with_per_pair_fallback(self):
        """A sweep answers most pairs in bulk, odd ones per pair."""
        stats = EngineStats()
        assert stats.record("relation", 0.2, {"prune": 60, "broadcast": 30}) == 90
        for _ in range(10):
            assert stats.record("relation", 0.01, "fast") == 1
        assert stats.calls["relation"] == 100
        assert stats.seconds["relation"] == pytest.approx(0.3)
        assert stats.path_counts == {
            "prune": 60,
            "broadcast": 30,
            "fast": 10,
        }


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


class TestPerPathAccounting:
    """Stats, spans and metrics count each sweep row from one set of
    per-path counts, in the parent and in pool workers alike."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_operation_series_equal_path_counts(self, workers):
        with tracing() as tracer, collecting() as registry:
            report = batch_relations(
                seven_region_map(), engine="sweep", workers=workers
            )
        path_counts = report.engine_stats.path_counts
        assert path_counts == {"prune": 12, "broadcast": 30, "fast": 0}
        series = {
            dict(labels)["path"]: value
            for labels, value in registry.counter(
                "repro_engine_operations_total"
            )._series.items()
            if dict(labels)["engine"] == "sweep"
        }
        assert series == {"prune": 12, "broadcast": 30}
        for path, pairs in series.items():
            assert pairs == path_counts[path]
        # The series add up to the pairs the kernel answered: every row.
        assert sum(series.values()) == report.table.size == 42
        rows = [s for s in tracer.spans if s.name == "engine.sweep.relation"]
        assert sum(s.attributes["count"] for s in rows) == 42
        for path in ("prune", "broadcast"):
            assert sum(s.attributes.get(path, 0) for s in rows) == path_counts[path]
