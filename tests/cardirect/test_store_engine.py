"""Tests for the store's engine selection and telemetry."""

import random

import pytest

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.cardirect.store import RelationStore
from repro.core.batch import BatchReport
from repro.core.engine import available_engines, create_engine
from repro.core.tiles import Tile
from repro.workloads.generators import random_rectilinear_region


def build_configuration(seed: int = 5, count: int = 5) -> Configuration:
    rng = random.Random(seed)
    return Configuration.from_regions(
        [
            AnnotatedRegion(
                f"r{i}", random_rectilinear_region(rng, rng.randint(1, 5))
            )
            for i in range(count)
        ]
    )


class TestEngineSelection:
    @pytest.mark.parametrize("name", available_engines())
    def test_every_registered_engine_matches_exact(self, name):
        configuration = build_configuration()
        exact = RelationStore(configuration)
        store = RelationStore(configuration, engine=name)
        assert store.engine.name == name
        for primary, reference, relation in exact.all_relations():
            assert store.relation(primary, reference) == relation

    def test_engine_instance_accepted(self):
        engine = create_engine("guarded")
        store = RelationStore(build_configuration(), engine=engine)
        assert store.engine is engine
        store.relation("r0", "r1")
        assert engine.stats.calls["relation"] == 1

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="registered"):
            RelationStore(build_configuration(), engine="quantum")

    def test_default_engine_is_exact(self):
        store = RelationStore(build_configuration())
        assert store.engine.name == "exact"


class TestTelemetry:
    def test_engine_stats_count_calls_and_time(self):
        store = RelationStore(build_configuration(), engine="fast")
        store.relation("r0", "r1")
        store.percentages("r0", "r1")
        assert store.engine_stats.calls == {"relation": 1, "percentages": 1}
        assert store.engine_stats.total_seconds > 0.0

    def test_cache_hits_count_as_cache_assists(self):
        store = RelationStore(build_configuration(), engine="guarded")
        store.relation("r0", "r1")
        store.relation("r0", "r1")
        store.percentages("r0", "r1")
        store.percentages("r0", "r1")
        assert store.engine_stats.total_calls == 2
        assert store.engine_stats.cache_assists == 2


class TestFastPathUsesCachedBoxes:
    def test_fast_store_percentages_agree_with_exact(self):
        configuration = build_configuration(9)
        exact = RelationStore(configuration)
        fast = RelationStore(configuration, engine="fast")
        for i in configuration.region_ids:
            for j in configuration.region_ids:
                if i == j:
                    continue
                fast_matrix = fast.percentages(i, j)
                exact_matrix = exact.percentages(i, j)
                for tile in Tile:
                    assert abs(
                        float(fast_matrix.percentage(tile))
                        - float(exact_matrix.percentage(tile))
                    ) < 1e-8

    def test_fast_store_reuses_cached_reference_mbb(self, monkeypatch):
        """The fast engine must consume the cached reference mbb instead
        of rescanning the reference region's edges per call (the
        historic cache defeat)."""
        import repro.geometry.polygon as polygon_module

        configuration = build_configuration()
        store = RelationStore(configuration, engine="fast")
        scanned = []
        original = polygon_module.Polygon.bounding_box

        def counting(self):
            scanned.append(self)
            return original(self)

        monkeypatch.setattr(polygon_module.Polygon, "bounding_box", counting)
        store.relation("r0", "r1")
        store.percentages("r0", "r1")
        store.relation("r2", "r1")
        # One scan of r1's polygons for its box (cached thereafter);
        # none per call.
        assert scanned == list(configuration.get("r1").region.polygons)


class TestBatchDelegation:
    @pytest.mark.parametrize("name", available_engines())
    def test_batch_relations_inherits_store_engine(self, name):
        store = RelationStore(build_configuration(count=3), engine=name)
        report = store.batch_relations()
        assert isinstance(report, BatchReport)
        assert report.engine == name
        assert report.engine_stats is not None
        assert report.engine_stats.calls["relation"] == 6

    def test_batch_relations_forwards_engine_configuration(self):
        """A store built around a configured engine instance must hand
        the batch a *compatible* instance, not just the name —
        historically ``engine=self._engine.name`` silently dropped a
        custom epsilon/observer."""
        from repro.core.engine import create_engine

        # An absurdly wide epsilon flags every pair as ill-conditioned,
        # so all of them must take the guarded ladder's exact rung; if
        # the store forwarded only the name, the default epsilon would
        # leave (nearly) every pair on the fast rung instead.
        engine = create_engine("guarded", epsilon=10.0)
        store = RelationStore(build_configuration(count=3), engine=engine)
        report = store.batch_relations()
        assert report.engine == "guarded"
        assert report.engine_stats.path_counts.get("fast", 0) == 0
        assert report.engine_stats.path_counts["exact"] == 6
        # The store's own engine keeps its telemetry untouched — the
        # batch ran on a spawned twin, not on the shared instance.
        assert store.engine_stats.calls["relation"] == 0
