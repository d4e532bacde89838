"""Tests for fault-isolated batch computation (repro.core.batch).

The acceptance scenario of the robustness work: a configuration holding
a degenerate (bowtie) region and an unrepairable region must complete
``batch_relations`` with per-pair errors for the broken region's pairs
and an answer for every other pair.
"""

import pytest

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.cardirect.store import RelationStore
from repro.core.batch import (
    OK,
    REPAIRED,
    BatchReport,
    batch_relations,
)
from repro.core.compute import compute_cdr
from repro.errors import DeadlineExceeded, GeometryError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.region import Region
from repro.resilience.deadline import deadline_scope


def ring(*pts) -> Polygon:
    return Polygon(tuple(Point(x, y) for x, y in pts))


def clean_square() -> Region:
    return Region.from_polygon(ring((0, 0), (0, 1), (1, 1), (1, 0)))


def bowtie_region() -> Region:
    # Clockwise signed area, self-intersecting: passes the cheap
    # constructor checks, fails validation, repairable by splitting.
    return Region.from_polygon(ring((3, 4), (5, 0), (5, 2), (3, 0)))


def overlapping_region() -> Region:
    # Two squares with overlapping interiors: validation error that the
    # repair pipeline has no canonical fix for.
    return Region(
        (
            ring((0, 5), (0, 7), (2, 7), (2, 5)),
            ring((1, 5), (1, 7), (3, 7), (3, 5)),
        )
    )


def degenerate_configuration() -> Configuration:
    return Configuration.from_regions(
        [
            AnnotatedRegion("a", clean_square()),
            AnnotatedRegion("b", bowtie_region()),
            AnnotatedRegion("c", overlapping_region()),
        ]
    )


class TestAcceptanceScenario:
    @pytest.mark.parametrize(
        "engine", ["exact", "fast", "guarded", "clipping", "sweep"]
    )
    def test_degenerate_configuration_completes(self, engine):
        report = batch_relations(
            degenerate_configuration(), engine=engine, percentages=True
        )
        assert report.engine == engine
        assert report.engine_stats is not None
        assert report.engine_stats.calls["relation"] >= 2
        # Every pair not touching the unrepairable region is answered.
        assert len(report.ok_outcomes()) == 2
        assert {
            (o.primary_id, o.reference_id) for o in report.ok_outcomes()
        } == {("a", "b"), ("b", "a")}
        # The bowtie was repaired, not rejected.
        assert report.repairs["b"].codes() == ("split-self-intersection",)
        for outcome in report.ok_outcomes():
            assert outcome.status == REPAIRED
            assert outcome.percentages is not None
        # The broken region poisons exactly its own pairs.
        assert set(report.broken) == {"c"}
        assert len(report.error_outcomes()) == 4
        for outcome in report.error_outcomes():
            assert "c" in (outcome.primary_id, outcome.reference_id)
            assert "overlapping interiors" in outcome.error

    def test_repaired_relation_matches_direct_computation(self):
        report = batch_relations(degenerate_configuration())
        repaired_b = report.relations()[("a", "b")]
        from repro.geometry.repair import repair_region

        fixed_b, _ = repair_region(bowtie_region())
        assert repaired_b == compute_cdr(clean_square(), fixed_b)

    def test_clean_configuration_all_ok(self):
        configuration = Configuration.from_regions(
            [
                AnnotatedRegion("a", clean_square()),
                AnnotatedRegion("b", clean_square().translated(5, 5)),
            ]
        )
        report = batch_relations(configuration)
        assert [o.status for o in report.outcomes] == [OK, OK]
        assert report.repairs == {} and report.broken == {}
        assert str(report.outcomes[0]) == "a SW b"

    def test_without_repair_degenerates_become_errors(self):
        report = batch_relations(degenerate_configuration(), repair=False)
        assert set(report.broken) == {"b", "c"}
        assert report.ok_outcomes() == []
        assert len(report.error_outcomes()) == 6

    def test_include_self_and_summary(self):
        report = batch_relations(
            degenerate_configuration(), include_self=True
        )
        assert len(report.outcomes) == 9  # c-vs-c present, as an error
        summary = report.summary()
        assert "1 region(s) repaired" in summary
        assert "unusable: c" in summary

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="compute engine"):
            batch_relations(degenerate_configuration(), engine="quantum")


class TestRuntimeRetry:
    def test_runtime_failure_retries_after_repair(self, monkeypatch):
        """A pair that crashes at compute time on unvalidated degenerate
        geometry is retried on repaired geometry."""
        import repro.core.batch as batch_module

        configuration = Configuration.from_regions(
            [
                AnnotatedRegion("a", clean_square()),
                AnnotatedRegion("b", bowtie_region()),
            ]
        )
        real_compute = batch_module._compute_pair
        calls = {"failed": 0}

        def fragile(primary, box, **kwargs):
            # Simulate an engine that chokes on the raw bowtie.
            if any(not p.is_simple() for p in primary.polygons):
                calls["failed"] += 1
                raise GeometryError("engine cannot handle bowtie")
            return real_compute(primary, box, **kwargs)

        monkeypatch.setattr(batch_module, "_compute_pair", fragile)
        report = batch_relations(configuration, validate=False)
        assert calls["failed"] == 1
        assert all(o.ok for o in report.outcomes)
        assert report.relations()[("b", "a")] is not None
        assert "b" in report.repairs

    def test_unretryable_failure_keeps_original_error(self, monkeypatch):
        import repro.core.batch as batch_module

        configuration = Configuration.from_regions(
            [
                AnnotatedRegion("a", clean_square()),
                AnnotatedRegion("b", clean_square().translated(3, 0)),
            ]
        )

        def broken(primary, box, **kwargs):
            raise GeometryError("engine is on fire")

        monkeypatch.setattr(batch_module, "_compute_pair", broken)
        report = batch_relations(configuration)
        assert all(not o.ok for o in report.outcomes)
        assert all("engine is on fire" in o.error for o in report.outcomes)


class TestStoreIntegration:
    def test_all_relations_raise_mode_unchanged(self):
        store = RelationStore(degenerate_configuration())
        triples = list(store.all_relations())
        assert len(triples) == 6
        assert all(len(t) == 3 for t in triples)

    def test_all_relations_skip_and_report(self, monkeypatch):
        configuration = degenerate_configuration()
        store = RelationStore(configuration)
        engine = store.engine
        region_c = configuration.get("c").region
        box_c = region_c.bounding_box()
        original = engine._relation

        def flaky(primary, box):
            if primary is region_c or box == box_c:
                raise GeometryError("bad region")
            return original(primary, box)

        monkeypatch.setattr(engine, "_relation", flaky)
        assert len(list(store.all_relations(on_error="skip"))) == 2
        outcomes = list(store.all_relations(on_error="report"))
        assert len(outcomes) == 6
        assert sum(o.ok for o in outcomes) == 2
        failed = [o for o in outcomes if not o.ok]
        # GeometryError context names the primary region of the pair.
        assert all("region" in o.error for o in failed)

    def test_all_relations_raise_mode_attaches_context(self, monkeypatch):
        store = RelationStore(degenerate_configuration())

        def always_fails(primary, box):
            raise GeometryError("boom")

        monkeypatch.setattr(store.engine, "_relation", always_fails)
        with pytest.raises(GeometryError, match="region 'a'"):
            list(store.all_relations())

    @pytest.mark.parametrize("engine", ["exact", "sweep"])
    @pytest.mark.parametrize("on_error", ["raise", "skip", "report"])
    def test_every_mode_raises_past_the_deadline(self, on_error, engine):
        """A sweep cut short is an error in every mode, never a short
        answer or a run of ``DEADLINE`` outcomes."""
        store = RelationStore(degenerate_configuration(), engine=engine)
        with deadline_scope(0.0), pytest.raises(DeadlineExceeded):
            list(store.all_relations(on_error=on_error))

    def test_invalid_on_error_rejected(self):
        store = RelationStore(degenerate_configuration())
        with pytest.raises(ValueError, match="on_error"):
            list(store.all_relations(on_error="explode"))

    def test_batch_relations_method_inherits_mode(self):
        store = RelationStore(degenerate_configuration(), engine="guarded")
        report = store.batch_relations()
        assert isinstance(report, BatchReport)
        assert report.engine == "guarded"
        assert all(
            o.path is not None for o in report.ok_outcomes()
        ), "guarded store must produce path diagnostics"

    def test_guarded_store_counts_paths(self):
        store = RelationStore(
            Configuration.from_regions(
                [
                    AnnotatedRegion("a", clean_square()),
                    AnnotatedRegion("b", clean_square().translated(7, 7)),
                ]
            ),
            engine="guarded",
        )
        list(store.all_relations())
        assert sum(store.engine_stats.path_counts.values()) == 2
