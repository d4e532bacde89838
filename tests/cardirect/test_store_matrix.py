"""The maintained relation matrix: coherence, reuse, incremental cost.

Two contracts under test.  *Coherence* (the cache side): after
``update_region`` or ``invalidate`` — targeted or full — the store
must never serve a relation, percentage, or ``all_relations`` row
computed from the pre-edit geometry.  *Economy* (the perf side): a
repeated full sweep must cost zero engine work (the report command's
back-to-back case), and a single edit must re-enter only the edited
region's row and column, not the whole matrix.
"""

import dataclasses
import random

import pytest

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.cardirect.report import full_report, relation_report
from repro.cardirect.store import RelationStore
from repro.geometry.region import Region
from repro.workloads.generators import random_rectilinear_region

COUNT = 12


def rect_region(x0, y0, x1, y1) -> Region:
    return Region.from_coordinates([[(x0, y0), (x0, y1), (x1, y1), (x1, y0)]])


def make_configuration(seed: int = 20040314, count: int = COUNT):
    rng = random.Random(seed)
    return Configuration.from_regions(
        [
            AnnotatedRegion(
                id=f"r{index}",
                name=f"Region {index}",
                color=("red", "blue")[index % 2],
                region=random_rectilinear_region(
                    rng, 3, bounds=(-50, -50, 50, 50)
                ),
            )
            for index in range(count)
        ]
    )


def moved_region(annotated: AnnotatedRegion) -> AnnotatedRegion:
    """The same id far away: every one of its relations changes."""
    box = annotated.region.bounding_box()
    assert float(box.max_x) < 500
    return dataclasses.replace(
        annotated, region=rect_region(500, 500, 510, 510)
    )


def engine_work(store: RelationStore) -> int:
    return sum(store.engine_stats.calls.values())


class TestMatrixReuse:
    @pytest.mark.parametrize("engine", ["exact", "sweep"])
    def test_all_relations_replay_is_free(self, engine):
        store = RelationStore(make_configuration(), engine=engine)
        first = list(store.all_relations())
        work = engine_work(store)
        assert list(store.all_relations()) == first
        assert engine_work(store) == work

    def test_back_to_back_reports_do_not_recompute(self):
        """Satellite: ``cardirect report`` twice = one matrix build."""
        store = RelationStore(make_configuration())
        first = full_report(store)
        work = engine_work(store)
        assert full_report(store) == first
        assert relation_report(store) == relation_report(store)
        assert engine_work(store) == work

    @pytest.mark.parametrize("engine", ["exact", "sweep"])
    def test_matrix_agrees_with_per_pair_path(self, engine):
        configuration = make_configuration()
        bulk = RelationStore(configuration, engine=engine)
        lazy = RelationStore(configuration, engine=engine)
        matrix = {
            (primary, reference): relation
            for primary, reference, relation in bulk.all_relations()
        }
        for (primary, reference), relation in matrix.items():
            assert lazy.relation(primary, reference) == relation


class TestCoherenceAfterEdit:
    @pytest.mark.parametrize("engine", ["exact", "sweep"])
    def test_update_region_serves_fresh_relations(self, engine):
        """A sweep store's matrix mixes plane-filled entries with the
        edited row and column, refilled pair by pair: both must match
        a fresh exact store."""
        configuration = make_configuration()
        store = RelationStore(configuration, engine=engine)
        stale = {
            (primary, reference): relation
            for primary, reference, relation in store.all_relations()
        }
        edited = moved_region(configuration.get("r3"))
        store.update_region(edited)
        fresh = RelationStore(store.configuration)
        changed = 0
        for primary, reference, relation in store.all_relations():
            assert relation == fresh.relation(primary, reference)
            if "r3" in (primary, reference):
                changed += relation != stale[(primary, reference)]
        # Moving r3 far away must change relations in its row/column.
        assert changed > 0

    def test_update_region_is_incremental(self):
        store = RelationStore(make_configuration(), engine="sweep")
        list(store.all_relations())
        calls_before = dict(store.engine_stats.calls)
        store.update_region(moved_region(store.configuration.get("r5")))
        list(store.all_relations())
        calls = store.engine_stats.calls
        # Only r5's row and column re-enter: 2 * (n - 1) pair computes.
        new_relation_work = calls["relation"] - calls_before["relation"]
        assert 0 < new_relation_work <= 2 * (COUNT - 1)

    def test_targeted_invalidate_discards_percentages(self):
        configuration = make_configuration()
        store = RelationStore(configuration)
        before = store.percentages("r1", "r2")
        store.update_region(moved_region(configuration.get("r1")))
        after = store.percentages("r1", "r2")
        fresh = RelationStore(store.configuration)
        assert after == fresh.percentages("r1", "r2")
        assert before != after

    def test_full_invalidate_rebuilds_everything(self):
        configuration = make_configuration()
        store = RelationStore(configuration)
        list(store.all_relations())
        store.update_region(moved_region(configuration.get("r0")))
        store.invalidate()
        fresh = RelationStore(store.configuration)
        assert list(store.all_relations()) == list(fresh.all_relations())

    def test_index_follows_edits(self):
        configuration = make_configuration()
        store = RelationStore(configuration)
        index = store.index
        assert index is not None
        edited = moved_region(configuration.get("r7"))
        store.update_region(edited)
        probe = store.bounding_box("r7")
        hits = store.index.box_query(
            (499, 499, 499, 499), (511, 511, 511, 511)
        )
        assert "r7" in hits
        assert float(probe.min_x) == 500.0

    def test_unknown_percentage_entries_not_resurrected(self):
        """A stale percentage must go even when only the reference
        moved (percentages are primary-row keyed, both roles count)."""
        configuration = make_configuration()
        store = RelationStore(configuration)
        before = store.percentages("r2", "r4")
        store.update_region(moved_region(configuration.get("r4")))
        fresh = RelationStore(store.configuration)
        after = store.percentages("r2", "r4")
        assert after == fresh.percentages("r2", "r4")
        assert before is not after
