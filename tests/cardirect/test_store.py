"""Tests for the relation store (caching + invalidation)."""

import random

import pytest

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.cardirect.store import RelationStore
from repro.core.tiles import Tile
from repro.geometry.region import Region


def rect_region(x0, y0, x1, y1) -> Region:
    return Region.from_coordinates([[(x0, y0), (x0, y1), (x1, y1), (x1, y0)]])


def make_store() -> RelationStore:
    configuration = Configuration.from_regions(
        [
            AnnotatedRegion("box", rect_region(0, 0, 10, 10)),
            AnnotatedRegion("south", rect_region(2, -8, 8, -2)),
            AnnotatedRegion("east", rect_region(12, 2, 18, 8)),
        ]
    )
    return RelationStore(configuration)


class TestRelations:
    def test_relation(self):
        store = make_store()
        assert str(store.relation("south", "box")) == "S"
        assert str(store.relation("east", "box")) == "E"

    def test_relation_is_directional(self):
        store = make_store()
        # The box is wider than south's mbb, so it spreads over the
        # whole northern row of south's grid.
        assert str(store.relation("box", "south")) == "NW:N:NE"

    def test_percentages(self):
        store = make_store()
        assert store.percentages("south", "box").percentage(Tile.S) == 100

    def test_all_relations_count(self):
        store = make_store()
        assert len(list(store.all_relations())) == 3 * 2

    def test_all_relations_include_self(self):
        store = make_store()
        entries = list(store.all_relations(include_self=True))
        assert len(entries) == 9
        self_entries = [r for p, q, r in entries if p == q]
        assert all(str(r) == "B" for r in self_entries)


def engine_counts(store):
    """``(relation engine calls, cache assists)`` so far.

    Relations are interned, so object identity cannot tell a cache hit
    from a recompute; the engine's telemetry can.
    """
    stats = store.engine_stats
    return stats.calls["relation"], stats.cache_assists


class TestCaching:
    def test_cached_instances_are_reused(self):
        store = make_store()
        first = store.relation("south", "box")
        calls, assists = engine_counts(store)
        assert store.relation("south", "box") == first
        assert engine_counts(store) == (calls, assists + 1)

    def test_update_region_invalidates(self):
        store = make_store()
        assert str(store.relation("south", "box")) == "S"
        moved = AnnotatedRegion("south", rect_region(2, 12, 8, 18))
        store.update_region(moved)
        assert str(store.relation("south", "box")) == "N"

    def test_update_region_keeps_unrelated_entries(self):
        store = make_store()
        east_before = store.relation("east", "box")
        store.update_region(AnnotatedRegion("south", rect_region(2, 12, 8, 18)))
        calls, assists = engine_counts(store)
        assert store.relation("east", "box") == east_before
        assert engine_counts(store) == (calls, assists + 1)

    def test_invalidate_all(self):
        store = make_store()
        first = store.relation("south", "box")
        store.invalidate()
        calls, assists = engine_counts(store)
        assert store.relation("south", "box") == first
        assert engine_counts(store) == (calls + 1, assists)
        assert store.relation("south", "box") == first
        assert engine_counts(store) == (calls + 1, assists + 1)

    def test_invalidate_affects_reference_side_too(self):
        store = make_store()
        assert str(store.relation("east", "box")) == "E"
        # Move the *reference*: east's relation to it must change.
        store.update_region(AnnotatedRegion("box", rect_region(20, 0, 30, 10)))
        assert str(store.relation("east", "box")) == "W"


class ScanningStore(RelationStore):
    """The store with its earlier invalidation: scan every key of every
    cache for the id, then let the real method do the rest."""

    def invalidate(self, region_id=None):
        if region_id is not None:
            for cache in (self._relations, self._percentages,
                          self._topology, self._distances):
                for key in [key for key in cache if region_id in key]:
                    del cache[key]
        super().invalidate(region_id)


def cache_keys(store):
    return [set(cache) for cache in (store._relations, store._percentages,
                                     store._topology, store._distances)]


def random_rect(rng):
    x, y = rng.randrange(0, 40), rng.randrange(0, 40)
    return rect_region(x, y, x + rng.randrange(1, 12), y + rng.randrange(1, 12))


class TestInvalidationKeys:
    """Targeted invalidation drops exactly the keys a scan of every
    cached pair drops: every key naming the id, its self pair, and its
    pairs with regions since removed from the configuration."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_matches_the_full_scan(self, seed):
        rng = random.Random(seed)
        regions = [AnnotatedRegion(f"r{i}", random_rect(rng)) for i in range(6)]
        stores = [
            cls(Configuration.from_regions(list(regions)))
            for cls in (RelationStore, ScanningStore)
        ]
        removed = {}
        for step in range(80):
            current = stores[0].configuration.region_ids
            action = rng.choice(["read", "read", "fill", "edit", "invalidate",
                                 "remove", "readd"])
            if action == "read" and len(current) > 1:
                primary, reference = rng.sample(current, 2)
                for store in stores:
                    store.relation(primary, reference)
                    store.relation(primary, primary)
                    store.percentages(primary, reference)
                    store.topology(primary, reference)
                    store.distance(primary, reference)
            elif action == "fill":
                for store in stores:
                    list(store.all_relations())
            elif action == "edit" and current:
                edited = AnnotatedRegion(rng.choice(current), random_rect(rng))
                for store in stores:
                    store.update_region(edited)
            elif action == "invalidate":
                region_id = rng.choice(sorted(set(current) | set(removed)))
                for store in stores:
                    store.invalidate(region_id)
            elif action == "remove" and len(current) > 2:
                region_id = rng.choice(current)
                for store in stores:
                    removed[region_id] = store.configuration.remove(region_id)
            elif action == "readd" and removed:
                region_id = rng.choice(sorted(removed))
                for store in stores:
                    store.configuration.add(removed[region_id])
                del removed[region_id]
            assert cache_keys(stores[0]) == cache_keys(stores[1]), (seed, step)
