"""End-to-end integration: the full CARDIRECT workflow across modules.

Simulates the paper's usage story — segmentation output, annotation,
relation computation, XML persistence, a second session loading the file
and querying it — plus the enriched (topology/distance) query atoms on
the same configuration.
"""

import random

from repro.cardirect import (
    AnnotatedRegion,
    Configuration,
    RelationStore,
    configuration_from_xml,
    configuration_to_xml,
    parse_query,
)
from repro.core.compute import compute_cdr
from repro.extensions.distance import DistanceFrame
from repro.workloads.generators import random_rectilinear_region


def build_session(seed: int = 99) -> Configuration:
    rng = random.Random(seed)
    configuration = Configuration(image_name="survey", image_file="survey.png")
    labels = ["water", "forest", "urban"]
    for index in range(9):
        strip = (-40, 12 * index, 40, 12 * index + 10)
        configuration.add(
            AnnotatedRegion(
                id=f"patch{index}",
                name=f"Patch {index}",
                color=labels[index % 3],
                region=random_rectilinear_region(rng, 3, bounds=strip, cell=6),
            )
        )
    return configuration


class TestFullWorkflow:
    def test_annotate_compute_save_load_query(self):
        # Session 1: annotate and persist.
        configuration = build_session()
        store = RelationStore(configuration)
        document = configuration_to_xml(configuration, store=store)

        # Session 2: load and verify stored relations against recomputation.
        reloaded, stored_relations = configuration_from_xml(document)
        fresh_store = RelationStore(reloaded)
        assert len(stored_relations) == 9 * 8
        for (primary, reference), stored in stored_relations.items():
            assert fresh_store.relation(primary, reference) == stored

        # Query across thematic + directional atoms.
        query = parse_query(
            "color(f) = forest and color(w) = water "
            "and f {N, NW, NE, NW:N, N:NE, NW:NE, NW:N:NE} w"
        )
        results = query.evaluate(fresh_store)
        for forest_id, water_id in results:
            assert reloaded.get(forest_id).color == "forest"
            relation = fresh_store.relation(forest_id, water_id)
            assert relation.spans_rows == {1}

    def test_edit_invalidation_consistency(self):
        configuration = build_session()
        store = RelationStore(configuration)
        before = {
            (p, r): relation for p, r, relation in store.all_relations()
        }
        # Move one patch far north-east and verify only its rows change.
        victim = configuration.get("patch4")
        store.update_region(
            AnnotatedRegion(
                id=victim.id,
                name=victim.name,
                color=victim.color,
                region=victim.region.translated(500, 500),
            )
        )
        after = {(p, r): relation for p, r, relation in store.all_relations()}
        for key, relation in after.items():
            if "patch4" in key:
                continue
            assert before[key] == relation
        assert str(store.relation("patch4", "patch0")) == "NE"

    def test_enriched_atoms_agree_with_direct_computation(self):
        configuration = build_session()
        frame = DistanceFrame(("equal", "close", "far"), (0.0, 12.0))
        store = RelationStore(configuration, distance_frame=frame)
        query = parse_query("distance(a, b) = equal")
        touching_pairs = set(query.evaluate(store))
        from repro.extensions.distance import minimum_distance

        ids = configuration.region_ids
        for i in ids:
            for j in ids:
                if i == j:
                    continue
                expected = (
                    minimum_distance(
                        configuration.get(i).region, configuration.get(j).region
                    )
                    == 0.0
                )
                assert ((i, j) in touching_pairs) == expected


class TestReasoningRoundTrip:
    def test_geometric_network_to_symbolic_and_back(self):
        """Relations observed in geometry -> consistency witness ->
        relations recomputed from the witness: a full loop through
        Compute-CDR, the order solver and the maximal model."""
        from repro.reasoning.consistency import check_consistency

        configuration = build_session(7)
        ids = configuration.region_ids[:5]
        constraints = {}
        for i in ids:
            for j in ids:
                if i != j:
                    constraints[(i, j)] = compute_cdr(
                        configuration.get(i).region, configuration.get(j).region
                    )
        result = check_consistency(constraints)
        assert result
        for (i, j), relation in constraints.items():
            assert compute_cdr(result.witness[i], result.witness[j]) == relation

    def test_query_answers_respect_inverse_algebra(self):
        """For every answered pair (a, b) of a directional query, the
        reverse relation must be a disjunct of the symbolic inverse."""
        from repro.reasoning.inverse import inverse

        configuration = build_session(13)
        store = RelationStore(configuration)
        query = parse_query("a {N, NW:N, N:NE, NW, NE, NW:NE, NW:N:NE} b")
        for a_id, b_id in query.evaluate(store):
            forward = store.relation(a_id, b_id)
            backward = store.relation(b_id, a_id)
            assert backward in inverse(forward)
