"""Restricted sweeps: ``batch_relations(primaries=..., references=...)``.

The restriction exists so an index-supplied candidate list can reach
the batch executor without paying for the full n x n sweep, so its
contract is subset equality: a restricted sweep must produce exactly
the ``primaries x references`` slice of the full sweep — same
relations, same per-pair outcomes — on every execution path (serial,
pool workers on the plane, pool workers on region maps).
"""

import random

import pytest

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.core.batch import batch_relations
from repro.workloads.generators import random_rectilinear_region

COUNT = 14


@pytest.fixture(scope="module")
def configuration() -> Configuration:
    rng = random.Random(20040314)
    return Configuration.from_regions(
        [
            AnnotatedRegion(
                id=f"r{index}",
                region=random_rectilinear_region(
                    rng, 3, bounds=(-40, -40, 40, 40)
                ),
            )
            for index in range(COUNT)
        ]
    )


@pytest.fixture(scope="module")
def full_relations(configuration):
    return batch_relations(
        configuration, validate=False, repair=False
    ).relations()


PRIMARIES = ["r2", "r5", "r11"]
REFERENCES = ["r0", "r5", "r9", "r13"]


def expected_slice(full_relations, primaries, references):
    return {
        (primary, reference): relation
        for (primary, reference), relation in full_relations.items()
        if primary in primaries and reference in references
    }


class TestRestrictedSweep:
    @pytest.mark.parametrize("engine", ["exact", "sweep"])
    def test_serial_subset(self, configuration, full_relations, engine):
        report = batch_relations(
            configuration,
            engine=engine,
            primaries=PRIMARIES,
            references=REFERENCES,
            validate=False,
            repair=False,
        )
        assert not report.error_outcomes()
        assert report.relations() == expected_slice(
            full_relations, PRIMARIES, REFERENCES
        )

    def test_primaries_only(self, configuration, full_relations):
        report = batch_relations(
            configuration,
            primaries=PRIMARIES,
            validate=False,
            repair=False,
        )
        ids = list(configuration.region_ids)
        assert report.relations() == expected_slice(
            full_relations, PRIMARIES, ids
        )

    def test_references_only(self, configuration, full_relations):
        report = batch_relations(
            configuration,
            references=REFERENCES,
            validate=False,
            repair=False,
        )
        ids = list(configuration.region_ids)
        assert report.relations() == expected_slice(
            full_relations, ids, REFERENCES
        )

    @pytest.mark.parametrize("engine", ["sweep", "exact"])
    def test_workers_subset(self, configuration, full_relations, engine):
        """Pool workers honour the restriction whether they read the
        plane (sweep) or the region maps (every other engine)."""
        report = batch_relations(
            configuration,
            engine=engine,
            workers=2,
            primaries=PRIMARIES,
            references=REFERENCES,
            validate=False,
            repair=False,
        )
        assert not report.error_outcomes()
        assert report.relations() == expected_slice(
            full_relations, PRIMARIES, REFERENCES
        )

    def test_outcome_order_follows_restriction(self, configuration):
        report = batch_relations(
            configuration,
            primaries=["r5", "r2"],
            references=["r13", "r0"],
            validate=False,
            repair=False,
        )
        observed = [
            (outcome.primary_id, outcome.reference_id)
            for outcome in report.outcomes
        ]
        assert observed == [
            ("r5", "r13"),
            ("r5", "r0"),
            ("r2", "r13"),
            ("r2", "r0"),
        ]

    def test_self_pairs_still_excluded(self, configuration):
        report = batch_relations(
            configuration,
            primaries=["r5"],
            references=["r5", "r6"],
            validate=False,
            repair=False,
        )
        assert set(report.relations()) == {("r5", "r6")}

    def test_percentages_with_restriction(
        self, configuration
    ):
        restricted = batch_relations(
            configuration,
            percentages=True,
            primaries=PRIMARIES,
            references=REFERENCES,
            validate=False,
            repair=False,
        )
        full = batch_relations(
            configuration,
            percentages=True,
            validate=False,
            repair=False,
        )
        expected = {
            (outcome.primary_id, outcome.reference_id): outcome.percentages
            for outcome in full.outcomes
            if outcome.primary_id in PRIMARIES
            and outcome.reference_id in REFERENCES
        }
        got = {
            (outcome.primary_id, outcome.reference_id): outcome.percentages
            for outcome in restricted.outcomes
        }
        assert got == expected
        assert all(value is not None for value in got.values())

    def test_unknown_ids_rejected(self, configuration):
        with pytest.raises(ValueError, match="primaries"):
            batch_relations(
                configuration, primaries=["r2", "ghost"], validate=False
            )
        with pytest.raises(ValueError, match="references"):
            batch_relations(
                configuration, references=["nope"], validate=False
            )

    def test_empty_restriction(self, configuration):
        report = batch_relations(
            configuration, primaries=[], validate=False, repair=False
        )
        assert report.relations() == {}
        assert not report.outcomes
