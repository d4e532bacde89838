"""The columnar batch report, decoded, against a per-pair loop.

A :class:`~repro.core.batch.BatchReport` keeps its pairs as columns (a
tile-mask matrix, status and path codes, sparse errors and matrices)
and makes :class:`~repro.core.batch.PairOutcome` objects only when they
are read.  These tests generate small maps with hypothesis — star
regions, a repairable bowtie and one unrepairable region — and check
that

* the decoded outcomes equal what a plain loop over the pairs gives,
  one engine call per pair, serially and at ``workers=2``, with self
  pairs, percentages and ``primaries`` / ``references`` restrictions;
* every other reader of the report — ``relations()``, the three
  ``*_outcomes()`` selections, ``summary()``, ``len``, indexing and
  slicing — agrees with the decoded list;
* both still hold under ``REPRO_FAULTS`` injected at ``batch.row`` and
  ``batch.worker``, and under a short deadline;
* a sweep leaves no per-pair objects behind before its outcomes are
  read.

CI replays this module under several ``REPRO_CHAOS_SEED`` values, like
the rest of the chaos suite.
"""

import gc
import json
import math
import os
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.core.batch import (
    DEADLINE,
    FAILED,
    OK,
    REPAIRED,
    PairOutcome,
    batch_relations,
)
from repro.core.engine import create_engine
from repro.core.tiles import single_tile_prune
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.region import Region
from repro.geometry.repair import repair_region
from repro.resilience.faults import ENV_FAULTS, ENV_SEED
from repro.resilience.retry import RetryPolicy
from repro.workloads.generators import random_star_polygon

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: No backoff sleeps — chaos tests stay fast.
TWO_ATTEMPTS = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)

#: Percentage drift allowed between the plane kernel and a per-pair
#: call, in percentage points (the equivalence suites' 1e-6 relative).
PERCENT_TOLERANCE = 100 * 1e-6

SWEEP_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _square(x: float, y: float, size: float) -> Polygon:
    return Polygon(
        (
            Point(x, y),
            Point(x, y + size),
            Point(x + size, y + size),
            Point(x + size, y),
        )
    )


def star_map(seed: int, count: int, bowtie_at: int, broken_at: int) -> Configuration:
    """``count`` star regions on a jittered grid, plus a bowtie (repaired
    by splitting) and two overlapping squares (unrepairable) spliced in."""
    rng = random.Random(seed)
    side = max(1, math.ceil(math.sqrt(count)))
    regions = []
    for index in range(count):
        center = (
            (index % side) * 3.0 + rng.uniform(-0.5, 0.5),
            (index // side) * 3.0 + rng.uniform(-0.5, 0.5),
        )
        polygon = random_star_polygon(
            rng, rng.randint(3, 9), center=center, min_radius=0.4, max_radius=2.0
        )
        regions.append(AnnotatedRegion(f"s{index}", Region.from_polygon(polygon)))
    x, y = rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)
    bowtie = Polygon(
        (Point(x, y + 4), Point(x + 2, y), Point(x + 2, y + 2), Point(x, y))
    )
    regions.insert(bowtie_at % (count + 1), AnnotatedRegion("bowtie", Region.from_polygon(bowtie)))
    x, y = rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)
    broken = Region((_square(x, y, 2.0), _square(x + 1, y, 2.0)))
    regions.insert(broken_at % (count + 2), AnnotatedRegion("broken", broken))
    return Configuration.from_regions(regions)


@st.composite
def sweeps(draw):
    """A generated map and the ``batch_relations`` options to sweep it."""
    count = draw(st.integers(min_value=3, max_value=6))
    configuration = star_map(
        draw(st.integers(min_value=0, max_value=2**16)),
        count,
        draw(st.integers(min_value=0, max_value=8)),
        draw(st.integers(min_value=0, max_value=8)),
    )
    ids = list(configuration.region_ids)
    options = {
        "engine": draw(st.sampled_from(["sweep", "exact"])),
        "workers": draw(st.sampled_from([None, 2])),
        "include_self": draw(st.booleans()),
        "percentages": draw(st.booleans()),
    }
    for restriction in ("primaries", "references"):
        if draw(st.booleans()):
            options[restriction] = draw(
                st.lists(st.sampled_from(ids), min_size=1, unique=True)
            )
    return configuration, options


def reference_outcomes(configuration, report, options):
    """Every pair as a per-pair loop answers it, with what it may be labelled.

    Geometry is the region as validated, or its repair for the bowtie;
    each pair is one ``relation`` (and ``percentages``) call on a fresh
    engine, labelled with the status and error text the per-pair sweep
    writes.  Returns ``(outcome, allowed paths)`` per pair, in order.
    """
    engine = create_engine(options["engine"])
    geometry = {}
    for annotated in configuration:
        region = annotated.region
        if annotated.id == "bowtie":
            region = repair_region(region, mode="repair")[0]
        geometry[annotated.id] = region
    ids = list(configuration.region_ids)
    expected = []
    for primary_id in options.get("primaries", ids):
        for reference_id in options.get("references", ids):
            if primary_id == reference_id and not options["include_self"]:
                continue
            unusable = [
                f"region {region_id!r} unusable: {report.broken[region_id]}"
                for region_id in (primary_id, reference_id)
                if region_id == "broken"
            ]
            if unusable:
                outcome = PairOutcome(
                    primary_id, reference_id, FAILED, error="; ".join(unusable)
                )
                expected.append((outcome, {None}))
                continue
            primary = geometry[primary_id]
            box = geometry[reference_id].bounding_box()
            paths = {None}
            if options["engine"] == "sweep":
                pruned = single_tile_prune(primary.bounding_box(), box) is not None
                paths = {"prune"} if pruned else {"broadcast", "fast"}
            status = REPAIRED if "bowtie" in (primary_id, reference_id) else OK
            outcome = PairOutcome(
                primary_id,
                reference_id,
                status,
                relation=engine.relation(primary, box),
                percentages=(
                    engine.percentages(primary, box)
                    if options["percentages"]
                    else None
                ),
            )
            expected.append((outcome, paths))
    return expected


def check_report(configuration, report, options):
    """The decoded outcomes against the per-pair loop, and every other
    reader of the report against the decoded outcomes."""
    decoded = list(report.outcomes)
    expected = reference_outcomes(configuration, report, options)
    assert [(o.primary_id, o.reference_id) for o in decoded] == [
        (want.primary_id, want.reference_id) for want, _ in expected
    ]
    assert set(report.broken) == {"broken"}
    assert set(report.repairs) == {"bowtie"}
    for got, (want, paths) in zip(decoded, expected):
        pair = (got.primary_id, got.reference_id)
        if got.status == DEADLINE:
            assert got.error, pair
            assert (got.relation, got.percentages, got.path) == (None, None, None)
            continue
        assert (got.status, got.error) == (want.status, want.error), pair
        assert got.relation == want.relation, pair
        assert got.path in paths, pair
        if want.percentages is None:
            assert got.percentages is None, pair
        else:
            assert got.percentages.is_close_to(
                want.percentages, PERCENT_TOLERANCE
            ), pair

    assert len(report.outcomes) == len(decoded)
    assert report.outcomes == decoded
    assert report.relations() == {
        (o.primary_id, o.reference_id): o.relation for o in decoded if o.ok
    }
    assert report.ok_outcomes() == [o for o in decoded if o.ok]
    assert report.error_outcomes() == [o for o in decoded if o.status == FAILED]
    assert report.deadline_outcomes() == [
        o for o in decoded if o.status == DEADLINE
    ]
    assert report.deadline_hit == any(o.status == DEADLINE for o in decoded)
    answered = sum(1 for o in decoded if o.ok)
    failed = sum(1 for o in decoded if o.status == FAILED)
    assert report.summary().startswith(
        f"{answered} pair(s) answered, {failed} failed"
    )
    for index in {0, len(decoded) // 2, len(decoded) - 1} if decoded else ():
        assert report.outcomes[index] == decoded[index]
        assert report.outcomes[index - len(decoded)] == decoded[index]
    middle = len(decoded) // 2
    for window in (
        slice(None),
        slice(1, 3),
        slice(middle, middle),  # empty
        slice(3, 1),  # empty: stop before start
        slice(None, None, -1),
        slice(-2, None, -3),
        slice(len(decoded) + 5, len(decoded) + 9),  # out of range
        slice(-len(decoded) - 7, 2),
    ):
        assert report.outcomes[window] == decoded[window], window


@SWEEP_SETTINGS
@given(case=sweeps())
def test_outcomes_match_a_per_pair_loop(case):
    configuration, options = case
    report = batch_relations(configuration, **options)
    assert not report.deadline_hit
    check_report(configuration, report, options)


#: Faults at the plane kernel's per-row site (its rows are then replayed
#: pair by pair) and at the pool's per-chunk site (lost chunks retried,
#: then swept inline).
FAULTS = {
    "row-raise": {"site": "batch.row", "kind": "raise", "rate": 0.5},
    "worker-raise": {"site": "batch.worker", "kind": "raise", "rate": 0.5},
    "worker-kill": {
        "site": "batch.worker",
        "kind": "kill",
        "only": {"chunk": 0, "attempt": 0},
    },
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@SWEEP_SETTINGS
@given(case=sweeps())
def test_outcomes_survive_injected_faults(fault, case):
    configuration, options = case
    environment = {
        ENV_FAULTS: json.dumps([FAULTS[fault]]),
        ENV_SEED: str(CHAOS_SEED),
    }
    with mock.patch.dict(os.environ, environment):
        report = batch_relations(
            configuration, retry_policy=TWO_ATTEMPTS, **options
        )
    assert not report.deadline_hit
    check_report(configuration, report, options)


@SWEEP_SETTINGS
@given(case=sweeps(), seconds=st.sampled_from([0.0, 0.002, 0.02]))
def test_a_deadline_labels_what_it_cut(case, seconds):
    configuration, options = case
    report = batch_relations(configuration, deadline=seconds, **options)
    check_report(configuration, report, options)


class TestAssignment:
    """``outcomes`` stays assignable, item by item or whole, and what is
    assigned is what every reader of the report sees."""

    def test_an_assigned_item_reaches_every_reader(self):
        report = batch_relations(star_map(1, 4, 0, 3), engine="sweep")
        index = next(
            i for i, o in enumerate(report.outcomes) if o.status == FAILED
        )
        changed = report.outcomes[index]._replace(status=OK)
        report.outcomes[index] = changed
        assert report.outcomes[index] == changed
        assert list(report.outcomes)[index] == changed
        assert changed not in report.error_outcomes()
        assert changed in report.ok_outcomes()
        assert (changed.primary_id, changed.reference_id) in report.relations()

    def test_an_assigned_list_round_trips(self):
        report = batch_relations(
            star_map(2, 4, 1, 2), engine="sweep", percentages=True
        )
        relation = report.ok_outcomes()[0].relation
        flipped = [
            o._replace(relation=relation, path="flipped") if o.ok else o
            for o in report.outcomes
        ]
        report.outcomes = flipped
        assert report.outcomes == flipped

    def test_an_outcome_for_another_pair_is_refused(self):
        report = batch_relations(star_map(3, 3, 0, 0), engine="sweep")
        with pytest.raises(ValueError):
            report.outcomes[0] = report.outcomes[1]
        with pytest.raises(ValueError):
            report.outcomes = list(report.outcomes)[1:]

    def test_an_assigned_slice_round_trips(self):
        report = batch_relations(star_map(3, 3, 0, 0))
        before = list(report.outcomes)
        report.outcomes[0:2] = before[0:2]
        assert report.outcomes == before
        relation = before[2].relation
        changed = [o._replace(relation=relation, path="flipped") for o in before]
        report.outcomes[::-2] = changed[::-2]
        expected = before[:]
        expected[::-2] = changed[::-2]
        assert report.outcomes == expected
        assert list(report.outcomes)[-1] == changed[-1]

    def test_a_slice_of_another_length_or_pair_is_refused(self):
        report = batch_relations(star_map(3, 3, 0, 0))
        before = list(report.outcomes)
        with pytest.raises(ValueError):
            report.outcomes[1:3] = before[1:2]
        with pytest.raises(ValueError):
            report.outcomes[0:2] = before[1:3]
        assert report.outcomes == before


@pytest.mark.parametrize("workers", [None, 2])
def test_a_sweep_keeps_no_per_pair_objects(workers):
    """Until its outcomes are read, a report holds columns, not one
    object per pair: a 200-region sweep (39,800 pairs) leaves fewer than
    one new GC-tracked object per ten pairs."""
    configuration = star_map(7, 198, 50, 150)
    batch_relations(configuration, engine="sweep", workers=workers)
    gc.collect()
    before = len(gc.get_objects())
    report = batch_relations(configuration, engine="sweep", workers=workers)
    gc.collect()
    grown = len(gc.get_objects()) - before
    pairs = len(report.outcomes)
    assert pairs == 200 * 199
    assert grown < pairs / 10, grown
