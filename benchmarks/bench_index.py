"""The spatial index shoot-out: indexed queries and matrix maintenance.

Two workloads, both straight from the paper's usage scenario and both
measured against their pre-index baselines:

* **query** — a selective conjunctive query (a thematic anchor plus a
  direction clause) evaluated twice per tier: ``scan`` checks the
  direction clause against every candidate pair through the engine;
  ``index`` lets :class:`repro.core.index.SpatialIndex` reduce each
  clause to a candidate set (with strict-interior definite accepts)
  first.  Both paths are asserted row-for-row identical before any
  number is reported.
* **maintenance** — the store's maintained relation matrix after one
  region edit: ``full_recompute`` rebuilds the whole n x n matrix,
  ``single_edit`` recomputes only the edited region's row and column
  (:meth:`RelationStore.update_region` + :meth:`refresh_matrix`).

Tiers: 1k regions end-to-end, and a 10k-region tier where the full
matrix no longer fits benchmark time (or memory), so the full-recompute
baseline is *estimated* from a timed sample of restricted
``batch_relations`` rows scaled by ``n / sample`` and labelled
``"estimated": true`` in the record.

Machine-readable output lands in ``BENCH_index.json``::

    PYTHONPATH=src python -m benchmarks.bench_index            # 1k + 10k tiers
    PYTHONPATH=src python -m benchmarks.bench_index --quick    # CI smoke

``--check`` turns the targets into a gate: exit 1 unless the largest
tier reaches a 10x query speedup and a 50x maintenance speedup.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.cardirect.parser import parse_query
from repro.cardirect.store import RelationStore
from repro.core.batch import batch_relations
from repro.geometry.region import Region
from repro.workloads.generators import random_star_polygon

from benchmarks.conftest import SEED, sweep_configuration

#: Tier sizes of the full run and the CI smoke run.
TIERS = (1000, 10_000)
QUICK_TIERS = (150,)

#: Regions painted red: the query's thematic anchors.
ANCHORS = 3

#: The selective query: a few red anchors, one direction clause.
QUERY_TEXT = "color(a) = red and a N b"

#: Primaries sampled to estimate the 10k full-recompute baseline.
SAMPLE_PRIMARIES = 20

#: Tiers at or above this size estimate the full-recompute baseline
#: instead of measuring it (a 10k matrix is 100M cache entries).
ESTIMATE_THRESHOLD = 4000

#: Acceptance targets (checked by ``--check`` on the largest tier).
QUERY_TARGET = 10.0
MAINTENANCE_TARGET = 50.0

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_index.json"


def _workload(count: int) -> Configuration:
    """The shared sweep workload with :data:`ANCHORS` regions painted red.

    Anchors are spread across the grid (first / middle / last region) so
    the direction clause sees anchors in different quadrants.
    """
    base = sweep_configuration(count)
    anchor_ids = {
        f"g{index}" for index in (0, count // 2, count - 1)
    }
    while len(anchor_ids) < min(ANCHORS, count):
        anchor_ids.add(f"g{len(anchor_ids)}")
    regions = [
        dataclasses.replace(annotated, color="red")
        if annotated.id in anchor_ids
        else annotated
        for annotated in base
    ]
    return Configuration.from_regions(regions)


def _evaluate(configuration: Configuration, *, use_index: bool):
    """One evaluation on a fresh store; returns (rows, seconds, calls).

    The relation cache is cold either way (a fresh store per sample),
    so the scan pays its per-pair engine checks every time.  The index
    is forced to exist *before* the clock starts: it is a maintained
    structure — built once per configuration and updated in place
    across edits (the maintenance modes measure that path) — so its
    one-off build cost is not part of a query's latency.
    """
    store = RelationStore(
        configuration, engine="sweep", use_index=use_index
    )
    if use_index:
        assert store.index is not None
    query = parse_query(QUERY_TEXT)
    started = time.perf_counter()
    rows = query.evaluate(store, use_index=use_index)
    elapsed = time.perf_counter() - started
    return rows, elapsed, store.engine_stats.calls.get("relation", 0)


def _run_query_tier(
    configuration: Configuration, *, repeats: int
) -> Dict:
    """Cold scan vs cold indexed evaluation, best-of-``repeats``."""
    best: Dict[str, Tuple[float, int]] = {}
    expected_rows: Optional[List] = None
    for _ in range(repeats):
        for mode, use_index in (("scan", False), ("index", True)):
            rows, elapsed, calls = _evaluate(
                configuration, use_index=use_index
            )
            if expected_rows is None:
                expected_rows = rows
            elif rows != expected_rows:
                raise AssertionError(
                    f"query mode {mode!r} returned {len(rows)} row(s), "
                    f"expected {len(expected_rows)}: the index path must "
                    "be answer-identical to the scan"
                )
            if mode not in best or elapsed < best[mode][0]:
                best[mode] = (elapsed, calls)
    scan_seconds, scan_calls = best["scan"]
    index_seconds, index_calls = best["index"]
    return {
        "text": QUERY_TEXT,
        "rows": len(expected_rows or ()),
        "modes": {
            "query_scan": {
                "seconds": round(scan_seconds, 6),
                "engine_relation_calls": scan_calls,
            },
            "query_index": {
                "seconds": round(index_seconds, 6),
                "engine_relation_calls": index_calls,
                "speedup_vs_scan": round(scan_seconds / index_seconds, 2),
            },
        },
    }


def _perturbed(annotated: AnnotatedRegion) -> AnnotatedRegion:
    """The same region re-drawn: a fresh star at the same grid cell."""
    box = annotated.region.bounding_box()
    center = (
        (float(box.min_x) + float(box.max_x)) / 2.0,
        (float(box.min_y) + float(box.max_y)) / 2.0,
    )
    polygon = random_star_polygon(
        random.Random(SEED + 1), 12, center=center,
        min_radius=0.4, max_radius=2.0,
    )
    return dataclasses.replace(
        annotated, region=Region.from_polygon(polygon)
    )


def _verify_edit(
    store: RelationStore, configuration: Configuration, edited_id: str
) -> None:
    """Spot-check the maintained matrix against a fresh store."""
    fresh = RelationStore(configuration, engine="exact")
    ids = list(configuration.region_ids)
    step = max(1, len(ids) // 25)
    for other in ids[::step]:
        if other == edited_id:
            continue
        for primary, reference in (
            (edited_id, other), (other, edited_id)
        ):
            got = store.relation(primary, reference)
            want = fresh.relation(primary, reference)
            if got != want:
                raise AssertionError(
                    f"maintained matrix serves {got} for "
                    f"({primary}, {reference}), fresh store says {want}"
                )


def _run_maintenance_tier(configuration: Configuration) -> Dict:
    """Measured full rebuild vs single-edit row+column refresh."""
    count = len(configuration)
    store = RelationStore(configuration, engine="sweep")
    started = time.perf_counter()
    store.refresh_matrix()
    full_seconds = time.perf_counter() - started

    edited = _perturbed(configuration.get(f"g{count // 2}"))
    store.update_region(edited)
    started = time.perf_counter()
    store.refresh_matrix()
    edit_seconds = time.perf_counter() - started
    _verify_edit(store, configuration, edited.id)
    return {
        "modes": {
            "maintenance_full": {
                "seconds": round(full_seconds, 6),
                "pairs": count * (count - 1),
            },
            "maintenance_edit": {
                "seconds": round(edit_seconds, 6),
                "pairs": 2 * (count - 1),
                "speedup_vs_full": round(full_seconds / edit_seconds, 2),
            },
        },
    }


def _run_maintenance_tier_estimated(
    configuration: Configuration,
) -> Dict:
    """The 10k tier: full recompute estimated from sampled rows.

    A 10k matrix is 100M cached pairs — past both benchmark time and
    memory — so the full baseline is a timed restricted sweep over
    :data:`SAMPLE_PRIMARIES` evenly spaced primary rows, scaled by
    ``n / sample``.  The single-edit cost is measured for real via the
    same restricted pipeline: the edited region's row (``primaries``)
    plus its column (``references``).  Those are exactly the pairs
    :meth:`RelationStore.refresh_matrix` recomputes after one edit, but
    the store does not compute them this way: it refills them pair by
    pair through :meth:`RelationStore.relation`.
    """
    ids = list(configuration.region_ids)
    count = len(ids)
    sample = ids[:: max(1, count // SAMPLE_PRIMARIES)][:SAMPLE_PRIMARIES]
    started = time.perf_counter()
    report = batch_relations(
        configuration,
        engine="sweep",
        primaries=sample,
        validate=False,
        repair=False,
    )
    sample_seconds = time.perf_counter() - started
    if report.error_outcomes():
        raise AssertionError(
            f"sampled sweep: {len(report.error_outcomes())} pair(s) failed"
        )
    full_estimate = sample_seconds * (count / len(sample))

    edited_id = ids[count // 2]
    started = time.perf_counter()
    row = batch_relations(
        configuration,
        engine="sweep",
        primaries=[edited_id],
        validate=False,
        repair=False,
    )
    column = batch_relations(
        configuration,
        engine="sweep",
        references=[edited_id],
        validate=False,
        repair=False,
    )
    edit_seconds = time.perf_counter() - started
    if row.error_outcomes() or column.error_outcomes():
        raise AssertionError("single-edit sweep: pair(s) failed")
    return {
        "modes": {
            "maintenance_full": {
                "seconds": round(full_estimate, 6),
                "pairs": count * (count - 1),
                "estimated": True,
                "sampled_primaries": len(sample),
                "sample_seconds": round(sample_seconds, 6),
            },
            "maintenance_edit": {
                "seconds": round(edit_seconds, 6),
                "pairs": 2 * (count - 1),
                "speedup_vs_full": round(full_estimate / edit_seconds, 2),
            },
        },
    }


def _run_tier(count: int, *, repeats: int, verbose: bool) -> Dict:
    configuration = _workload(count)
    query = _run_query_tier(configuration, repeats=repeats)
    if count >= ESTIMATE_THRESHOLD:
        maintenance = _run_maintenance_tier_estimated(configuration)
    else:
        maintenance = _run_maintenance_tier(configuration)
    modes = {**query.pop("modes"), **maintenance["modes"]}
    tier = {"regions": count, "query": query, "modes": modes}
    if verbose:
        for mode, record in modes.items():
            speedup = record.get("speedup_vs_scan") or record.get(
                "speedup_vs_full"
            )
            suffix = f"  ({speedup:.2f}x baseline)" if speedup else ""
            estimated = "  (estimated)" if record.get("estimated") else ""
            print(
                f"tier {count:>6} {mode:>17}: "
                f"{record['seconds']:>10.4f} s{suffix}{estimated}"
            )
    return tier


def run(
    *,
    quick: bool = False,
    output: Optional[Path] = None,
    verbose: bool = True,
    check: bool = False,
) -> int:
    """Run every tier and write ``BENCH_index.json``.

    Returns 0 on success; 1 when a mode disagreed with its reference or
    ``check`` was requested and a target was missed.
    """
    tiers = QUICK_TIERS if quick else TIERS
    result: Dict = {
        "benchmark": "index",
        "seed": SEED,
        "quick": quick,
        "regions": max(tiers),
        "query_text": QUERY_TEXT,
        "targets": {
            "query_speedup": QUERY_TARGET,
            "maintenance_speedup": MAINTENANCE_TARGET,
        },
        "tiers": {},
    }
    try:
        for count in tiers:
            result["tiers"][str(count)] = _run_tier(
                count, repeats=1 if quick else 3, verbose=verbose
            )
    except AssertionError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    largest = result["tiers"][str(max(tiers))]["modes"]
    path = Path(output) if output is not None else DEFAULT_OUTPUT
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n")
    if verbose:
        print(f"written to {path}")
    if check:
        query_speedup = largest["query_index"]["speedup_vs_scan"]
        maintenance_speedup = largest["maintenance_edit"][
            "speedup_vs_full"
        ]
        failed = False
        if query_speedup < QUERY_TARGET:
            print(
                f"FAIL: indexed query reached only {query_speedup:.2f}x "
                f"the scan; the gate demands >= {QUERY_TARGET:.0f}x",
                file=sys.stderr,
            )
            failed = True
        if maintenance_speedup < MAINTENANCE_TARGET:
            print(
                f"FAIL: single-edit maintenance reached only "
                f"{maintenance_speedup:.2f}x the full recompute; the "
                f"gate demands >= {MAINTENANCE_TARGET:.0f}x",
                file=sys.stderr,
            )
            failed = True
        if failed:
            return 1
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark integration (collected with the other bench modules)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def indexed_configuration():
    return _workload(QUICK_TIERS[0])


@pytest.mark.benchmark(group="index-query")
@pytest.mark.parametrize("use_index", [False, True], ids=["scan", "index"])
def test_query_mode(benchmark, use_index, indexed_configuration):
    store = RelationStore(
        indexed_configuration, engine="sweep", use_index=use_index
    )
    query = parse_query(QUERY_TEXT)
    expected = query.evaluate(store, use_index=False)

    rows = benchmark(query.evaluate, store, use_index=use_index)
    assert rows == expected


def test_single_edit_matches_fresh(indexed_configuration):
    tier = _run_maintenance_tier(indexed_configuration)
    assert tier["modes"]["maintenance_edit"]["speedup_vs_full"] > 1.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="time indexed queries and matrix maintenance "
        "against their pre-index baselines; write BENCH_index.json"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"one small tier ({QUICK_TIERS[0]} regions), one repeat "
        "(CI smoke)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="JSON output path"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit 1 unless the largest tier reaches "
        f"{QUERY_TARGET:.0f}x query and {MAINTENANCE_TARGET:.0f}x "
        "maintenance speedups",
    )
    arguments = parser.parse_args(argv)
    return run(
        quick=arguments.quick,
        output=arguments.output,
        check=arguments.check,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
