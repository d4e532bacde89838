"""CARDIRECT query evaluation throughput (Section 4).

The paper's usage scenario: annotate many regions, compute relations,
retrieve combinations by query.  Benches the two halves separately —
bulk relation computation (cold store) and repeated query evaluation
(warm store) — on a synthetic configuration of labelled patches.

Besides the pytest-benchmark cases, a standalone run persists the
numbers the same way ``bench_sweep`` does, so the query trajectory is
diffable across PRs in ``benchmarks.summarize``::

    PYTHONPATH=src python -m benchmarks.bench_query   # BENCH_query.json

Modes: ``bulk_cold`` (all-pairs relations from a cold store),
``warm_indexed`` / ``warm_scan`` (the paper's query shape on a warm
store, with and without the spatial index).  Each mode reports the best
of five runs (one with ``--quick``), but stops repeating once its runs
add up to ``REPEAT_BUDGET_S``: at 1,000 regions one cold fill is
999,000 pairs, so it is timed once.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.cardirect.parser import parse_query
from repro.cardirect.store import RelationStore
from repro.workloads.generators import random_rectilinear_region

REGIONS = 40

#: The paper's query shape: thematic filters plus a disjunctive
#: direction constraint.
QUERY_TEXT = (
    "color(a) = red and color(b) = blue and a {N, NW:N, N:NE, NW:N:NE} b"
)

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_query.json"

#: A mode stops repeating once its runs add up to this many seconds.
REPEAT_BUDGET_S = 5.0


def build_configuration(count: int = REGIONS) -> Configuration:
    rng = random.Random(7)
    colors = ("red", "blue", "green", "black")
    config = Configuration(image_name="bench")
    for index in range(count):
        config.add(
            AnnotatedRegion(
                id=f"r{index:03d}",
                name=f"Region {index}",
                color=colors[index % len(colors)],
                region=random_rectilinear_region(
                    rng, 3, bounds=(-100, -100, 100, 100)
                ),
            )
        )
    return config


@pytest.fixture(scope="module")
def configuration() -> Configuration:
    return build_configuration()


@pytest.mark.benchmark(group="cardirect-store")
def test_bulk_relation_computation(benchmark, configuration):
    """All n*(n-1) pairwise relations from a cold cache."""

    def run():
        store = RelationStore(configuration)
        return sum(1 for _ in store.all_relations())

    count = benchmark(run)
    assert count == REGIONS * (REGIONS - 1)


@pytest.mark.benchmark(group="cardirect-query")
def test_warm_query_evaluation(benchmark, configuration):
    """The paper's query shape on a warm store: thematic filters plus a
    disjunctive direction constraint."""
    store = RelationStore(configuration)
    query = parse_query(QUERY_TEXT)
    query.evaluate(store)  # warm the relation cache

    results = benchmark(query.evaluate, store)
    assert isinstance(results, list)


@pytest.mark.benchmark(group="cardirect-query")
def test_three_variable_query(benchmark, configuration):
    store = RelationStore(configuration)
    query = parse_query(
        "color(a) = red and a {N, NW, NE, NW:N, N:NE, NW:N:NE} b "
        "and b {N, NW, NE, NW:N, N:NE, NW:N:NE} c and color(c) = green"
    )
    query.evaluate(store)

    results = benchmark(query.evaluate, store)
    assert isinstance(results, list)


# ---------------------------------------------------------------------------
# standalone runner: persist the numbers for benchmarks.summarize
# ---------------------------------------------------------------------------


def _time_best(repeats: int, sample: Callable[[], float]) -> Tuple[float, int]:
    """The best of up to ``repeats`` samples, and how many ran: sampling
    stops early once the samples add up to ``REPEAT_BUDGET_S``."""
    samples: List[float] = []
    while len(samples) < repeats and sum(samples) < REPEAT_BUDGET_S:
        samples.append(sample())
    return min(samples), len(samples)


def run(
    regions: int = REGIONS,
    *,
    quick: bool = False,
    output: Optional[Path] = None,
    verbose: bool = True,
) -> int:
    """Time the store/query halves and write ``BENCH_query.json``.

    The indexed and scan evaluations are asserted row-for-row identical
    before any number is reported.
    """
    repeats = 1 if quick else 5
    configuration = build_configuration(regions)
    query = parse_query(QUERY_TEXT)

    def bulk_cold() -> float:
        store = RelationStore(configuration)
        started = time.perf_counter()
        count = sum(1 for _ in store.all_relations())
        elapsed = time.perf_counter() - started
        if count != regions * (regions - 1):
            raise AssertionError(f"bulk sweep yielded {count} pairs")
        return elapsed

    warm_indexed_store = RelationStore(configuration)
    warm_scan_store = RelationStore(configuration, use_index=False)
    expected = query.evaluate(warm_scan_store, use_index=False)
    if query.evaluate(warm_indexed_store) != expected:
        print(
            "FAIL: indexed evaluation disagrees with the scan",
            file=sys.stderr,
        )
        return 1

    def warm(store: RelationStore, use_index: bool):
        def sample() -> float:
            started = time.perf_counter()
            query.evaluate(store, use_index=use_index)
            return time.perf_counter() - started

        return sample

    samplers = {
        "bulk_cold": bulk_cold,
        "warm_scan": warm(warm_scan_store, False),
        "warm_indexed": warm(warm_indexed_store, True),
    }
    modes: Dict[str, Dict] = {}
    for mode, sampler in samplers.items():
        seconds, runs = _time_best(repeats, sampler)
        modes[mode] = {"seconds": round(seconds, 6), "runs": runs}
    modes["bulk_cold"]["pairs"] = regions * (regions - 1)
    modes["bulk_cold"]["pairs_per_second"] = round(
        modes["bulk_cold"]["pairs"] / modes["bulk_cold"]["seconds"], 1
    )
    scan = modes["warm_scan"]["seconds"]
    indexed = modes["warm_indexed"]["seconds"]
    if indexed > 0:
        modes["warm_indexed"]["speedup_vs_scan"] = round(scan / indexed, 2)
    result = {
        "benchmark": "query",
        "quick": quick,
        "regions": regions,
        "query_text": QUERY_TEXT,
        "rows": len(expected),
        "modes": modes,
    }
    path = Path(output) if output is not None else DEFAULT_OUTPUT
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n")
    if verbose:
        for mode, record in modes.items():
            runs = record["runs"]
            rule = (
                f"best of {runs}"
                if runs == repeats
                else f"best of {runs}: its runs passed the {REPEAT_BUDGET_S:g} s budget"
            )
            print(f"{mode:>13}: {record['seconds']:.6f} s ({rule})")
        print(f"written to {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="time CARDIRECT store/query throughput and write "
        "BENCH_query.json"
    )
    parser.add_argument(
        "--quick", action="store_true", help="single repeat (CI smoke)"
    )
    parser.add_argument(
        "--regions", type=int, default=REGIONS, help="region count"
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="JSON output path"
    )
    arguments = parser.parse_args(argv)
    return run(
        arguments.regions,
        quick=arguments.quick,
        output=arguments.output,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
