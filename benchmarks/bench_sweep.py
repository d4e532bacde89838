"""The all-pairs sweep shoot-out: naive loop vs cache vs plane kernel vs pool.

The paper's core workload — "compute the (percentage) relations between
all regions" — is an n×n sweep, and this harness starts the repo's perf
trajectory for it.  Four modes, stacked the way the optimisations stack:

* ``naive`` — the historical per-pair loop: the fast float64 engine
  with the edge-array cache disabled, so every pair rebuilds the
  primary's edge arrays (the documented dominant cost);
* ``cached`` — the same loop with the engine layer's per-primary
  edge-array cache (one build serves a primary's whole row);
* ``sweep`` — the sweep engine's plane kernel, run inline: the
  configuration flattened once into columnar arrays, exact mbb
  single-tile pruning plus one ``(n_edges, n_boxes, 3)`` broadcast
  kernel per remaining row;
* ``workers`` — the same kernel fanned out over the process pool
  (``batch_relations(workers=2)``): the flattened configuration handed
  to each worker once, index-range chunks, persistent workers.

Two scaling tiers ride along on full (non ``--quick``) runs:

* the **1k-region tier** times the full ``batch_relations`` pipeline
  serially and at ``workers=2`` / ``workers=4``, verifying the worker
  runs against the serial sweep's relations and recording the speedup
  per worker count — the ISSUE 7 acceptance number;
* the **10k-region tier** times the plane kernel alone
  (``sweep_plane`` over a capped primary slice) — the 100M-pair
  workload where outcome assembly, not the kernel, is the question.

Machine-readable output lands in ``BENCH_sweep.json`` (pairs/sec per
mode, region/edge counts, speedups vs the naive loop, per-tier scaling)::

    PYTHONPATH=src python -m benchmarks.bench_sweep            # 100 regions
    PYTHONPATH=src python -m benchmarks.bench_sweep --quick    # CI smoke

Every mode's relations are asserted identical to the ``exact``
reference before any number is reported — a fast wrong sweep fails the
run, it does not set a record.  The ``workers`` / ``sweep`` ratio is
recorded under ``scaling`` but not gated: both modes run the same
kernel, so on a small map the pool's start-up can outweigh its second
core.  ``--check-scaling RATIO`` is the CI regression tripwire for the
pool itself: it times the exact engine — which does all of its work
inside the workers — at ``workers=2`` against the same call run
serially (interleaved, best of 5, both checked against the exact
relations) and exits 1 unless the pooled run reaches RATIO × the
serial one.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro.core.batch import batch_relations
from repro.core.engine import Engine, create_engine

from benchmarks.conftest import SEED, sweep_configuration

#: Region count of the headline workload (and its CI smoke version).
REGIONS = 100
QUICK_REGIONS = 24

#: Edges per generated star region.
EDGES_PER_REGION = 12

#: Default output path: the repo root, next to README.md.
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

#: Full-pipeline scaling tier: serial vs workers=2 vs workers=4.
TIER_REGIONS = 1000

#: Kernel-only tier: plane sweep over a capped primary slice.
KERNEL_TIER_REGIONS = 10_000
KERNEL_TIER_PRIMARIES = 200

#: Interleaved repeats of the ``--check-scaling`` measurement.
SCALING_REPEATS = 5


def _mode_engine(mode: str) -> Engine:
    if mode == "naive":
        return create_engine("fast", edge_cache_size=0)
    if mode == "cached":
        return create_engine("fast")
    return create_engine("sweep")  # "sweep" and "workers"


def _time_mode(mode: str, configuration) -> Dict:
    """One timed sweep of one mode; returns its raw measurement."""
    workers = 2 if mode == "workers" else None
    engine = _mode_engine(mode)
    started = time.perf_counter()
    report = batch_relations(
        configuration,
        engine=engine,
        workers=workers,
        validate=False,
        repair=False,
    )
    elapsed = time.perf_counter() - started
    if report.error_outcomes():
        raise AssertionError(
            f"mode {mode!r}: {len(report.error_outcomes())} pair(s) failed"
        )
    return {
        "engine": engine.name,
        "workers": workers,
        "seconds": elapsed,
        "stats": report.engine_stats,
    }


def _run_modes(modes, configuration, *, repeats: int) -> Dict[str, Dict]:
    """Best-of-``repeats`` per mode, modes interleaved within each round.

    Interleaving matters on shared machines: timing all repeats of one
    mode back to back lets a noisy-neighbour burst land entirely on one
    mode and invert the table; spread across rounds, contention taxes
    every mode roughly equally and the per-mode minimum converges on
    the honest number.
    """
    best: Dict[str, Dict] = {}
    for _ in range(repeats):
        for mode in modes:
            sample = _time_mode(mode, configuration)
            if mode not in best or sample["seconds"] < best[mode]["seconds"]:
                best[mode] = sample
    pairs = len(configuration) * (len(configuration) - 1)
    return {
        mode: {
            "engine": sample["engine"],
            "workers": sample["workers"],
            "seconds": round(sample["seconds"], 6),
            "pairs_per_second": round(pairs / sample["seconds"], 1),
            "path_counts": dict(sample["stats"].path_counts),
            "edge_cache_hits": sample["stats"].edge_cache_hits,
        }
        for mode, sample in best.items()
    }


def _check_against_exact(configuration) -> Dict:
    """Every mode must reproduce the exact reference's relations,
    which are returned."""
    expected = batch_relations(
        configuration, engine="exact", validate=False, repair=False
    ).relations()
    for mode in ("naive", "cached", "sweep", "workers"):
        got = batch_relations(
            configuration,
            engine=_mode_engine(mode),
            workers=2 if mode == "workers" else None,
            validate=False,
            repair=False,
        ).relations()
        if got != expected:
            wrong = [k for k in expected if got.get(k) != expected[k]]
            raise AssertionError(
                f"mode {mode!r} disagrees with exact on {len(wrong)} "
                f"pair(s), e.g. {wrong[:3]}"
            )
    return expected


def _run_exact_scaling(configuration, expected: Dict) -> Dict:
    """The scaling gate's measurement: the exact engine at ``workers=2``
    against the same call run serially, interleaved best-of-
    :data:`SCALING_REPEATS`.

    The exact engine does all of its work inside the workers, so the
    ratio measures the pool rather than a choice of kernel.  Both runs
    must reproduce the exact reference's ``expected`` relations.
    """
    best: Dict[Optional[int], float] = {}
    for _ in range(SCALING_REPEATS):
        for workers in (None, 2):
            started = time.perf_counter()
            report = batch_relations(
                configuration,
                engine="exact",
                workers=workers,
                validate=False,
                repair=False,
            )
            elapsed = time.perf_counter() - started
            if report.relations() != expected:
                raise AssertionError(
                    f"exact engine at workers={workers} disagrees with "
                    "the exact reference"
                )
            best[workers] = min(elapsed, best.get(workers, elapsed))
    return {
        "engine": "exact",
        "regions": len(configuration),
        "serial_seconds": round(best[None], 6),
        "workers=2_seconds": round(best[2], 6),
        "ratio": round(best[None] / best[2], 2),
    }


def _time_batch(configuration, *, workers: Optional[int]) -> Dict:
    """One timed full-pipeline sweep; returns seconds + the report."""
    started = time.perf_counter()
    report = batch_relations(
        configuration,
        engine="sweep",
        workers=workers,
        validate=False,
        repair=False,
    )
    elapsed = time.perf_counter() - started
    if report.error_outcomes():
        raise AssertionError(
            f"workers={workers}: "
            f"{len(report.error_outcomes())} pair(s) failed"
        )
    return {"seconds": elapsed, "report": report}


def _run_scaling_tier(verbose: bool) -> Dict:
    """The 1k-region tier: full pipeline, serial vs workers=2 / 4.

    Too large to verify against the exact reference in benchmark time,
    so the worker runs are verified against the *serial sweep* instead
    — the serial sweep itself is exact-verified on the headline
    workload every run.
    """
    configuration = sweep_configuration(TIER_REGIONS, edges=EDGES_PER_REGION)
    pairs = TIER_REGIONS * (TIER_REGIONS - 1)
    tier_workers = (None, 2, 4)
    best: Dict[Optional[int], float] = {}
    expected = None
    for _ in range(3):  # interleaved best-of-3 (see _run_modes)
        for workers in tier_workers:
            sample = _time_batch(configuration, workers=workers)
            report = sample.pop("report")
            if workers is None and expected is None:
                expected = report.relations()
            elif workers is not None and report.relations() != expected:
                raise AssertionError(
                    f"tier {TIER_REGIONS}: workers={workers} disagrees "
                    "with the serial sweep"
                )
            seconds = sample["seconds"]
            if workers not in best or seconds < best[workers]:
                best[workers] = seconds
    serial_pps = pairs / best[None]
    modes: Dict[str, Dict] = {
        "serial": {
            "workers": None,
            "seconds": round(best[None], 6),
            "pairs_per_second": round(serial_pps, 1),
        }
    }
    for workers in (2, 4):
        pps = pairs / best[workers]
        modes[f"workers={workers}"] = {
            "workers": workers,
            "seconds": round(best[workers], 6),
            "pairs_per_second": round(pps, 1),
            "speedup_vs_serial": round(pps / serial_pps, 2),
        }
    tier = {"regions": TIER_REGIONS, "pairs": pairs, "modes": modes}
    if verbose:
        for mode, record in modes.items():
            scale = record.get("speedup_vs_serial")
            suffix = f"  ({scale:.2f}x serial)" if scale is not None else ""
            print(
                f"tier {TIER_REGIONS} {mode:>10}: "
                f"{record['pairs_per_second']:>10.1f} pairs/s"
                f"{suffix}"
            )
    return tier


def _run_kernel_tier(verbose: bool) -> Dict:
    """The 10k-region tier: the plane kernel alone, no assembly.

    Measures ``sweep_plane`` over :data:`KERNEL_TIER_PRIMARIES`
    primary rows of a 10k-region plane — the raw per-row cost the
    full pipeline amortises at scale.
    """
    from repro.core.plane import GeometryPlane

    configuration = sweep_configuration(
        KERNEL_TIER_REGIONS, edges=EDGES_PER_REGION
    )
    healthy = {annotated.id: annotated.region for annotated in configuration}
    boxes = {
        region_id: region.bounding_box()
        for region_id, region in healthy.items()
    }
    all_ids = list(configuration.region_ids)
    plane = GeometryPlane.build(all_ids, healthy=healthy, boxes=boxes)
    engine = create_engine("sweep")
    started = time.perf_counter()
    rows_done, _, _, _ = engine.sweep_plane(plane, 0, KERNEL_TIER_PRIMARIES)
    elapsed = time.perf_counter() - started
    if rows_done != KERNEL_TIER_PRIMARIES:
        raise AssertionError(
            f"kernel tier swept {rows_done} rows, "
            f"wanted {KERNEL_TIER_PRIMARIES}"
        )
    pairs = KERNEL_TIER_PRIMARIES * (KERNEL_TIER_REGIONS - 1)
    record = {
        "regions": KERNEL_TIER_REGIONS,
        "primaries": KERNEL_TIER_PRIMARIES,
        "pairs": pairs,
        "kernel_only": True,
        "modes": {
            "kernel": {
                "workers": None,
                "seconds": round(elapsed, 6),
                "pairs_per_second": round(pairs / elapsed, 1),
            }
        },
    }
    if verbose:
        print(
            f"tier {KERNEL_TIER_REGIONS} kernel    : "
            f"{record['modes']['kernel']['pairs_per_second']:>10.1f} pairs/s "
            f"({KERNEL_TIER_PRIMARIES} primaries)"
        )
    return record


def run(
    regions: int = REGIONS,
    *,
    quick: bool = False,
    output: Optional[Path] = None,
    verbose: bool = True,
    tiers: Optional[bool] = None,
    check_scaling: Optional[float] = None,
) -> int:
    """Time all four modes (plus scaling tiers) and write the JSON record.

    ``tiers`` adds the 1k full-pipeline and 10k kernel-only tiers
    (default: on for full runs, off for ``--quick``).
    ``check_scaling`` turns the run into a gate: exit 1 unless the exact
    engine at ``workers=2`` reaches that multiple of its serial speed
    (see :func:`_run_exact_scaling`; recorded under ``scaling_gate``).
    Returns a process exit code: 0 when every mode agreed with its
    reference (and any gate passed), 1 otherwise.
    """
    if quick:
        regions = min(regions, QUICK_REGIONS)
    if tiers is None:
        tiers = not quick
    configuration = sweep_configuration(regions, edges=EDGES_PER_REGION)
    try:
        expected = _check_against_exact(configuration)
    except AssertionError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    modes = _run_modes(
        ("naive", "cached", "sweep", "workers"),
        configuration,
        repeats=1 if quick else 5,
    )
    if verbose:
        for mode, record in modes.items():
            print(
                f"{mode:>8}: {record['pairs_per_second']:>10.1f} pairs/s "
                f"({record['seconds']:.3f} s)"
            )
    naive = modes["naive"]["pairs_per_second"]
    scaling_ratio = round(
        modes["workers"]["pairs_per_second"]
        / modes["sweep"]["pairs_per_second"],
        2,
    )
    result = {
        "benchmark": "sweep",
        "seed": SEED,
        "quick": quick,
        "regions": regions,
        "edges_per_region": EDGES_PER_REGION,
        "edges_total": regions * EDGES_PER_REGION,
        "pairs": regions * (regions - 1),
        "modes": modes,
        "speedup_vs_naive": {
            mode: round(modes[mode]["pairs_per_second"] / naive, 2)
            for mode in modes
        },
        "scaling": {"workers=2": scaling_ratio},
    }
    if check_scaling is not None:
        try:
            gate = _run_exact_scaling(configuration, expected)
        except AssertionError as error:
            print(f"FAIL: {error}", file=sys.stderr)
            return 1
        result["scaling_gate"] = gate
        if verbose:
            print(
                f"scaling gate: exact workers=2 at {gate['ratio']:.2f}x "
                f"serial ({gate['workers=2_seconds']:.3f} s vs "
                f"{gate['serial_seconds']:.3f} s)"
            )
    if tiers:
        try:
            result["tiers"] = {
                str(TIER_REGIONS): _run_scaling_tier(verbose),
                str(KERNEL_TIER_REGIONS): _run_kernel_tier(verbose),
            }
        except AssertionError as error:
            print(f"FAIL: {error}", file=sys.stderr)
            return 1
    path = Path(output) if output is not None else DEFAULT_OUTPUT
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n")
    if verbose:
        print(f"written to {path}")
    if check_scaling is not None and gate["ratio"] < check_scaling:
        print(
            f"FAIL: the exact engine at workers=2 reached only "
            f"{gate['ratio']:.2f}x its serial speed "
            f"({gate['workers=2_seconds']:.3f} s vs "
            f"{gate['serial_seconds']:.3f} s); the gate demands "
            f">= {check_scaling:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark integration (collected with the other bench modules)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_configuration():
    return sweep_configuration(QUICK_REGIONS, edges=EDGES_PER_REGION)


@pytest.fixture(scope="module")
def exact_relations(small_configuration):
    return batch_relations(
        small_configuration, engine="exact", validate=False, repair=False
    ).relations()


@pytest.mark.benchmark(group="sweep-all-pairs")
@pytest.mark.parametrize("mode", ["naive", "cached", "sweep"])
def test_sweep_mode(benchmark, mode, small_configuration, exact_relations):
    def sweep():
        return batch_relations(
            small_configuration,
            engine=_mode_engine(mode),
            validate=False,
            repair=False,
        )

    report = benchmark(sweep)
    assert not report.error_outcomes()
    assert report.relations() == exact_relations


def test_workers_mode_matches_serial(small_configuration, exact_relations):
    report = batch_relations(
        small_configuration,
        engine="sweep",
        workers=2,
        validate=False,
        repair=False,
    )
    assert not report.error_outcomes()
    assert report.relations() == exact_relations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="time the all-pairs sweep in every mode and write "
        "BENCH_sweep.json"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"small workload ({QUICK_REGIONS} regions), one repeat "
        "(CI smoke)",
    )
    parser.add_argument(
        "--regions", type=int, default=REGIONS, help="region count"
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="JSON output path"
    )
    tier_group = parser.add_mutually_exclusive_group()
    tier_group.add_argument(
        "--tiers",
        dest="tiers",
        action="store_true",
        default=None,
        help=f"force the {TIER_REGIONS}-region scaling and "
        f"{KERNEL_TIER_REGIONS}-region kernel tiers (default: on for "
        "full runs, off for --quick)",
    )
    tier_group.add_argument(
        "--no-tiers",
        dest="tiers",
        action="store_false",
        help="skip the scaling / kernel tiers",
    )
    parser.add_argument(
        "--check-scaling",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit 1 unless the exact engine at workers=2 reaches RATIO "
        "x its serial speed (CI regression gate for the pool)",
    )
    arguments = parser.parse_args(argv)
    return run(
        arguments.regions,
        quick=arguments.quick,
        output=arguments.output,
        tiers=arguments.tiers,
        check_scaling=arguments.check_scaling,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
