"""The observability overhead budget: instrumented vs sinks installed.

``repro.obs`` promises that a disabled sink costs one attribute read
and one ``None`` check per instrumented call site.  This harness holds
the subsystem to that promise on the repo's headline workload (the
seeded all-pairs sweep of ``bench_sweep``):

* ``disabled`` — the instrumented code with no tracer/registry
  installed.  This is the number that must stay within the regression
  budget of the pre-observability sweep (``BENCH_sweep.json``);
* ``traced`` — a :class:`repro.obs.Tracer` installed for the sweep;
* ``metered`` — a :class:`repro.obs.MetricsRegistry` installed;
* ``profiled`` — a :class:`repro.obs.SamplingProfiler` running at its
  default rate.  Sampling happens on a background thread, so it must
  stay within a few percent of ``disabled`` (budget below, CI-gated);
* ``both`` — tracer and registry together (what ``cardirect
  --trace --metrics`` runs).

All timings are interleaved best-of-N (modes rotate within each round,
like ``bench_sweep``'s scaling tiers), so shared-machine noise taxes
every mode roughly equally; ``--quick`` keeps the rotation and only
shrinks N and the workload.  Overheads are the **median of per-round
ratios** against the same round's ``disabled`` timing — machine-speed
phases that slow a whole round cancel out of the ratio, which is what
makes a single-digit-percent budget checkable on a shared box where
absolute throughput swings far more than that between runs.

Machine-readable output lands in ``BENCH_obs.json``; sample artifacts
(a JSONL trace and a Prometheus text file from the ``both`` run, plus a
collapsed-stack ``.folded`` profile from the ``profiled`` run) are
written next to it for CI upload::

    PYTHONPATH=src python -m benchmarks.bench_obs            # 100 regions
    PYTHONPATH=src python -m benchmarks.bench_obs --quick    # CI smoke

The run **fails** (exit 1) when the ``traced`` or ``profiled`` overhead
vs ``disabled`` exceeds its budget, or when the ``disabled`` sweep
regresses past its budget vs ``BENCH_sweep.json``.  That last check
runs only when the baseline records the same number of regions: a full
100-region run checks it, a 24-region ``--quick`` run skips it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro import obs
from repro.core.batch import batch_relations
from repro.core.engine import create_engine

from benchmarks.conftest import SEED, sweep_configuration

REGIONS = 100
QUICK_REGIONS = 24
EDGES_PER_REGION = 12

#: Allowed slowdown of the *disabled*-sinks sweep vs the recorded
#: pre-observability baseline (BENCH_sweep.json), as a fraction.
DISABLED_BUDGET = 0.05

#: Allowed slowdown with a tracer installed.  Tracing does real work
#: (one span per bulk row), so the budget is loose — it exists to catch
#: an accidental per-pair hot-path span, which would blow far past it.
TRACED_BUDGET = 0.50

#: Allowed slowdown with the sampling profiler running.  The sampler
#: walks frames on its own thread at ~97 Hz, so the sweep itself should
#: barely notice it — the same budget as the disabled path.
PROFILED_BUDGET = 0.05

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
BASELINE = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"


def _median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    count = len(ordered)
    middle = count // 2
    if count % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


def _sweep(configuration) -> float:
    engine = create_engine("sweep")
    started = time.perf_counter()
    report = batch_relations(
        configuration, engine=engine, validate=False, repair=False
    )
    elapsed = time.perf_counter() - started
    if report.error_outcomes():
        raise AssertionError(
            f"{len(report.error_outcomes())} pair(s) failed"
        )
    return elapsed


def _time_mode(
    mode: str,
    configuration,
    artifacts: Dict[str, Path],
    loops: int = 1,
) -> float:
    """Mean seconds per sweep over ``loops`` back-to-back sweeps.

    A single sweep is ~0.1 s — short enough that one scheduler burst
    moves its timing by several percent.  Summing a few sweeps per
    measurement averages the burst noise *inside* each timing instead
    of letting it pick winners between modes.
    """
    if mode == "disabled":
        return sum(_sweep(configuration) for _ in range(loops)) / loops
    if mode == "traced":
        with obs.tracing():
            return sum(_sweep(configuration) for _ in range(loops)) / loops
    if mode == "metered":
        with obs.collecting():
            return sum(_sweep(configuration) for _ in range(loops)) / loops
    if mode == "profiled":
        with obs.profiling() as profiler:
            elapsed = sum(_sweep(configuration) for _ in range(loops))
        if "profile" in artifacts:
            profiler.export_folded(str(artifacts["profile"]))
        return elapsed / loops
    # "both": also the run that produces the sample CI artifacts.
    with obs.tracing() as tracer, obs.collecting() as registry:
        elapsed = sum(_sweep(configuration) for _ in range(loops))
    if "trace" in artifacts:
        tracer.export_jsonl(str(artifacts["trace"]))
        registry.export_prometheus(str(artifacts["metrics"]))
    return elapsed / loops


def run(
    regions: int = REGIONS,
    *,
    quick: bool = False,
    output: Optional[Path] = None,
    verbose: bool = True,
) -> int:
    if quick:
        regions = min(regions, QUICK_REGIONS)
    configuration = sweep_configuration(regions, edges=EDGES_PER_REGION)
    path = Path(output) if output is not None else DEFAULT_OUTPUT
    path.parent.mkdir(parents=True, exist_ok=True)
    artifacts = {
        "trace": path.parent / "BENCH_obs_trace.jsonl",
        "metrics": path.parent / "BENCH_obs_metrics.prom",
        "profile": path.parent / "BENCH_obs_profile.folded",
    }
    modes = ("disabled", "traced", "metered", "profiled", "both")
    # A single repeat cannot distinguish overhead from scheduler noise
    # (it once recorded a *negative* metered overhead), so even --quick
    # takes the best of three interleaved rounds, and every timing sums
    # several sweeps (see _time_mode).
    repeats = 3 if quick else 5
    loops = 4
    _sweep(configuration)  # warmup: numpy/import costs land on no mode
    # Interleave modes across rounds so shared-machine noise taxes each
    # mode roughly equally (same rationale as bench_sweep).
    rounds: List[Dict[str, float]] = []
    for round_index in range(repeats):
        # Sample artifacts are only written on the last round: the file
        # I/O of an export otherwise lands right before the *next*
        # round's first timing and taxes it (this is how the seed run
        # managed to record a negative metered overhead).
        round_artifacts = artifacts if round_index == repeats - 1 else {}
        times: Dict[str, float] = {}
        for mode in modes:
            # Settle collector debt before timing: without this the mode
            # *after* an instrumented one absorbs the GC pass over the
            # previous mode's spans, skewing interleaved comparisons.
            gc.collect()
            times[mode] = _time_mode(
                mode, configuration, round_artifacts, loops
            )
        rounds.append(times)
    best = {mode: min(times[mode] for times in rounds) for mode in modes}
    pairs = regions * (regions - 1)
    records = {
        mode: {
            "seconds": round(seconds, 6),
            "pairs_per_second": round(pairs / seconds, 1),
            # The ratio against the *same round's* disabled run strips
            # whole-round machine-speed swings; the median strips burst
            # outliers hitting a single timing.
            "overhead_vs_disabled": round(
                _median(
                    times[mode] / times["disabled"] for times in rounds
                )
                - 1.0,
                4,
            ),
        }
        for mode, seconds in best.items()
    }
    if verbose:
        for mode, record in records.items():
            print(
                f"{mode:>9}: {record['pairs_per_second']:>10.1f} pairs/s "
                f"({record['overhead_vs_disabled']:+.1%} vs disabled)"
            )

    failures: List[str] = []
    traced_overhead = records["traced"]["overhead_vs_disabled"]
    if traced_overhead > TRACED_BUDGET:
        failures.append(
            f"traced overhead {traced_overhead:.1%} exceeds the "
            f"{TRACED_BUDGET:.0%} budget (per-pair span on the hot path?)"
        )
    profiled_overhead = records["profiled"]["overhead_vs_disabled"]
    if profiled_overhead > PROFILED_BUDGET:
        failures.append(
            f"profiled overhead {profiled_overhead:.1%} exceeds the "
            f"{PROFILED_BUDGET:.0%} budget (sampler blocking the sweep?)"
        )
    baseline_record = None
    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())
        sweep_mode = baseline.get("modes", {}).get("sweep")
        # The budget only transfers within a workload size: --quick runs
        # compare against a --quick baseline, full runs against full.
        if sweep_mode and baseline.get("regions") == regions:
            baseline_pps = sweep_mode["pairs_per_second"]
            disabled_pps = records["disabled"]["pairs_per_second"]
            regression = 1.0 - disabled_pps / baseline_pps
            baseline_record = {
                "baseline_pairs_per_second": baseline_pps,
                "disabled_pairs_per_second": disabled_pps,
                "regression": round(regression, 4),
                "budget": DISABLED_BUDGET,
            }
            if verbose:
                print(
                    f"disabled vs BENCH_sweep.json sweep baseline: "
                    f"{-regression:+.1%} (budget -{DISABLED_BUDGET:.0%})"
                )
            if regression > DISABLED_BUDGET:
                failures.append(
                    f"disabled-sinks sweep regressed {regression:.1%} vs "
                    f"BENCH_sweep.json ({disabled_pps:.1f} vs "
                    f"{baseline_pps:.1f} pairs/s; budget "
                    f"{DISABLED_BUDGET:.0%})"
                )
        elif verbose:
            print(
                "note: BENCH_sweep.json covers a different workload size; "
                "baseline regression check skipped"
            )

    result = {
        "benchmark": "obs",
        "seed": SEED,
        "quick": quick,
        "regions": regions,
        "pairs": pairs,
        "modes": records,
        "budgets": {
            "disabled_vs_sweep_baseline": DISABLED_BUDGET,
            "traced_vs_disabled": TRACED_BUDGET,
            "profiled_vs_disabled": PROFILED_BUDGET,
        },
        "baseline_check": baseline_record,
        # Names relative to the JSON file's directory: written beside it.
        "artifacts": {name: p.name for name, p in artifacts.items()},
    }
    path.write_text(json.dumps(result, indent=2) + "\n")
    if verbose:
        print(f"written to {path}")
        print(f"sample trace: {artifacts['trace']}")
        print(f"sample metrics: {artifacts['metrics']}")
        print(f"sample profile: {artifacts['profile']}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="measure observability overhead on the all-pairs "
        "sweep and write BENCH_obs.json (+ sample trace/metrics files)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"small workload ({QUICK_REGIONS} regions), best of 3 "
        "rounds (CI smoke)",
    )
    parser.add_argument(
        "--regions", type=int, default=REGIONS, help="region count"
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="JSON output path"
    )
    arguments = parser.parse_args(argv)
    return run(
        arguments.regions, quick=arguments.quick, output=arguments.output
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
