"""The resilience-layer tax meter: what do deadlines and retries cost?

PR 6 wires deadline checks, retry bookkeeping and fault points into the
hot sweep path (:mod:`repro.core.batch`).  The design target is that all
of it is free when idle — one contextvar read and a ``None`` check per
pair — and this harness keeps that claim honest with four modes:

* ``plain`` — the sweep engine's serial all-pairs run exactly as the
  perf harness times it (no deadline, default retry policy, no faults);
* ``resilient`` — the same run under a generous live deadline and an
  explicit retry policy: every per-pair/per-row budget check actually
  reads the clock.  The headline number is this mode's overhead over
  ``plain`` (the design target is <5%; recorded, not gated);
* ``workers`` — the supervised process-pool path, fault-free: the
  submit/collect supervisor replacing the old bare ``pool.map``;
* ``workers_faulted`` — the same pool with a deterministic injected
  worker kill on the first chunk (:mod:`repro.resilience.faults`):
  the price of detecting a broken pool and re-dispatching the lost
  chunks.  Relations are asserted equal to ``plain`` first — recovery
  that drops or reorders pairs fails the run, it does not set a record.

Machine-readable output lands in ``BENCH_resilience.json``::

    PYTHONPATH=src python -m benchmarks.bench_resilience           # 60 regions
    PYTHONPATH=src python -m benchmarks.bench_resilience --quick   # CI smoke
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
from repro.core.engine import create_engine
from repro.resilience.faults import FaultSpec, injecting
from repro.resilience.retry import RetryPolicy

from benchmarks.conftest import SEED, sweep_configuration

#: Region count of the headline workload (and its CI smoke version).
REGIONS = 60
QUICK_REGIONS = 20

#: Edges per generated star region.
EDGES_PER_REGION = 12

#: The "generous" live deadline: far beyond any mode's runtime, so the
#: budget checks run but never fire — pure bookkeeping cost.
GENEROUS_DEADLINE = 600.0

#: Default output path: the repo root, next to the other BENCH records.
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"

#: The injected fault of ``workers_faulted``: kill the worker process
#: handling chunk 0 on its first attempt (later attempts survive).
KILL_FIRST_CHUNK = FaultSpec(
    site="batch.worker", kind="kill", only={"chunk": 0, "attempt": 0}
)


def _time_mode(mode: str, configuration) -> Dict:
    """One timed sweep of one mode; returns its raw measurement."""
    kwargs: Dict = {}
    faults = ()
    if mode == "resilient":
        kwargs["deadline"] = GENEROUS_DEADLINE
        kwargs["retry_policy"] = RetryPolicy(
            max_attempts=2, base_delay=0.0, jitter=0.0
        )
    elif mode in ("workers", "workers_faulted"):
        kwargs["workers"] = 2
        if mode == "workers_faulted":
            faults = (KILL_FIRST_CHUNK,)
    engine = create_engine("sweep")
    with injecting(*faults, seed=SEED):
        started = time.perf_counter()
        report = batch_relations(
            configuration, engine=engine, validate=False, repair=False, **kwargs
        )
        elapsed = time.perf_counter() - started
    if report.error_outcomes() or report.deadline_outcomes():
        raise AssertionError(
            f"mode {mode!r}: {len(report.error_outcomes())} failed pair(s), "
            f"{len(report.deadline_outcomes())} past deadline"
        )
    return {
        "workers": kwargs.get("workers"),
        "seconds": elapsed,
        "worker_failures": report.worker_failures,
        "chunk_retries": report.chunk_retries,
        "relations": report.relations(),
    }


def _run_modes(modes, configuration, *, repeats: int) -> Dict[str, Dict]:
    """Best-of-``repeats`` per mode, modes interleaved within each round.

    Interleaved for the same reason as the sweep shoot-out: on a shared
    machine a contention burst must tax every mode, not whichever one
    happened to own the hot minute.
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
            "workers": sample["workers"],
            "seconds": round(sample["seconds"], 6),
            "pairs_per_second": round(pairs / sample["seconds"], 1),
            "worker_failures": sample["worker_failures"],
            "chunk_retries": sample["chunk_retries"],
        }
        for mode, sample in best.items()
    }


def _check_outcomes_agree(configuration) -> None:
    """Every mode — including the faulted pool — must answer identically."""
    expected = _time_mode("plain", configuration)["relations"]
    for mode in ("resilient", "workers", "workers_faulted"):
        sample = _time_mode(mode, configuration)
        if sample["relations"] != expected:
            wrong = [
                key
                for key in expected
                if sample["relations"].get(key) != expected[key]
            ]
            raise AssertionError(
                f"mode {mode!r} disagrees with the plain sweep on "
                f"{len(wrong)} pair(s), e.g. {wrong[:3]}"
            )
        if mode == "workers_faulted" and sample["worker_failures"] == 0:
            raise AssertionError(
                "mode 'workers_faulted' recorded no worker failure — "
                "the injected kill never fired"
            )


def run(
    regions: int = REGIONS,
    *,
    quick: bool = False,
    output: Optional[Path] = None,
    verbose: bool = True,
) -> int:
    """Time all four modes and write the JSON record.

    Returns a process exit code: 0 when every mode agreed with the
    plain sweep (and the injected fault demonstrably fired), 1
    otherwise.  The <5% overhead target is recorded
    (``overhead_vs_plain``) but asserted nowhere: neither this run nor
    any test fails when ``resilient`` exceeds it.
    """
    if quick:
        regions = min(regions, QUICK_REGIONS)
    configuration = sweep_configuration(regions, edges=EDGES_PER_REGION)
    try:
        _check_outcomes_agree(configuration)
    except AssertionError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    modes = _run_modes(
        ("plain", "resilient", "workers", "workers_faulted"),
        configuration,
        repeats=1 if quick else 5,
    )
    if verbose:
        for mode, record in modes.items():
            print(
                f"{mode:>15}: {record['pairs_per_second']:>10.1f} pairs/s "
                f"({record['seconds']:.3f} s)"
            )
    plain = modes["plain"]["seconds"]
    result = {
        "benchmark": "resilience",
        "seed": SEED,
        "quick": quick,
        "regions": regions,
        "edges_per_region": EDGES_PER_REGION,
        "pairs": regions * (regions - 1),
        "modes": modes,
        "overhead_vs_plain": {
            mode: round(modes[mode]["seconds"] / plain - 1.0, 4)
            for mode in modes
            if mode != "plain"
        },
    }
    path = Path(output) if output is not None else DEFAULT_OUTPUT
    path.write_text(json.dumps(result, indent=2) + "\n")
    if verbose:
        overhead = result["overhead_vs_plain"]["resilient"]
        print(f"resilient overhead vs plain: {overhead:+.1%}")
        print(f"written to {path}")
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark integration (collected with the other bench modules)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_configuration():
    return sweep_configuration(QUICK_REGIONS, edges=EDGES_PER_REGION)


@pytest.mark.benchmark(group="resilience-tax")
@pytest.mark.parametrize("mode", ["plain", "resilient"])
def test_resilience_mode(benchmark, mode, small_configuration):
    def sweep():
        kwargs: Dict = {}
        if mode == "resilient":
            kwargs["deadline"] = GENEROUS_DEADLINE
            kwargs["retry_policy"] = RetryPolicy(
                max_attempts=2, base_delay=0.0, jitter=0.0
            )
        return batch_relations(
            small_configuration,
            engine=create_engine("sweep"),
            validate=False,
            repair=False,
            **kwargs,
        )

    report = benchmark(sweep)
    assert not report.error_outcomes()
    assert not report.deadline_outcomes()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="time the sweep with the resilience layer idle, live "
        "and recovering, and write BENCH_resilience.json"
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
    arguments = parser.parse_args(argv)
    return run(
        arguments.regions, quick=arguments.quick, output=arguments.output
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
