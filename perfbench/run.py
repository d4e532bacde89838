"""CARDIRECT benchmark: one command, four workloads, outside-in timings.

Run from the repository root::

    python3 perfbench/run.py --workload session --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (spans are written to
``perfbench/out/``).  ``--quick`` runs a few ops of the workload, for the
self-tests.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print every metric by name and unit.  Every timing is scaled to the
reference machine speed of ``speed.py``; the unscaled figures are printed
too.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from spans import Recorder, self_times
from speed import Meter, scale_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# A run stops at the next pass boundary once it has taken this many
# times --seconds, so a badly slowed program still ends in time.
TIME_CAP = 4

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "xmlio.parse_s": "s",
    "batch.serial_s": "s",
    "batch.pool_s": "s",
    "batch.engine_share": "ratio",
    "batch.worker_failures": "count",
    "batch.chunk_retries": "count",
    "batch.inline_chunks": "count",
    "engine.busy_s": "s",
    "engine.prune_ratio": "ratio",
    "batch.repaired_regions": "count",
    "batch.broken_regions": "count",
    "batch.failed_pairs": "count",
    "parser.parse_s": "s",
    "query.evaluate_s": "s",
    "query.rows": "count",
    "query.engine_calls": "count",
    "index.build_s": "s",
    "store.hit_ratio": "ratio",
    "store.update_s": "s",
    "store.refresh_s": "s",
    "report.pair_s": "s",
    "reasoning.parse_s": "s",
    "reasoning.solve_s": "s",
    "reasoning.compose_misses": "count",
    "reasoning.candidates_examined": "count",
    "reasoning.unknown_verdicts": "count",
    "trace.overhead": "ratio",
    "pairs_per_s": "1/s",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
    "error_rate": "ratio",
}

# Span name -> per-layer metric holding its self time per op.
SPAN_METRICS = {
    "batch.serial": "batch.serial_s",
    "batch.pool": "batch.pool_s",
    "parser.parse_query": "parser.parse_s",
    "query.evaluate": "query.evaluate_s",
    "store.update_region": "store.update_s",
    "store.refresh_matrix": "store.refresh_s",
    "report.pair_report": "report.pair_s",
    "reasoning.parse_network": "reasoning.parse_s",
    "reasoning.solve": "reasoning.solve_s",
}


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(share * len(ordered)) - 1))]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Timed:
    """What the timed passes measured, split by traced and untraced.
    Seconds and latencies are scaled (``speed.py``) except ``raw_seconds``."""

    def __init__(self) -> None:
        self.seconds = {False: 0.0, True: 0.0}
        self.raw_seconds = {False: 0.0, True: 0.0}
        self.ops = {False: 0, True: 0}
        self.reads: Dict[bool, List[float]] = {False: [], True: []}
        self.writes: Dict[bool, List[float]] = {False: [], True: []}
        # Seconds and ops of the passes after the first, for trace.overhead.
        self.compared = {False: [0.0, 0], True: [0.0, 0]}


def run_passes(workload, recorder, meter: Meter, trace: bool, seconds: float) -> Timed:
    timed = Timed()
    # Traced runs trace the first pass (which may fill caches), then
    # alternate untraced and traced passes; trace.overhead compares those.
    if trace:
        schedule = [True] + [False, True] * max(1, (workload.passes - 1) // 2)
    else:
        schedule = [False] * workload.passes
    started = time.perf_counter()
    op_id = 0
    meter.burst()
    for k, traced in enumerate(schedule):
        recorder.enabled = traced
        ops = workload.ops(k)
        latencies: List[float] = []  # raw
        scales: List[float] = []
        digests = []
        gc.collect()
        if workload.digest_each_op:
            for index, op in enumerate(ops):
                raw, took = _one(workload, recorder, meter, op, op_id, traced)
                op_id += 1
                latencies.append(took)
                scales.append(workload.scale)
                digests.append(_digest(workload, index, op, raw, traced))
                del raw
            # Checks run between the jobs, so a pass is its jobs' time.
            pass_seconds = sum(latencies)
        else:
            raws = []
            probing = meter.spent
            pass_started = time.perf_counter()
            for op in ops:
                raw, took = _one(workload, recorder, meter, op, op_id, traced)
                op_id += 1
                latencies.append(took)
                scales.append(workload.scale)
                raws.append(raw)
            pass_seconds = time.perf_counter() - pass_started - (meter.spent - probing)
            digests = [_digest(workload, i, op, raw, traced) for i, (op, raw) in enumerate(zip(ops, raws))]
            del raws
        recorder.enabled = False
        workload.check_pass(k, ops, digests)
        scaled = [took * scale for took, scale in zip(latencies, scales)]
        pass_scaled = pass_seconds * sum(scaled) / sum(latencies) if latencies else 0.0
        timed.seconds[traced] += pass_scaled
        timed.raw_seconds[traced] += pass_seconds
        timed.ops[traced] += len(ops)
        if k:
            timed.compared[traced][0] += pass_scaled
            timed.compared[traced][1] += len(ops)
        for op, took in zip(ops, scaled):
            (timed.writes if workload.is_write(op) else timed.reads)[traced].append(took)
        if time.perf_counter() - started > TIME_CAP * seconds and k + 1 < len(schedule):
            print(f"time cap: stopped after {k + 1} of {len(schedule)} passes", file=sys.stderr)
            break
    return timed


def _one(workload, recorder, meter: Meter, op, op_id: int, traced: bool) -> Tuple[object, float]:
    """Run one op; an op that raises counts as failed, never aborts.
    The machine-speed probe runs before the op's time stamps."""
    meter.tick()
    workload.scale = recorder.scale = meter.scale() ** workload.speed_exponent
    if traced:
        recorder.begin("op", op=op_id)
    started = time.perf_counter()
    try:
        raw = workload.run(op, recorder, traced)
    except Exception as error:  # the op failed; the run goes on
        raw = error
    took = time.perf_counter() - started
    if traced:
        recorder.end()
    return raw, took


def _digest(workload, index: int, op, raw, traced: bool):
    if isinstance(raw, Exception):
        workload.fail(f"op {index} raised {type(raw).__name__}: {raw}")
        return None
    return workload.digest(index, op, raw, traced)


def end_to_end(workload, timed: Timed, setups: List[float], rss: float) -> Dict[str, float]:
    reads = timed.reads[False]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": timed.ops[False] / timed.seconds[False],
        "p50_ms": percentile(reads, 0.5) * 1e3,
        "tail_ms": percentile(reads, workload.tail) * 1e3,
        "peak_rss_mb": rss,
    }


def per_layer(workload, timed: Timed, recorder, setup_layers, attempted: int) -> Dict[str, float]:
    ops = max(1, timed.ops[True])
    counts = workload.counts
    metrics = {name: 0.0 for name in PER_LAYER}
    for span_name, seconds in self_times(recorder.spans).items():
        if span_name in SPAN_METRICS:
            metrics[SPAN_METRICS[span_name]] = seconds / ops
    for key, values in setup_layers.items():
        metrics[key] = statistics.median(values)
    for key in ("batch.worker_failures", "batch.chunk_retries", "batch.inline_chunks",
                "batch.repaired_regions", "batch.broken_regions", "batch.failed_pairs",
                "engine.busy_s", "query.rows", "query.engine_calls",
                "reasoning.candidates_examined", "reasoning.unknown_verdicts"):
        metrics[key] = counts.get(key, 0.0) / ops
    pool_seconds = sum(
        (span.end - span.start) * span.scale for span in recorder.spans if span.name == "batch.pool"
    )
    if pool_seconds:
        metrics["batch.engine_share"] = counts.get("pool_engine_s", 0.0) / (
            pool_seconds * workload.params["workers"]
        )
    paths = counts.get("prune", 0.0) + counts.get("broadcast", 0.0)
    if paths:
        metrics["engine.prune_ratio"] = counts["prune"] / paths
    lookups = counts.get("cache_assists", 0.0) + counts.get("engine_calls", 0.0)
    if lookups:
        metrics["store.hit_ratio"] = counts["cache_assists"] / lookups
    metrics["reasoning.compose_misses"] = counts.get("compose_misses", 0.0) / ops
    (traced_s, traced_ops), (plain_s, plain_ops) = timed.compared[True], timed.compared[False]
    if traced_s and plain_s:
        metrics["trace.overhead"] = (traced_ops / traced_s) / (plain_ops / plain_s)
    metrics.update(workload_specific(workload, timed, traced=True))
    metrics["error_rate"] = workload.failed / attempted
    return metrics


def workload_specific(workload, timed: Timed, traced: bool) -> Dict[str, float]:
    """The metrics that exist on one workload only (0 elsewhere)."""
    writes = timed.writes[traced]
    return {
        "pairs_per_s": workload.pairs[traced] / timed.seconds[traced] if timed.seconds[traced] else 0.0,
        "write_p50_ms": percentile(writes, 0.5) * 1e3,
        "write_tail_ms": percentile(writes, workload.tail) * 1e3,
    }


def child_pids() -> List[int]:
    """Processes whose parent is this one (Linux ``/proc``; else none)."""
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == os.getpid():
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    Pool workers still alive are terminated and joined.  The shared-memory plane of the pool jobs
    starts multiprocessing's resource tracker, which ignores SIGTERM and
    would outlive this process by a moment; closing its pipe ends it.
    Anything else still left is killed and reaped."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def main(argv: Sequence[str]) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="a few ops only")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.quick)
    workload.generate()
    recorder = Recorder()
    meter = Meter()
    setups: List[float] = []  # scaled
    raw_setups: List[float] = []
    setup_layers: Dict[str, List[float]] = {}
    for _ in range(SETUP_REPEATS):
        workload.release()
        workload.setup_layers = {}
        gc.collect()
        before = meter.burst()
        started = time.perf_counter()
        workload.setup()
        took = time.perf_counter() - started
        scale = scale_of(before + meter.burst()) ** workload.speed_exponent
        raw_setups.append(took)
        setups.append(took * scale)
        for key, value in workload.setup_layers.items():
            setup_layers.setdefault(key, []).append(value * scale)
    workload.precheck()
    gc.collect()
    timed = run_passes(workload, recorder, meter, trace, args.seconds)
    rss = peak_rss_mb()
    workload.verify()
    attempted = timed.ops[False] + timed.ops[True]
    if trace:
        metrics = per_layer(workload, timed, recorder, setup_layers, attempted)
        units = PER_LAYER
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        recorder.write(str(out / f"{args.workload}-seed{args.seed}.spans.jsonl"))
    else:
        metrics = end_to_end(workload, timed, setups, rss)
        units = END_TO_END
        extra = workload_specific(workload, timed, traced=False)
        extra["error_rate"] = workload.failed / attempted
        for name in ("pairs_per_s", "write_p50_ms", "write_tail_ms", "error_rate"):
            print(f"  {name:<30} {extra[name]:>14.6g} {PER_LAYER[name]}")
        print(f"  unscaled setup_s {statistics.median(raw_setups):.6g} s, ops_per_s "
              f"{timed.ops[False] / timed.raw_seconds[False]:.6g} 1/s; "
              f"mean scale {timed.seconds[False] / timed.raw_seconds[False]:.4g}, "
              f"{meter.probes} probes")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}")
    for message in workload.errors:
        print(f"failed: {message}", file=sys.stderr)
    if workload.known_defect:
        print(f"{workload.known_defect} of {workload.failed} failed ops are the recorded "
              "reason defect (a search cut at max_candidates reported as inconsistent); "
              f"{workload.tolerated()} are tolerated", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} ops in "
          f"{timed.seconds[False] + timed.seconds[True]:.2f} s timed, {workload.failed} failed")
    print(json.dumps({
        "correct": workload.correct(),
        "attempted": attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
