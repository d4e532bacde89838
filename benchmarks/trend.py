"""The perf trend registry: every ``BENCH_*.json`` across time.

``benchmarks/summarize.py`` answers "what do the numbers say *now*";
this tool answers "which way are they going".  Each run folds the
current ``BENCH_*.json`` records into ``BENCH_trend.json`` — one keyed
series per numeric metric (``sweep.modes.sweep.pairs_per_second``,
``index.tiers.10000.modes.query_index.seconds``, ...), each holding an
ordered history of distinct values and the best value ever recorded::

    python -m benchmarks.trend            # ingest + table
    python -m benchmarks.trend --check    # CI gate
    python benchmarks/trend.py --check    # the same, as a script

``--check`` compares the *current* bench files against each series'
recorded best and fails (exit 1) when a metric has regressed past the
tolerance — by default a 25% drop in a higher-is-better metric (or a
25% rise in a lower-is-better one).  The tolerance is deliberately
loose: CI machines are noisy, and the gate exists to catch "the sweep
got 30% slower and nobody noticed", not 3% jitter.

Metric direction is inferred from the leaf key, following the record
conventions ``summarize.py`` reads:

* ``*per_second`` and ``speedup*`` leaves are higher-is-better;
* ``seconds`` / ``*_seconds`` leaves are lower-is-better;
* everything else (counts, budgets, overhead ratios, targets) is not a
  trended metric and is ignored.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

if __package__ in (None, ""):
    # Run as a script: the ``benchmarks`` package lives in the repository
    # root, which is not on the path the way it is under ``-m``.
    sys.path.insert(0, str(ROOT))

from benchmarks.summarize import collect  # noqa: E402 - needs the path above

DEFAULT_REGISTRY = ROOT / "BENCH_trend.json"

#: Allowed drift from the recorded best before ``--check`` fails.
DEFAULT_TOLERANCE = 0.25

#: Record sections that hold configuration, not measurements.
_EXCLUDED_SECTIONS = frozenset(
    {"targets", "budgets", "baseline_check", "artifacts"}
)

HIGHER = "higher"
LOWER = "lower"


def _direction(leaf: str) -> Optional[str]:
    """The trend direction a leaf key implies, or ``None`` if untracked."""
    if leaf.endswith("per_second") or leaf.startswith("speedup"):
        return HIGHER
    if leaf == "seconds" or leaf.endswith("_seconds"):
        return LOWER
    return None


def iter_metrics(record: Dict) -> Iterator[Tuple[str, float, str]]:
    """``(key, value, direction)`` for every trended metric in a record.

    Keys are the benchmark name plus the dotted path to the leaf, e.g.
    ``obs.modes.disabled.pairs_per_second``.
    """
    benchmark = str(record.get("benchmark", "?"))

    def walk(node: object, path: str) -> Iterator[Tuple[str, float, str]]:
        if isinstance(node, dict):
            for key, value in node.items():
                if not path and key in _EXCLUDED_SECTIONS:
                    continue
                child = f"{path}.{key}" if path else str(key)
                yield from walk(value, child)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            leaf = path.rsplit(".", 1)[-1]
            direction = _direction(leaf)
            if direction is not None:
                yield f"{benchmark}.{path}", float(node), direction

    yield from walk(record, "")


def current_metrics(root: Path = ROOT) -> Dict[str, Tuple[float, str]]:
    """Every trended metric in the ``BENCH_*.json`` files at ``root``."""
    metrics: Dict[str, Tuple[float, str]] = {}
    for record in collect(root):
        if "error" in record:
            continue
        for key, value, direction in iter_metrics(record):
            metrics[key] = (value, direction)
    return metrics


# ---------------------------------------------------------------------------
# The registry file
# ---------------------------------------------------------------------------


def load_registry(path: Path) -> Dict:
    """The registry at ``path``, or an empty one when absent/corrupt."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {"version": 1, "series": {}}
    if not isinstance(data, dict) or not isinstance(data.get("series"), dict):
        return {"version": 1, "series": {}}
    data.setdefault("version", 1)
    return data


def update_registry(
    registry: Dict,
    metrics: Dict[str, Tuple[float, str]],
    *,
    stamp: Optional[str] = None,
) -> List[str]:
    """Fold ``metrics`` into ``registry`` in place; returns changed keys.

    History entries only append when the value actually moved, so
    re-running the ingest on unchanged bench files is idempotent.
    """
    if stamp is None:
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    series: Dict[str, Dict] = registry["series"]
    changed: List[str] = []
    for key, (value, direction) in sorted(metrics.items()):
        entry = series.get(key)
        if entry is None:
            series[key] = {
                "direction": direction,
                "best": value,
                "history": [{"value": value, "recorded": stamp}],
            }
            changed.append(key)
            continue
        entry["direction"] = direction
        history = entry.setdefault("history", [])
        if not history or history[-1].get("value") != value:
            history.append({"value": value, "recorded": stamp})
            changed.append(key)
        best = entry.get("best")
        if (
            not isinstance(best, (int, float))
            or (direction == HIGHER and value > best)
            or (direction == LOWER and value < best)
        ):
            entry["best"] = value
    registry["updated"] = stamp
    return changed


def save_registry(registry: Dict, path: Path) -> None:
    path.write_text(json.dumps(registry, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# The regression gate
# ---------------------------------------------------------------------------


def check_metrics(
    registry: Dict,
    metrics: Dict[str, Tuple[float, str]],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Failure messages for metrics regressed past ``tolerance``.

    Metrics with no recorded series are new and pass by definition;
    the next ingest will start tracking them.
    """
    failures: List[str] = []
    series: Dict[str, Dict] = registry.get("series", {})
    for key, (value, direction) in sorted(metrics.items()):
        entry = series.get(key)
        if entry is None:
            continue
        best = entry.get("best")
        if not isinstance(best, (int, float)) or best <= 0:
            continue
        if direction == HIGHER and value < best * (1.0 - tolerance):
            drop = 1.0 - value / best
            failures.append(
                f"{key}: {value:g} is {drop:.1%} below the recorded best "
                f"{best:g} (tolerance {tolerance:.0%})"
            )
        elif direction == LOWER and value > best * (1.0 + tolerance):
            rise = value / best - 1.0
            failures.append(
                f"{key}: {value:g} is {rise:.1%} above the recorded best "
                f"{best:g} (tolerance {tolerance:.0%})"
            )
    return failures


def vs_best(value: float, direction: str, best: float) -> Optional[float]:
    """Signed drift from best: positive = better, negative = worse."""
    if best <= 0:
        return None
    if direction == HIGHER:
        return value / best - 1.0
    return best / value - 1.0 if value > 0 else None


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_trend(
    registry: Dict, metrics: Dict[str, Tuple[float, str]]
) -> str:
    """The trajectory table: metric, current, best, drift, run count."""
    series: Dict[str, Dict] = registry.get("series", {})
    rows: List[Tuple[str, str, str, str, str]] = []
    for key, (value, direction) in sorted(metrics.items()):
        entry = series.get(key, {})
        best = entry.get("best")
        runs = len(entry.get("history", []))
        if isinstance(best, (int, float)) and best > 0:
            drift = vs_best(value, direction, float(best))
            drift_cell = "" if drift is None else f"{drift:+.1%}"
            best_cell = f"{best:g}"
        else:
            drift_cell, best_cell = "new", ""
        rows.append(
            (key, f"{value:g}", best_cell, drift_cell, str(runs or 1))
        )
    if not rows:
        return "(no trended metrics found)"
    headers = ("metric", "current", "best", "vs best", "runs")
    grid = [headers] + rows
    widths = [max(len(row[i]) for row in grid) for i in range(len(headers))]
    lines = [
        f"{grid[0][0]:<{widths[0]}}  "
        + "  ".join(f"{grid[0][i]:>{widths[i]}}" for i in range(1, 5)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            f"{row[0]:<{widths[0]}}  "
            + "  ".join(f"{row[i]:>{widths[i]}}" for i in range(1, 5))
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fold BENCH_*.json records into the BENCH_trend.json "
        "registry, or gate CI on regressions vs the recorded best"
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=ROOT,
        help="directory holding the BENCH_*.json files (default: repo root)",
    )
    parser.add_argument(
        "--registry",
        type=Path,
        default=None,
        help="registry path (default: <root>/BENCH_trend.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare current bench files against the recorded bests and "
        "exit 1 on regression; does not modify the registry",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"allowed drift from best before --check fails "
        f"(default {DEFAULT_TOLERANCE})",
    )
    arguments = parser.parse_args(argv)
    registry_path = (
        arguments.registry
        if arguments.registry is not None
        else arguments.root / DEFAULT_REGISTRY.name
    )
    metrics = current_metrics(arguments.root)
    registry = load_registry(registry_path)
    if arguments.check:
        failures = check_metrics(
            registry, metrics, tolerance=arguments.tolerance
        )
        print(render_trend(registry, metrics))
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if not failures:
            print(
                f"trend check passed: {len(metrics)} metric(s) within "
                f"{arguments.tolerance:.0%} of their recorded best"
            )
        return 1 if failures else 0
    changed = update_registry(registry, metrics)
    save_registry(registry, registry_path)
    print(render_trend(registry, metrics))
    print(
        f"{len(changed)} series updated, {len(metrics)} tracked; "
        f"registry: {registry_path}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
