"""Tests for the perf trend registry (benchmarks/trend.py)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.trend import (
    HIGHER,
    LOWER,
    check_metrics,
    current_metrics,
    iter_metrics,
    load_registry,
    main,
    update_registry,
    vs_best,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _bench_record(pairs_per_second=1000.0, seconds=0.5):
    return {
        "benchmark": "sweep",
        "regions": 100,
        "modes": {
            "sweep": {
                "pairs_per_second": pairs_per_second,
                "seconds": seconds,
            }
        },
        "budgets": {"some_budget": 0.05},
        "targets": {"query_speedup": 10.0},
    }


def _write_bench(root: Path, record) -> None:
    (root / "BENCH_sweep.json").write_text(json.dumps(record))


class TestIterMetrics:
    def test_directions_inferred_from_leaf(self):
        metrics = dict(
            (key, (value, direction))
            for key, value, direction in iter_metrics(_bench_record())
        )
        assert metrics["sweep.modes.sweep.pairs_per_second"] == (
            1000.0,
            HIGHER,
        )
        assert metrics["sweep.modes.sweep.seconds"] == (0.5, LOWER)

    def test_config_sections_excluded(self):
        keys = [key for key, *_ in iter_metrics(_bench_record())]
        assert not any("budget" in key or "target" in key for key in keys)

    def test_speedup_leaves_are_higher_is_better(self):
        record = {
            "benchmark": "x",
            "tiers": {"1000": {"modes": {"w": {"speedup_vs_serial": 4.0}}}},
        }
        ((key, value, direction),) = list(iter_metrics(record))
        assert key == "x.tiers.1000.modes.w.speedup_vs_serial"
        assert direction == HIGHER

    def test_non_metric_numbers_ignored(self):
        record = {"benchmark": "x", "regions": 100, "pairs": 9900}
        assert list(iter_metrics(record)) == []


class TestRegistry:
    def test_ingest_is_idempotent(self, tmp_path):
        _write_bench(tmp_path, _bench_record())
        metrics = current_metrics(tmp_path)
        registry = {"version": 1, "series": {}}
        first = update_registry(registry, metrics, stamp="t0")
        second = update_registry(registry, metrics, stamp="t1")
        assert first and not second
        entry = registry["series"]["sweep.modes.sweep.pairs_per_second"]
        assert len(entry["history"]) == 1

    def test_best_tracks_direction(self):
        registry = {"version": 1, "series": {}}
        update_registry(
            registry,
            {"m.pps": (100.0, HIGHER), "m.seconds": (2.0, LOWER)},
            stamp="t0",
        )
        update_registry(
            registry,
            {"m.pps": (80.0, HIGHER), "m.seconds": (3.0, LOWER)},
            stamp="t1",
        )
        assert registry["series"]["m.pps"]["best"] == 100.0
        assert registry["series"]["m.seconds"]["best"] == 2.0
        update_registry(registry, {"m.pps": (150.0, HIGHER)}, stamp="t2")
        assert registry["series"]["m.pps"]["best"] == 150.0

    def test_load_tolerates_missing_and_corrupt(self, tmp_path):
        assert load_registry(tmp_path / "nope.json")["series"] == {}
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert load_registry(bad)["series"] == {}


class TestCheck:
    def _registry_with_best(self, best=1000.0, direction=HIGHER):
        return {
            "version": 1,
            "series": {
                "sweep.modes.sweep.pairs_per_second": {
                    "direction": direction,
                    "best": best,
                    "history": [{"value": best, "recorded": "t0"}],
                }
            },
        }

    def test_thirty_percent_regression_fails(self):
        failures = check_metrics(
            self._registry_with_best(1000.0),
            {"sweep.modes.sweep.pairs_per_second": (700.0, HIGHER)},
        )
        assert len(failures) == 1
        assert "30.0% below" in failures[0]

    def test_within_tolerance_passes(self):
        failures = check_metrics(
            self._registry_with_best(1000.0),
            {"sweep.modes.sweep.pairs_per_second": (800.0, HIGHER)},
        )
        assert failures == []

    def test_lower_is_better_direction(self):
        registry = {
            "version": 1,
            "series": {
                "sweep.modes.sweep.seconds": {
                    "direction": LOWER,
                    "best": 1.0,
                    "history": [],
                }
            },
        }
        assert check_metrics(
            registry, {"sweep.modes.sweep.seconds": (1.2, LOWER)}
        ) == []
        (failure,) = check_metrics(
            registry, {"sweep.modes.sweep.seconds": (1.6, LOWER)}
        )
        assert "above the recorded best" in failure

    def test_unknown_series_passes(self):
        assert check_metrics(
            {"version": 1, "series": {}}, {"new.metric": (1.0, HIGHER)}
        ) == []

    def test_custom_tolerance(self):
        metrics = {"sweep.modes.sweep.pairs_per_second": (900.0, HIGHER)}
        assert check_metrics(
            self._registry_with_best(1000.0), metrics, tolerance=0.05
        )
        assert not check_metrics(
            self._registry_with_best(1000.0), metrics, tolerance=0.15
        )

    def test_vs_best_signs(self):
        assert vs_best(110.0, HIGHER, 100.0) == pytest.approx(0.1)
        assert vs_best(50.0, LOWER, 100.0) == pytest.approx(1.0)
        assert vs_best(1.0, HIGHER, 0.0) is None


class TestMainEndToEnd:
    def test_synthetic_regression_fails_check(self, tmp_path, capsys):
        _write_bench(tmp_path, _bench_record(pairs_per_second=1000.0))
        assert main(["--root", str(tmp_path)]) == 0
        # A 30% pairs/sec drop lands in the next run's bench file.
        _write_bench(tmp_path, _bench_record(pairs_per_second=700.0))
        capsys.readouterr()
        assert main(["--root", str(tmp_path), "--check"]) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err
        assert "pairs_per_second" in err

    def test_check_does_not_modify_registry(self, tmp_path):
        _write_bench(tmp_path, _bench_record())
        main(["--root", str(tmp_path)])
        registry_path = tmp_path / "BENCH_trend.json"
        before = registry_path.read_text()
        _write_bench(tmp_path, _bench_record(pairs_per_second=700.0))
        main(["--root", str(tmp_path), "--check"])
        assert registry_path.read_text() == before

    def test_committed_bench_files_pass(self, capsys):
        # The acceptance gate: the repo's own recorded benchmarks must
        # sit within tolerance of their own registry.
        assert (REPO_ROOT / "BENCH_trend.json").exists()
        assert main(["--root", str(REPO_ROOT), "--check"]) == 0
        assert "trend check passed" in capsys.readouterr().out

    def test_runs_as_a_script(self, tmp_path):
        """``python benchmarks/trend.py`` works from any directory, without
        ``-m`` or ``PYTHONPATH``."""
        result = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "benchmarks" / "trend.py"),
                "--root",
                str(REPO_ROOT),
                "--check",
            ],
            cwd=tmp_path,
            env={
                name: value
                for name, value in os.environ.items()
                if name != "PYTHONPATH"
            },
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "trend check passed" in result.stdout
