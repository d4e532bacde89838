"""Self-tests of the benchmark: quick runs, oracles, span arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
from spans import Recorder, Span, covered, self_times
from workloads import Annotate, Lookup, Reason, Session

from repro.core.relation import CardinalDirection
from repro.reasoning.netio import parse_network
from repro.reasoning.network import SolveReport

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_quick_run_prints_every_end_to_end_metric(workload):
    done = _result("--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", "0", "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_quick_traced_run_prints_every_per_layer_metric():
    done = _result("--workload", "reason", "--seed", "1", "--seconds", "1",
                   "--trace", "1", "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    names = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert result["metrics"]["reasoning.solve_s"]["value"] > 0


def test_a_pool_run_leaves_no_process_behind():
    # The pool jobs start workers and, through the shared-memory plane,
    # the resource tracker; main() must have stopped and reaped them all.
    probe = (
        "import sys; sys.path.insert(0, 'perfbench'); import run; "
        "code = run.main(['--workload', 'annotate', '--seed', '1', '--seconds', '1', "
        "'--trace', '0', '--quick']); "
        "print('children', run.child_pids(), code)"
    )
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "children [] 0"


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _result("--workload", "session", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_names_match_the_runner():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)


# -- oracles --------------------------------------------------------------


def _ready(cls, seed):
    workload = cls(seed, 1, True)
    workload.generate()
    workload.setup()
    return workload


def test_annotate_oracle_catches_a_flipped_relation():
    workload = _ready(Annotate, 3)
    op = workload.order[0]
    report = workload.run(op, Recorder(), False)
    workload.digest(0, op, report, False)
    assert workload.failed == 0

    def flip(outcome):
        wrong = "N" if str(outcome.relation) != "N" else "S"
        return outcome._replace(relation=CardinalDirection.parse(wrong))

    report.outcomes = [flip(o) if o.ok else o for o in report.outcomes]
    workload.digest(1, op, report, False)
    assert workload.failed == 1


def test_annotate_oracle_catches_a_wrong_status():
    workload = _ready(Annotate, 3)
    op = workload.order[0]
    report = workload.run(op, Recorder(), False)
    index = next(i for i, o in enumerate(report.outcomes) if o.status == "error")
    report.outcomes[index] = report.outcomes[index]._replace(status="ok")
    workload.digest(0, op, report, False)
    assert workload.failed == 1


def _session_pass(workload):
    workload.precheck()
    ops = workload.ops(0)
    digests = [workload.digest(i, op, workload.run(op, Recorder(), False), False)
               for i, op in enumerate(ops)]
    workload.check_pass(0, ops, digests)
    return ops, digests


def test_session_oracle_catches_a_dropped_row():
    for seed in range(1, 20):
        workload = _ready(Session, seed)
        ops, digests = _session_pass(workload)
        rows = [i for i, op in enumerate(ops) if op[0] == "query" and digests[i]]
        if rows:
            break
    workload.verify()
    assert workload.failed == 0
    workload.reference[rows[0]] = workload.reference[rows[0]][1:]
    workload.verify()
    assert workload.failed == 1


def test_session_passes_must_repeat_the_reference():
    workload = _ready(Session, 2)
    ops, digests = _session_pass(workload)
    assert workload.failed == 0
    index = next(i for i, op in enumerate(ops) if op[0] == "report")
    changed = list(digests)
    changed[index] = "a different report"
    workload.check_pass(1, ops, changed)
    assert workload.failed == 1


def test_session_catches_a_stale_matrix_entry():
    workload = _ready(Session, 2)
    store = workload.store
    update, refresh = store.update_region, store.refresh_matrix
    edited = []

    def tracking_update(annotated):
        edited.append(annotated.id)
        update(annotated)

    def stale_refresh():
        refresh()
        for other in store.configuration.region_ids:
            if other != edited[-1]:
                right = store.relation(edited[-1], other)
                wrong = CardinalDirection.parse("N" if str(right) != "N" else "S")
                store._relations[(edited[-1], other)] = wrong

    store.update_region, store.refresh_matrix = tracking_update, stale_refresh
    workload.precheck()
    assert workload.failed > 0


def test_lookup_oracle_catches_a_dropped_row():
    workload = _ready(Lookup, 5)
    workload.checked = set(range(workload.query_count))
    for op in range(workload.query_count):
        workload.digest(op, op, workload.run(op, Recorder(), False), False)
    workload.verify()
    assert workload.failed == 0
    op = next(op for op, rows in sorted(workload.recorded.items()) if rows)
    workload.recorded[op] = workload.recorded[op][1:]
    workload.verify()
    assert workload.failed == 1


def _reason(seed=6):
    workload = Reason(seed, 1, True)
    workload.generate()
    consistent = next(i for i, n in enumerate(workload.networks) if n["consistent"])
    return workload, consistent


def test_reason_oracle_accepts_a_real_solution():
    workload, op = _reason()
    report = parse_network(workload.networks[op]["text"]).solve(
        max_candidates=workload.MAX_CANDIDATES)
    assert workload.digest(0, op, report, False) == ("consistent", True, False)


def test_reason_oracle_catches_a_wrong_verdict():
    workload, op = _reason()
    wrong = SolveReport(solution=None, unverified_candidates=0, examined=3)
    digest = workload.digest(0, op, wrong, False)
    assert digest == ("inconsistent", False, False)
    workload.check_pass(0, [op], [digest])
    assert workload.failed == 1 and workload.known_defect == 0


def test_reason_oracle_catches_a_forged_witness():
    workload, op = _reason()
    report = parse_network(workload.networks[op]["text"]).solve(
        max_candidates=workload.MAX_CANDIDATES)
    witness = report.solution.witness
    first, second = sorted(witness)[:2]
    witness[first], witness[second] = witness[second], witness[first]
    assert workload.digest(0, op, report, False)[1] is False


def test_reason_cut_search_is_the_recorded_defect():
    workload, op = _reason()
    cut = SolveReport(solution=None, unverified_candidates=0,
                      examined=workload.MAX_CANDIDATES + 1)
    digest = workload.digest(0, op, cut, False)
    assert digest == ("inconsistent", False, True)
    workload.check_pass(0, [op], [digest])
    assert workload.failed == 1 and workload.known_defect == 1
    assert workload.correct()


def test_reason_defect_beyond_the_recorded_count_is_not_correct():
    workload, op = _reason()
    cut = SolveReport(solution=None, unverified_candidates=0,
                      examined=workload.MAX_CANDIDATES + 1)
    digest = workload.digest(0, op, cut, False)
    workload.check_pass(0, [op] * 2, [digest] * 2)
    assert workload.tolerated() == 1 and workload.known_defect == 2
    assert not workload.correct()


def test_reason_full_run_tolerates_exactly_the_seed_record():
    workload = Reason(1, 12, False)
    workload.generate()
    workload.passes_run = 3
    assert workload.tolerated() == 3 * Reason.DEFECT_PER_PASS[1]
    workload.known_defect = workload.failed = workload.tolerated() + 1
    assert not workload.correct()


def test_annotate_percentiles_fall_on_serial_jobs_with_ten_beyond():
    params = Annotate.params
    serial = 2 * len(params["serial_sizes"])  # a two-pass run
    pool = 2 * len(params["pool_sizes"])
    rank = math.ceil(Annotate.tail * (serial + pool))  # 1-based
    assert serial + pool - rank >= 10
    assert rank <= serial - 3  # clear of the seam with the pool jobs
    assert pool > (serial + pool) / 5
    assert min(params["pool_sizes"]) >= params["pool_threshold"] > max(params["serial_sizes"])


# -- span arithmetic --------------------------------------------------------


def _span(name, start, end, parent):
    span = Span(name, None, start, parent)
    span.end = end
    return span


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered([], 0, 10) == 0
    assert covered([(2, 3), (2, 3)], 0, 10) == 1


def test_self_time_subtracts_the_part_children_cover():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("c", 8.0, 12.0, 0),
        _span("op", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == {"op": 3.0 + 1.0, "a": 2.0, "b": 3.0,
                                 "a.inner": 1.0, "c": 4.0}


def test_self_time_is_scaled_per_span():
    spans = [_span("op", 0.0, 10.0, -1), _span("a", 1.0, 4.0, 0)]
    spans[0].scale, spans[1].scale = 0.5, 2.0
    assert self_times(spans) == {"op": 7.0 * 0.5, "a": 3.0 * 2.0}


def test_meter_scale_is_reference_over_median_probe():
    meter = speed.Meter()
    meter.recent.extend([speed.REFERENCE_S * 2] * 5 + [speed.REFERENCE_S * 100] * 4)
    assert meter.scale() == pytest.approx(0.5)
    assert speed.scale_of([speed.REFERENCE_S / 4] * 3) == pytest.approx(4.0)


def test_recorder_is_a_plain_call_when_off():
    recorder = Recorder()
    assert recorder.call("x", max, 1, 2) == 2
    assert recorder.spans == []
    recorder.enabled = True
    recorder.begin("op", op=7)
    recorder.call("x", max, 1, 2)
    recorder.end()
    assert [(s.name, s.parent) for s in recorder.spans] == [("op", -1), ("x", 0)]
