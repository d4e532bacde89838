"""Positive/negative fixtures for the path rules RA008–RA010."""

import ast
from pathlib import Path

import repro
from repro.analysis import Linter, flow_rules


def lint(source, *, module="repro.core.fixture", select=None):
    linter = Linter(select=select)
    linter.lint_source(
        source, path=f"{module.replace('.', '/')}.py", module=module
    )
    return linter.finish().findings


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


class TestDeadlineLoop:
    """RA008 — hot loops need a reachable deadline checkpoint."""

    def test_pair_work_without_checkpoint(self):
        findings = lint(
            "def sweep(pairs):\n"
            "    results = []\n"
            "    for pair in pairs:\n"
            "        results.append(_compute_pair(pair))\n"
            "    return results\n",
            select=["RA008"],
        )
        assert rule_ids(findings) == ["RA008"]
        assert findings[0].line == 3
        assert "deadline checkpoint" in findings[0].message

    def test_explicit_check_inside_loop_is_clean(self):
        findings = lint(
            "def sweep(pairs, deadline):\n"
            "    results = []\n"
            "    for pair in pairs:\n"
            "        deadline.check()\n"
            "        results.append(_compute_pair(pair))\n"
            "    return results\n",
            select=["RA008"],
        )
        assert findings == []

    def test_local_helper_that_checks_counts_via_summary(self):
        findings = lint(
            "def _guarded(pair, deadline):\n"
            "    deadline.check()\n"
            "    return _compute_pair(pair)\n"
            "\n"
            "def sweep(pairs, deadline):\n"
            "    out = []\n"
            "    for pair in pairs:\n"
            "        out.append(_guarded(pair, deadline))\n"
            "    return out\n",
            select=["RA008"],
        )
        assert findings == []

    def test_engine_call_checkpoints_internally(self):
        findings = lint(
            "def sweep(pairs, engine, box):\n"
            "    out = []\n"
            "    for pair in pairs:\n"
            "        out.append(_compute_pair(pair))\n"
            "        engine.relation(pair, box)\n"
            "    return out\n",
            select=["RA008"],
        )
        assert findings == []

    def test_loop_without_pair_work_is_clean(self):
        findings = lint(
            "def tidy(items):\n"
            "    for item in items:\n"
            "        item.normalise()\n"
            "    return items\n",
            select=["RA008"],
        )
        assert findings == []

    def test_scoped_to_core_and_reasoning_packages(self):
        source = (
            "def sweep(pairs):\n"
            "    for pair in pairs:\n"
            "        _compute_pair(pair)\n"
        )
        assert lint(source, module="repro.cardirect.fixture", select=["RA008"]) == []
        assert rule_ids(lint(source, module="repro.reasoning.fixture", select=["RA008"])) == ["RA008"]


class TestCallVocabulary:
    """RA008 keys on call names; each must name a function that exists."""

    def test_work_and_checkpoint_calls_are_defined_in_the_package(self):
        defined = {
            node.name
            for path in Path(repro.__file__).parent.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        names = flow_rules._WORK_CALLS | flow_rules._CHECKPOINT_CALLS
        assert sorted(names - defined) == []


class TestForkSafety:
    """RA009 — no fork-hostile state live at pool-spawn sites."""

    def test_lock_live_at_spawn(self):
        findings = lint(
            "def run(tasks):\n"
            "    lock = threading.Lock()\n"
            "    pool = ProcessPoolExecutor(4)\n"
            "    return submit_all(pool, tasks, lock)\n",
            select=["RA009"],
        )
        assert rule_ids(findings) == ["RA009"]
        assert findings[0].line == 3
        assert "held lock object@2" in findings[0].message

    def test_unjoined_thread_live_at_spawn(self):
        findings = lint(
            "def run(tasks):\n"
            "    worker = Thread(target=drain)\n"
            "    worker.start()\n"
            "    pool = ProcessPoolExecutor(2)\n"
            "    return pool\n",
            select=["RA009"],
        )
        assert rule_ids(findings) == ["RA009"]
        assert "live thread@2" in findings[0].message

    def test_joined_thread_is_clean(self):
        findings = lint(
            "def run(tasks):\n"
            "    worker = Thread(target=drain)\n"
            "    worker.start()\n"
            "    worker.join()\n"
            "    pool = ProcessPoolExecutor(2)\n"
            "    return pool\n",
            select=["RA009"],
        )
        assert findings == []

    def test_spawn_before_creating_state_is_clean(self):
        findings = lint(
            "def run(tasks):\n"
            "    pool = ProcessPoolExecutor(2)\n"
            "    lock = threading.Lock()\n"
            "    return submit_all(pool, tasks, lock)\n",
            select=["RA009"],
        )
        assert findings == []

    def test_spawn_inside_open_span_is_flagged(self):
        findings = lint(
            "def run(profiler, tasks):\n"
            "    with profiler.span('sweep'):\n"
            "        pool = ProcessPoolExecutor(2)\n"
            "        return drain(pool, tasks)\n",
            select=["RA009"],
        )
        assert rule_ids(findings) == ["RA009"]
        assert "open span@2" in findings[0].message

    def test_span_closed_by_with_exit_is_clean(self):
        findings = lint(
            "def run(profiler, tasks):\n"
            "    with profiler.span('setup'):\n"
            "        prepare(tasks)\n"
            "    pool = ProcessPoolExecutor(2)\n"
            "    return pool\n",
            select=["RA009"],
        )
        assert findings == []

    def test_contextvar_write_live_at_spawn(self):
        findings = lint(
            "def run(tasks):\n"
            "    token = _ACTIVE_PLANE.set(tasks)\n"
            "    pool = ProcessPoolExecutor(2)\n"
            "    return pool\n",
            select=["RA009"],
        )
        assert rule_ids(findings) == ["RA009"]
        assert "contextvar write (_ACTIVE_PLANE)@2" in findings[0].message

    def test_contextvar_reset_is_clean(self):
        findings = lint(
            "def run(tasks):\n"
            "    token = _ACTIVE_PLANE.set(tasks)\n"
            "    _ACTIVE_PLANE.reset(token)\n"
            "    pool = ProcessPoolExecutor(2)\n"
            "    return pool\n",
            select=["RA009"],
        )
        assert findings == []


class TestExceptionShield:
    """RA010 — broad handlers must not swallow deadline/interrupt."""

    def test_except_exception_swallows_deadline(self):
        # The seeded violation from the issue: future.result() can
        # deliver DeadlineExceeded, and ``continue`` eats it.
        findings = lint(
            "def drain(futures):\n"
            "    done = []\n"
            "    for future in futures:\n"
            "        try:\n"
            "            done.append(future.result())\n"
            "        except Exception:\n"
            "            continue\n"
            "    return done\n",
            select=["RA010"],
        )
        assert rule_ids(findings) == ["RA010"]
        assert "DeadlineExceeded" in findings[0].message

    def test_explicit_shield_before_broad_handler_is_clean(self):
        findings = lint(
            "def drain(futures):\n"
            "    done = []\n"
            "    for future in futures:\n"
            "        try:\n"
            "            done.append(future.result())\n"
            "        except DeadlineExceeded:\n"
            "            raise\n"
            "        except Exception:\n"
            "            continue\n"
            "    return done\n",
            select=["RA010"],
        )
        assert findings == []

    def test_broad_handler_that_reraises_is_clean(self):
        findings = lint(
            "def drain(future):\n"
            "    try:\n"
            "        return future.result()\n"
            "    except Exception as error:\n"
            "        log(error)\n"
            "        raise\n",
            select=["RA010"],
        )
        assert findings == []

    def test_bare_except_swallows_keyboard_interrupt(self):
        findings = lint(
            "def read_all(paths):\n"
            "    out = []\n"
            "    for path in paths:\n"
            "        try:\n"
            "            out.append(parse(path))\n"
            "        except:\n"
            "            pass\n"
            "    return out\n",
            select=["RA010"],
        )
        assert rule_ids(findings) == ["RA010"]
        assert "KeyboardInterrupt" in findings[0].message

    def test_narrow_handler_is_clean(self):
        findings = lint(
            "def drain(futures):\n"
            "    done = []\n"
            "    for future in futures:\n"
            "        try:\n"
            "            done.append(future.result())\n"
            "        except ValueError:\n"
            "            continue\n"
            "    return done\n",
            select=["RA010"],
        )
        assert findings == []

    def test_local_raiser_counts_as_deadline_source(self):
        findings = lint(
            "def _step(deadline):\n"
            "    if deadline.expired():\n"
            "        raise DeadlineExceeded('budget')\n"
            "    return work()\n"
            "\n"
            "def run_all(deadlines):\n"
            "    out = []\n"
            "    for deadline in deadlines:\n"
            "        try:\n"
            "            out.append(_step(deadline))\n"
            "        except ReproError:\n"
            "            continue\n"
            "    return out\n",
            select=["RA010"],
        )
        assert rule_ids(findings) == ["RA010"]
        assert "DeadlineExceeded" in findings[0].message

    def test_no_deadline_source_means_no_deadline_finding(self):
        findings = lint(
            "def load(path):\n"
            "    try:\n"
            "        data = parse(path)\n"
            "        normalise(data)\n"
            "    except Exception:\n"
            "        data = None\n"
            "    return data\n",
            select=["RA010"],
        )
        assert findings == []
