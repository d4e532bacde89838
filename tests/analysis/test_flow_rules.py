"""Positive/negative fixtures for the flow-sensitive rules RA007–RA010."""

from repro.analysis import Linter


def lint(source, *, module="repro.core.fixture", select=None):
    linter = Linter(select=select)
    linter.lint_source(
        source, path=f"{module.replace('.', '/')}.py", module=module
    )
    return linter.finish().findings


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


class TestResourceLifecycle:
    """RA007 — acquisitions must reach unlink() on all paths."""

    def test_build_without_destroy_on_exception_path(self):
        # The seeded violation: compute() may raise between the
        # acquisition and unlink(), leaking the segment.
        findings = lint(
            "def sweep(size):\n"
            "    segment = SharedMemory(create=True, size=size)\n"
            "    results = compute(segment)\n"
            "    segment.unlink()\n"
            "    return results\n",
            select=["RA007"],
        )
        assert rule_ids(findings) == ["RA007"]
        assert findings[0].line == 2
        assert "unlink()" in findings[0].message
        assert findings[0].severity == "error"

    def test_try_finally_release_is_clean(self):
        findings = lint(
            "def sweep(size):\n"
            "    segment = SharedMemory(create=True, size=size)\n"
            "    try:\n"
            "        return compute(segment)\n"
            "    finally:\n"
            "        segment.unlink()\n",
            select=["RA007"],
        )
        assert findings == []

    def test_context_manager_is_clean(self):
        findings = lint(
            "def sweep(size):\n"
            "    with SharedMemory(create=True, size=size) as segment:\n"
            "        return compute(segment)\n",
            select=["RA007"],
        )
        assert findings == []

    def test_returning_the_resource_transfers_ownership(self):
        findings = lint(
            "def open_segment(size):\n"
            "    segment = SharedMemory(create=True, size=size)\n"
            "    return segment\n",
            select=["RA007"],
        )
        assert findings == []

    def test_storing_on_self_transfers_ownership(self):
        findings = lint(
            "def attach(self, size):\n"
            "    segment = SharedMemory(create=True, size=size)\n"
            "    self._segment = segment\n"
            "    configure(self)\n"
            "    return None\n",
            select=["RA007"],
        )
        assert findings == []

    def test_container_append_transfers_ownership(self):
        findings = lint(
            "def pool_up(size, segments):\n"
            "    segment = SharedMemory(create=True, size=size)\n"
            "    segments.append(segment)\n"
            "    warm(segments)\n"
            "    return None\n",
            select=["RA007"],
        )
        assert findings == []

    def test_shared_memory_create_true_is_tracked(self):
        findings = lint(
            "def allocate(size):\n"
            "    segment = SharedMemory(create=True, size=size)\n"
            "    initialise(segment)\n"
            "    segment.unlink()\n"
            "    return None\n",
            select=["RA007"],
        )
        assert rule_ids(findings) == ["RA007"]
        assert "shared-memory segment" in findings[0].message

    def test_shared_memory_attach_is_not_an_acquisition(self):
        findings = lint(
            "def attach(name):\n"
            "    segment = SharedMemory(name=name, create=False)\n"
            "    return read(segment)\n",
            select=["RA007"],
        )
        assert findings == []

    def test_store_into_buffer_does_not_kill_the_fact(self):
        # ``segment.buf[0] = data`` stores *into* the resource; the name
        # still owns it, and the finally still releases it.
        findings = lint(
            "def fill(size, data):\n"
            "    segment = SharedMemory(create=True, size=size)\n"
            "    try:\n"
            "        segment.buf[0] = data\n"
            "        return finish(segment)\n"
            "    finally:\n"
            "        segment.unlink()\n",
            select=["RA007"],
        )
        assert findings == []

    def test_release_on_one_branch_only_is_flagged(self):
        findings = lint(
            "def sweep(size, keep):\n"
            "    segment = SharedMemory(create=True, size=size)\n"
            "    if keep:\n"
            "        segment.unlink()\n"
            "    return None\n",
            select=["RA007"],
        )
        assert rule_ids(findings) == ["RA007"]


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
