"""CLI observability: the global --trace/--metrics options and the
profile subcommand."""

import json

import pytest

from repro.cardirect.cli import main
from repro.obs import uninstall_metrics, uninstall_tracer


@pytest.fixture(autouse=True)
def _clean_sinks():
    uninstall_tracer()
    uninstall_metrics()
    yield
    uninstall_tracer()
    uninstall_metrics()


@pytest.fixture
def demo_xml(tmp_path):
    path = tmp_path / "greece.xml"
    assert main(["demo", str(path)]) == 0
    return path


class TestTraceOption:
    def test_trace_after_subcommand(self, demo_xml, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["relations", str(demo_xml), "--trace", str(out)]) == 0
        spans = [
            json.loads(line)
            for line in out.read_text().strip().splitlines()
        ]
        names = {span["name"] for span in spans}
        assert "cli.relations" in names
        assert "engine.exact.relation" in names
        root = next(s for s in spans if s["name"] == "cli.relations")
        assert root["parent"] is None
        assert root["attrs"]["status"] == 0
        assert "spans written" in capsys.readouterr().err

    def test_trace_before_subcommand(self, demo_xml, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert main(["--trace", str(out), "relations", str(demo_xml)]) == 0
        assert out.exists()

    def test_sinks_uninstalled_afterwards(self, demo_xml, tmp_path):
        from repro.obs import current_metrics, current_tracer

        main([
            "relations", str(demo_xml),
            "--trace", str(tmp_path / "t.jsonl"),
            "--metrics", str(tmp_path / "m.prom"),
        ])
        assert current_tracer() is None
        assert current_metrics() is None


class TestMetricsOption:
    def test_prometheus_output(self, demo_xml, tmp_path):
        out = tmp_path / "metrics.prom"
        assert main(["relations", str(demo_xml), "--metrics", str(out)]) == 0
        text = out.read_text()
        assert "# TYPE repro_engine_operations_total counter" in text
        assert "repro_store_requests_total" in text
        assert 'operation="relation"' in text

    def test_json_output_when_extension_is_json(self, demo_xml, tmp_path):
        out = tmp_path / "metrics.json"
        assert main(["relations", str(demo_xml), "--metrics", str(out)]) == 0
        loaded = json.loads(out.read_text())
        assert loaded["repro_engine_operations_total"]["kind"] == "counter"

    def test_query_clause_telemetry(self, demo_xml, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.prom"
        assert main([
            "query", str(demo_xml), "a NW:N:NE b",
            "--trace", str(trace), "--metrics", str(metrics),
        ]) == 0
        names = [
            json.loads(line)["name"]
            for line in trace.read_text().strip().splitlines()
        ]
        assert "query.evaluate" in names
        assert "query.clause" in names
        text = metrics.read_text()
        assert "repro_query_evaluations_total 1" in text
        assert "repro_query_clause_checks_total" in text


class TestProfileCommand:
    def test_renders_tree_and_hot_paths(self, demo_xml, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["relations", str(demo_xml), "--trace", str(trace)])
        capsys.readouterr()
        assert main(["profile", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "cli.relations" in out
        assert "engine.exact.relation" in out
        assert "%" in out

    def test_min_percent_filters(self, demo_xml, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["relations", str(demo_xml), "--trace", str(trace)])
        capsys.readouterr()
        assert main(["profile", str(trace), "--min-percent", "99.9"]) == 0
        out = capsys.readouterr().out
        assert "cli.relations" in out

    def test_quantile_table_in_output(self, demo_xml, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["relations", str(demo_xml), "--trace", str(trace)])
        capsys.readouterr()
        assert main(["profile", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "p50" in out
        assert "p99" in out

    def test_empty_trace_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["profile", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "no spans" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_trace_file(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert len(err.strip().splitlines()) == 1

    def test_corrupt_trace_file(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text('{"name": "x"\nnot json at all\n')
        assert main(["profile", str(corrupt)]) == 2
        err = capsys.readouterr().err
        assert "not a JSONL span trace" in err
        assert len(err.strip().splitlines()) == 1


class TestProfileSampleMode:
    def test_renders_top_functions(self, tmp_path, capsys):
        folded = tmp_path / "profile.folded"
        folded.write_text(
            "cli.relations;engine.py:sweep;fast.py:_bands 7\n"
            "cli.relations;engine.py:sweep 3\n"
        )
        assert main(["profile", "--sample", str(folded)]) == 0
        out = capsys.readouterr().out
        assert "10 samples" in out
        assert "fast.py:_bands" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["profile", "--sample", str(tmp_path / "no.folded")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.folded"
        empty.write_text("")
        assert main(["profile", "--sample", str(empty)]) == 2
        assert "no samples" in capsys.readouterr().err

    def test_corrupt_file(self, tmp_path, capsys):
        corrupt = tmp_path / "bad.folded"
        corrupt.write_text("stack;without;a;count\n")
        assert main(["profile", "--sample", str(corrupt)]) == 2
        err = capsys.readouterr().err
        assert "not a collapsed-stack profile" in err
        assert len(err.strip().splitlines()) == 1


class TestProfileOption:
    def test_profile_flag_writes_folded(self, demo_xml, tmp_path, capsys):
        out = tmp_path / "run.folded"
        assert main(["relations", str(demo_xml), "--profile", str(out)]) == 0
        assert "samples written" in capsys.readouterr().err
        # A tiny run may record zero samples; the file must still parse.
        from repro import obs

        counts = obs.parse_folded(out.read_text())
        assert isinstance(counts, dict)

    def test_profiler_uninstalled_afterwards(self, demo_xml, tmp_path):
        from repro.obs import current_profiler

        main(["relations", str(demo_xml), "--profile", str(tmp_path / "p")])
        assert current_profiler() is None


class TestEventsOption:
    def test_events_flag_writes_jsonl(self, demo_xml, tmp_path, capsys):
        out = tmp_path / "events.jsonl"
        assert main([
            "relations", str(demo_xml),
            "--events", str(out),
            "--trace", str(tmp_path / "t.jsonl"),
        ]) == 0
        assert "events:" in capsys.readouterr().err
        assert out.exists()

    def test_slow_op_budget_env(self, demo_xml, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_OP_BUDGET", "0")
        out = tmp_path / "events.jsonl"
        assert main([
            "relations", str(demo_xml),
            "--events", str(out),
            "--trace", str(tmp_path / "t.jsonl"),
        ]) == 0
        events = _load_jsonl(out)
        slow = [e for e in events if e["name"] == "slow_op"]
        assert slow, "zero budget must flag every span as slow"
        assert all(e["severity"] == "warning" for e in slow)

    def test_events_without_trace_match_traced_run(
        self, demo_xml, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SLOW_OP_BUDGET", "0")
        alone, traced = tmp_path / "alone.jsonl", tmp_path / "traced.jsonl"
        assert main(["relations", str(demo_xml), "--events", str(alone)]) == 0
        assert main([
            "relations", str(demo_xml),
            "--events", str(traced),
            "--trace", str(tmp_path / "t.jsonl"),
        ]) == 0

        def measured_aside(path):
            records = _load_jsonl(path)
            for record in records:
                del record["time"]
                del record["attrs"]["seconds"]
            return records

        slow = [e for e in measured_aside(alone) if e["name"] == "slow_op"]
        assert slow, "--events alone wrote no slow-op record"
        assert measured_aside(alone) == measured_aside(traced)

    def test_events_uninstalled_afterwards(self, demo_xml, tmp_path):
        from repro.obs import current_tracer

        main(["relations", str(demo_xml), "--events", str(tmp_path / "e")])
        assert current_tracer() is None


def _load_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]
