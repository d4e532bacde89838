"""Tests for the CLI's resilience surface: deadlines, retries, Ctrl-C."""

import json

import pytest

from repro.cardirect import cli
from repro.cardirect.cli import EXIT_INTERRUPTED, main


@pytest.fixture
def demo_xml(tmp_path):
    path = tmp_path / "greece.xml"
    assert main(["demo", str(path)]) == 0
    return path


@pytest.fixture
def network_file(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text("a N b\nb N c\n")
    return path


class TestDeadlineOptions:
    def test_relations_expired_deadline_exits_5(self, demo_xml, capsys):
        assert main(["relations", str(demo_xml), "--deadline", "0"]) == 5
        captured = capsys.readouterr()
        assert "past deadline" in captured.out
        assert "deadline expired" in captured.err

    def test_relations_generous_deadline_answers_everything(
        self, demo_xml, capsys
    ):
        assert main(["relations", str(demo_xml), "--deadline", "600"]) == 0
        out = capsys.readouterr().out
        assert "110 pair(s) answered" in out

    def test_relations_negative_deadline_rejected(self, demo_xml, capsys):
        assert main(["relations", str(demo_xml), "--deadline", "-1"]) == 2
        assert "--deadline" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_relations_bad_retries_rejected(self, demo_xml, capsys, value):
        assert main(["relations", str(demo_xml), "--retries", value]) == 2
        assert "--retries" in capsys.readouterr().err

    def test_relations_bad_chunk_timeout_rejected(self, demo_xml, capsys):
        assert main(
            ["relations", str(demo_xml), "--chunk-timeout", "0"]
        ) == 2
        assert "--chunk-timeout" in capsys.readouterr().err

    def test_relations_retries_run_the_isolated_pipeline(
        self, demo_xml, capsys
    ):
        assert main(["relations", str(demo_xml), "--retries", "3"]) == 0
        assert "110 pair(s) answered" in capsys.readouterr().out

    def test_query_expired_deadline_is_labelled_partial(
        self, demo_xml, capsys
    ):
        assert main(
            ["query", str(demo_xml), "a N b", "--deadline", "0"]
        ) == 5
        captured = capsys.readouterr()
        assert "before the deadline" in captured.out

    def test_query_generous_deadline_matches_unbounded(
        self, demo_xml, capsys
    ):
        assert main(["query", str(demo_xml), "a N b"]) == 0
        unbounded = capsys.readouterr().out
        assert main(
            ["query", str(demo_xml), "a N b", "--deadline", "600"]
        ) == 0
        assert capsys.readouterr().out == unbounded

    def test_reason_expired_deadline_is_labelled_unknown(
        self, network_file, capsys
    ):
        assert main(["reason", str(network_file), "--deadline", "0"]) == 2
        out = capsys.readouterr().out
        assert "deadline exceeded" in out
        assert "unknown" in out

    def test_reason_generous_deadline_still_solves(
        self, network_file, capsys
    ):
        assert main(["reason", str(network_file), "--deadline", "600"]) == 0
        assert "consistent" in capsys.readouterr().out


class TestReasonSearchCut:
    def test_cut_search_prints_unknown_and_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        from functools import partialmethod

        from repro.reasoning.network import DisjunctiveNetwork

        path = tmp_path / "net.txt"
        # Consistent: the third complete refinement verifies.
        path.write_text("v0 {S, SW} v1\nv0 {S, SE} v2\nv1 {E, SE} v2\n")
        assert main(["reason", str(path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(
            DisjunctiveNetwork,
            "solve",
            partialmethod(DisjunctiveNetwork.solve, max_candidates=1),
        )
        assert main(["reason", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("unknown: search cut short")
        assert "inconsistent" not in out


class TestKeyboardInterrupt:
    def test_plain_interrupt_exits_130_with_one_line(
        self, demo_xml, capsys, monkeypatch
    ):
        def explode(arguments):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_dispatch", explode)
        assert main(["relations", str(demo_xml)]) == EXIT_INTERRUPTED
        captured = capsys.readouterr()
        assert captured.err.strip() == "interrupted"

    def test_interrupt_flushes_partial_trace_and_metrics(
        self, demo_xml, tmp_path, capsys, monkeypatch
    ):
        trace_path = tmp_path / "partial.jsonl"
        metrics_path = tmp_path / "partial.json"

        def explode(arguments):
            from repro import obs

            with obs.span("cli.doomed"):
                obs.current_metrics().counter(
                    "repro_batch_pairs_total", "test"
                ).inc(status="ok")
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_dispatch", explode)
        status = main(
            [
                "--trace",
                str(trace_path),
                "--metrics",
                str(metrics_path),
                "relations",
                str(demo_xml),
            ]
        )
        assert status == EXIT_INTERRUPTED
        captured = capsys.readouterr()
        assert "interrupted" in captured.err
        # The partial observability of the doomed run still lands.
        spans = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if line.strip()
        ]
        assert any(span["name"] == "cli.doomed" for span in spans)
        metrics = json.loads(metrics_path.read_text())
        assert "repro_batch_pairs_total" in json.dumps(metrics)

    def test_interrupt_survives_unwritable_flush_target(
        self, demo_xml, tmp_path, capsys, monkeypatch
    ):
        def explode(arguments):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_dispatch", explode)
        status = main(
            [
                "--trace",
                str(tmp_path / "no-such-dir" / "trace.jsonl"),
                "relations",
                str(demo_xml),
            ]
        )
        assert status == EXIT_INTERRUPTED
        assert "flush failed" in capsys.readouterr().err
