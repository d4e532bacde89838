"""Tests for the CARDIRECT command-line interface."""

import os

import pytest

from repro.cardirect.cli import main


@pytest.fixture
def demo_xml(tmp_path):
    path = tmp_path / "greece.xml"
    assert main(["demo", str(path)]) == 0
    return path


class TestDemoAndValidate:
    def test_demo_writes_file(self, tmp_path, capsys):
        path = tmp_path / "fresh.xml"
        assert main(["demo", str(path)]) == 0
        assert path.exists()
        assert "wrote 11 regions" in capsys.readouterr().out

    def test_validate_ok(self, demo_xml, capsys):
        assert main(["validate", str(demo_xml)]) == 0
        out = capsys.readouterr().out
        assert "OK: 11 regions" in out

    def test_validate_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.xml")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_validate_bad_xml(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<Image></Image>")
        assert main(["validate", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestRelations:
    def test_all_pairs(self, demo_xml, capsys):
        assert main(["relations", str(demo_xml)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 11 * 10

    def test_restricted_pair(self, demo_xml, capsys):
        assert main([
            "relations", str(demo_xml),
            "--primary", "peloponnesos", "--reference", "attica",
        ]) == 0
        assert capsys.readouterr().out.strip() == "peloponnesos B:S:SW:W attica"

    @pytest.mark.parametrize(
        "isolating", [["--isolate-errors"], ["--workers", "2"]]
    )
    def test_isolated_path_keeps_the_restriction(
        self, demo_xml, capsys, isolating
    ):
        restriction = ["--primary", "attica", "--reference", "crete"]
        assert main(["relations", str(demo_xml), *restriction]) == 0
        plain = capsys.readouterr().out.strip().splitlines()
        assert plain == ["attica NW:N crete"]
        assert main(
            ["relations", str(demo_xml), *restriction, *isolating]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == plain + ["1 pair(s) answered, 0 failed"]

    def test_isolated_path_rejects_an_unknown_id(self, demo_xml, capsys):
        assert main([
            "relations", str(demo_xml), "--primary", "pelop",
            "--isolate-errors",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no region with id 'pelop'" in captured.err

    def test_percentages(self, demo_xml, capsys):
        assert main([
            "relations", str(demo_xml), "--percentages",
            "--primary", "attica", "--reference", "peloponnesos",
        ]) == 0
        out = capsys.readouterr().out
        assert "attica vs peloponnesos:" in out
        assert "%" in out


class TestWorkersOption:
    def test_auto_resolves_to_cpu_count(self):
        from repro.cardirect.cli import _parse_workers

        expected = os.cpu_count() or 1
        assert _parse_workers("auto") == expected
        assert _parse_workers("AUTO") == expected
        assert _parse_workers("0") == expected

    def test_explicit_counts_pass_through(self):
        from repro.cardirect.cli import _parse_workers

        assert _parse_workers("3") == 3
        assert _parse_workers("1") == 1

    def test_garbage_is_an_argparse_error(self):
        import argparse

        from repro.cardirect.cli import _parse_workers

        with pytest.raises(argparse.ArgumentTypeError, match="banana"):
            _parse_workers("banana")

    def test_relations_accepts_workers_auto(self, demo_xml, capsys):
        assert main(["relations", str(demo_xml), "--workers", "auto"]) == 0
        out = capsys.readouterr().out
        # The batch path prints every pair plus its summary line.
        assert "110 pair(s) answered" in out

    def test_negative_workers_is_a_clean_error(self, demo_xml, capsys):
        assert main(["relations", str(demo_xml), "--workers", "-2"]) == 2
        assert "--workers" in capsys.readouterr().err


class TestEngineOptions:
    @pytest.mark.parametrize("engine", ["exact", "fast", "guarded", "clipping"])
    def test_relations_engine_agrees_with_default(
        self, demo_xml, capsys, engine
    ):
        assert main([
            "relations", str(demo_xml),
            "--primary", "peloponnesos", "--reference", "attica",
            "--engine", engine,
        ]) == 0
        assert capsys.readouterr().out.strip() == "peloponnesos B:S:SW:W attica"

    def test_relations_stats_report_calls_and_timings(self, demo_xml, capsys):
        assert main([
            "relations", str(demo_xml), "--engine", "fast", "--stats",
        ]) == 0
        captured = capsys.readouterr()
        assert "engine 'fast':" in captured.err
        assert "110 relation" in captured.err
        assert "ms" in captured.err
        assert "engine" not in captured.out  # telemetry stays off stdout

    def test_guarded_stats_report_ladder_paths(self, demo_xml, capsys):
        assert main([
            "relations", str(demo_xml), "--engine", "guarded", "--stats",
        ]) == 0
        assert "paths:" in capsys.readouterr().err

    def test_isolated_relations_thread_engine_stats(self, demo_xml, capsys):
        assert main([
            "relations", str(demo_xml),
            "--isolate-errors", "--engine", "guarded", "--stats",
        ]) == 0
        captured = capsys.readouterr()
        assert "engine 'guarded':" in captured.err
        assert "110 pair(s) answered" in captured.out

    def test_query_engine_and_stats(self, demo_xml, capsys):
        assert main([
            "query", str(demo_xml),
            "color(a) = red and a S:SW:W:NW:N:NE:E:SE b",
            "--engine", "guarded", "--stats",
        ]) == 0
        captured = capsys.readouterr()
        assert "(Peloponnesos, Pylos)" in captured.out
        assert "engine 'guarded':" in captured.err

    def test_query_no_index_same_answer(self, demo_xml, capsys):
        text = "color(a) = red and a S:SW:W:NW:N:NE:E:SE b"
        assert main(["query", str(demo_xml), text]) == 0
        indexed = capsys.readouterr().out
        assert main(["query", str(demo_xml), text, "--no-index"]) == 0
        assert capsys.readouterr().out == indexed

    def test_report_engine_and_stats(self, demo_xml, capsys):
        assert main([
            "report", str(demo_xml),
            "--pair", "peloponnesos", "attica",
            "--engine", "fast", "--stats",
        ]) == 0
        captured = capsys.readouterr()
        assert "engine 'fast':" in captured.err

    def test_unknown_engine_is_a_clean_error(self, demo_xml, capsys):
        assert main([
            "relations", str(demo_xml), "--engine", "quantum",
        ]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "registered" in err


class TestQuery:
    def test_papers_query(self, demo_xml, capsys):
        assert main([
            "query", str(demo_xml),
            "color(a) = red and color(b) = blue and a S:SW:W:NW:N:NE:E:SE b",
        ]) == 0
        out = capsys.readouterr().out
        assert "(Peloponnesos, Pylos)" in out

    def test_query_without_results(self, demo_xml, capsys):
        assert main(["query", str(demo_xml), "color(a) = purple"]) == 0
        assert "no results" in capsys.readouterr().out

    def test_bad_query_reports_error(self, demo_xml, capsys):
        assert main(["query", str(demo_xml), "a likes b a lot"]) == 1
        assert "error:" in capsys.readouterr().err
