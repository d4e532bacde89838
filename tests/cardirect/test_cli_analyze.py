"""The `cardirect analyze` subcommand: formats, reports, strict gating.

The full-repository `--strict --algebra` sweep is CI's job (it takes
about fifteen seconds); these tests drive the same code paths on small
fixture trees so they stay inside the unit-test budget.
"""

import json

import pytest

from repro.cardirect.cli import main

CLEAN = "VALUE = 1\n"
FLOATY = "def f(x: float) -> bool:\n    return x == 1.0\n"


@pytest.fixture
def clean_tree(tmp_path):
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (package / "clean.py").write_text(CLEAN, encoding="utf-8")
    return tmp_path


@pytest.fixture
def dirty_tree(tmp_path):
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (package / "dirty.py").write_text(FLOATY, encoding="utf-8")
    return tmp_path


class TestTextOutput:
    def test_clean_tree_exits_zero(self, clean_tree, capsys):
        assert main(["analyze", str(clean_tree), "--no-mypy"]) == 0
        out = capsys.readouterr().out
        assert "lint: 0 findings in 1 file(s)" in out

    def test_findings_are_printed_compiler_style(self, dirty_tree, capsys):
        assert main(["analyze", str(dirty_tree), "--no-mypy"]) == 0
        out = capsys.readouterr().out
        assert "RA001" in out
        assert "dirty.py:2:" in out
        assert "lint: 1 finding in 1 file(s)" in out

    def test_typing_gate_is_reported_by_default(self, clean_tree, capsys):
        assert main(["analyze", str(clean_tree)]) == 0
        assert "typing gate:" in capsys.readouterr().out


class TestStrictMode:
    def test_strict_fails_on_findings_with_exit_5(self, dirty_tree, capsys):
        assert main(["analyze", str(dirty_tree), "--no-mypy", "--strict"]) == 5

    def test_strict_passes_on_clean_tree(self, clean_tree):
        assert main(["analyze", str(clean_tree), "--no-mypy", "--strict"]) == 0

    def test_non_strict_never_fails_the_pipeline(self, dirty_tree):
        assert main(["analyze", str(dirty_tree), "--no-mypy"]) == 0


class TestSelection:
    def test_select_restricts_rules(self, dirty_tree, capsys):
        assert main([
            "analyze", str(dirty_tree), "--no-mypy", "--select", "ra004",
        ]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_unknown_rule_id_is_a_usage_error(self, dirty_tree, capsys):
        assert main([
            "analyze", str(dirty_tree), "--no-mypy", "--select", "RA999",
        ]) == 2
        assert "unknown rule id" in capsys.readouterr().err


class TestJsonAndReport:
    def test_json_format_is_parseable(self, dirty_tree, capsys):
        assert main([
            "analyze", str(dirty_tree), "--no-mypy", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lint"]["summary"]["findings"] == 1
        assert payload["algebra"] is None
        assert payload["typing"] is None

    def test_report_file_is_the_ci_artifact(self, dirty_tree, tmp_path, capsys):
        report = tmp_path / "lint-report.json"
        assert main([
            "analyze", str(dirty_tree), "--no-mypy", "--report", str(report),
        ]) == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["lint"]["findings"][0]["rule"] == "RA001"
        assert "lint-report.json" in capsys.readouterr().err


class TestSarifOutput:
    def test_sarif_file_is_written(self, dirty_tree, tmp_path, capsys):
        sarif = tmp_path / "analysis.sarif"
        assert main([
            "analyze", str(dirty_tree), "--no-mypy", "--sarif", str(sarif),
        ]) == 0
        payload = json.loads(sarif.read_text(encoding="utf-8"))
        assert payload["version"] == "2.1.0"
        (entry,) = payload["runs"][0]["results"]
        assert entry["ruleId"] == "RA001"
        assert "analysis.sarif" in capsys.readouterr().err

    def test_sarif_format_prints_to_stdout(self, dirty_tree, capsys):
        assert main([
            "analyze", str(dirty_tree), "--no-mypy", "--format", "sarif",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        driver = payload["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-analyze"


class TestObservability:
    def test_findings_feed_the_metrics_registry(self, dirty_tree):
        from repro import obs

        registry = obs.install_metrics()
        try:
            assert main(["analyze", str(dirty_tree), "--no-mypy"]) == 0
        finally:
            obs.uninstall_metrics()
        rendered = registry.to_prometheus_text()
        assert "repro_analysis_findings_total" in rendered
        assert 'rule="RA001"' in rendered
