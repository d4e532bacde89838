"""SARIF export: spot-check the 2.1.0 shape the scanners require."""

import json

from repro.analysis import Linter
from repro.analysis.linter import LintResult
from repro.analysis.rules import LintFinding
from repro.analysis.sarif import render_sarif, sarif_report


def run_linter(source, *, module="repro.core.fixture", select=None):
    linter = Linter(select=select)
    linter.lint_source(
        source, path=f"{module.replace('.', '/')}.py", module=module
    )
    return linter.finish(), linter.rules


class TestReportShape:
    def test_required_toplevel_keys(self):
        result, rules = run_linter("x = 1\n")
        report = sarif_report(result, rules=rules)
        assert report["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in report["$schema"]
        assert isinstance(report["runs"], list) and len(report["runs"]) == 1

    def test_driver_carries_the_registered_rules(self):
        result, rules = run_linter("x = 1\n")
        report = sarif_report(result, rules=rules)
        driver = report["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-analyze"
        assert "informationUri" in driver
        ids = [rule["id"] for rule in driver["rules"]]
        assert ids == [
            "RA001", "RA002", "RA003", "RA004", "RA005", "RA006",
            "RA008", "RA009", "RA010",
        ]
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]

    def test_results_reference_rules_by_index(self):
        result, rules = run_linter(
            "def sweep(pairs):\n"
            "    for pair in pairs:\n"
            "        _compute_pair(pair)\n",
            select=["RA008"],
        )
        assert len(result.findings) == 1
        report = sarif_report(result, rules=rules)
        driver = report["runs"][0]["tool"]["driver"]
        (entry,) = report["runs"][0]["results"]
        assert entry["ruleId"] == "RA008"
        assert driver["rules"][entry["ruleIndex"]]["id"] == "RA008"
        assert entry["level"] == "error"
        assert entry["message"]["text"]
        location = entry["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "repro/core/fixture.py"
        assert location["region"]["startLine"] == 2
        assert location["region"]["startColumn"] >= 1

    def test_warning_severity_maps_to_warning_level(self):
        finding = LintFinding(
            rule_id="RA003",
            rule_name="span-name",
            path="repro/core/x.py",
            line=3,
            column=5,
            message="dynamic name",
            severity="warning",
        )
        report = sarif_report(LintResult(findings=[finding]))
        (entry,) = report["runs"][0]["results"]
        assert entry["level"] == "warning"

    def test_root_relativises_uris(self, tmp_path):
        module = tmp_path / "pkg" / "mod.py"
        module.parent.mkdir()
        module.write_text("x = 1\n", encoding="utf-8")
        finding = LintFinding(
            rule_id="RA009",
            rule_name="fork-safety",
            path=str(module),
            line=1,
            column=1,
            message="lock live at spawn",
        )
        report = sarif_report(LintResult(findings=[finding]), root=tmp_path)
        location = report["runs"][0]["results"][0]["locations"][0]
        assert (
            location["physicalLocation"]["artifactLocation"]["uri"]
            == "pkg/mod.py"
        )

    def test_render_is_valid_json_with_stable_keys(self):
        result, rules = run_linter("x = 1\n")
        text = render_sarif(result, rules=rules)
        parsed = json.loads(text)
        assert parsed["version"] == "2.1.0"
        # sort_keys: $schema sorts before runs/version.
        assert text.index("$schema") < text.index('"runs"')
