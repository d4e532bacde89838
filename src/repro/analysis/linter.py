"""The domain linter: file discovery, noqa suppression, reporting.

The linter walks a set of files or directory roots, parses each module
once, runs every registered rule (:mod:`repro.analysis.rules`) over the
AST and collects :class:`~repro.analysis.rules.LintFinding` records.

Suppression uses an explicit project marker so generic-tool noqa
comments (ruff's, flake8's) never silence a domain rule by accident.
Per physical line::

    distance == 0.0  # repro: noqa[RA001]  -- exact sentinel, documented
    anything()       # repro: noqa         -- silences every rule

or for a whole module, in the first five lines of the file::

    # repro: noqa-file[RA008]  -- table generator, deadline-free by design

Reporters: :func:`render_text` (one finding per line, compiler style)
and :func:`result_as_dict` (JSON-friendly, the shape the CI artifact
uploads).  See ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Union

from repro.analysis.rules import (
    LintFinding,
    ModuleInfo,
    Rule,
    create_rules,
)

__all__ = [
    "LintError",
    "LintResult",
    "Linter",
    "lint_paths",
    "render_text",
    "render_json",
    "result_as_dict",
]

#: ``# repro: noqa`` or ``# repro: noqa[RA001, RA004]``.  The lookahead
#: keeps the *file*-scoped marker (``noqa-file``) from being misread as
#: a bare line suppression.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?!-)(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?",
    re.IGNORECASE,
)

#: ``# repro: noqa-file[RA008]`` (or bare ``noqa-file``): suppresses the
#: named rules for the whole module.  Honoured only in the first
#: :data:`_FILE_NOQA_WINDOW` physical lines, next to the docstring and
#: the future import, so a file's opt-outs are visible at the top.
_FILE_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa-file(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?",
    re.IGNORECASE,
)

_FILE_NOQA_WINDOW = 5

#: Sentinel for a bare ``# repro: noqa`` (suppresses every rule).
_ALL_RULES: FrozenSet[str] = frozenset({"*"})


class LintError(ValueError):
    """A file could not be linted (unreadable or not valid Python)."""


@dataclass
class LintResult:
    """The outcome of one lint run."""

    findings: List[LintFinding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        noun = "finding" if len(self.findings) == 1 else "findings"
        parts = [
            f"{len(self.findings)} {noun} in {self.files_checked} file(s)"
        ]
        if self.suppressed:
            parts.append(f"{self.suppressed} suppressed by noqa")
        return "; ".join(parts)


class Linter:
    """One lint run: fresh rule instances, shared cross-module state.

    ``select`` restricts to the named rule ids (see
    :func:`repro.analysis.rules.create_rules`); ``rules`` injects
    pre-built instances directly (tests, third-party harnesses).
    """

    def __init__(
        self,
        *,
        select: Optional[Iterable[str]] = None,
        rules: Optional[Sequence[Rule]] = None,
    ) -> None:
        self.rules: List[Rule] = (
            list(rules) if rules is not None else create_rules(select)
        )
        self._result = LintResult()

    # -- entry points -------------------------------------------------

    def lint_paths(self, paths: Iterable[Union[str, Path]]) -> LintResult:
        """Lint every ``.py`` file under the given files/directories."""
        for path in _discover(paths):
            self.lint_file(path)
        return self.finish()

    def lint_file(self, path: Union[str, Path]) -> None:
        path = Path(path)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as error:
            raise LintError(f"{path}: {error}") from error
        self.lint_source(source, path=str(path), module=module_name_for(path))

    def lint_source(
        self, source: str, *, path: str = "<source>", module: Optional[str] = None
    ) -> None:
        """Lint one in-memory module (the test-fixture entry point)."""
        try:
            info = ModuleInfo(path, module or Path(path).stem, source)
        except SyntaxError as error:
            raise LintError(f"{path}: {error}") from error
        suppressions = _suppressions(info.lines)
        file_rules = _file_suppressions(info.lines)
        self._result.files_checked += 1
        for rule in self.rules:
            if not rule.applies_to(info):
                continue
            for finding in rule.check(info):
                self._record(finding, suppressions, file_rules)

    def finish(self) -> LintResult:
        """Collect cross-module findings and return the sorted result.

        Finalize-phase findings (e.g. RA002's unregistered-backend
        check) honour the noqa suppressions of their home line too.
        """
        for rule in self.rules:
            for finding in rule.finalize():
                lines = _lines_for_path(finding.path)
                self._record(
                    finding, _suppressions(lines), _file_suppressions(lines)
                )
        self._result.findings.sort(
            key=lambda f: (f.path, f.line, f.column, f.rule_id)
        )
        return self._result

    # -- internals ----------------------------------------------------

    def _record(
        self,
        finding: LintFinding,
        suppressions: Dict[int, FrozenSet[str]],
        file_rules: FrozenSet[str] = frozenset(),
    ) -> None:
        if "*" in file_rules or finding.rule_id in file_rules:
            self._result.suppressed += 1
            return
        suppressed = suppressions.get(finding.line)
        if suppressed is not None and (
            suppressed is _ALL_RULES
            or "*" in suppressed
            or finding.rule_id in suppressed
        ):
            self._result.suppressed += 1
            return
        self._result.findings.append(finding)


def lint_paths(
    paths: Iterable[Union[str, Path]],
    *,
    select: Optional[Iterable[str]] = None,
) -> LintResult:
    """One-shot convenience wrapper around :class:`Linter`."""
    return Linter(select=select).lint_paths(paths)


# ---------------------------------------------------------------------------
# Discovery and module naming
# ---------------------------------------------------------------------------


def _discover(paths: Iterable[Union[str, Path]]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        elif not path.exists():
            raise LintError(f"{path}: no such file or directory")
    return files


def module_name_for(path: Path) -> str:
    """The dotted import name of a source file, for package scoping.

    Anchors at the last ``repro`` component of the path (the layout this
    repository and an installed wheel share); files outside any
    ``repro`` tree fall back to their stem, which scoped rules simply
    skip.
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    try:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return parts[-1] if parts else ""
    return ".".join(parts[anchor:])


# ---------------------------------------------------------------------------
# noqa suppression
# ---------------------------------------------------------------------------


def _suppressions(lines: Sequence[str]) -> Dict[int, FrozenSet[str]]:
    """``line number -> suppressed rule ids`` for one module's source."""
    table: Dict[int, FrozenSet[str]] = {}
    for number, line in enumerate(lines, start=1):
        if "noqa" not in line:
            continue
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[number] = _ALL_RULES
        else:
            names = frozenset(
                part.strip().upper() for part in rules.split(",") if part.strip()
            )
            table[number] = names or _ALL_RULES
    return table


def _file_suppressions(lines: Sequence[str]) -> FrozenSet[str]:
    """Rule ids suppressed module-wide by a top-of-file ``noqa-file``."""
    rules: Set[str] = set()
    for line in lines[:_FILE_NOQA_WINDOW]:
        if "noqa-file" not in line:
            continue
        match = _FILE_NOQA_RE.search(line)
        if match is None:
            continue
        names = match.group("rules")
        if names is None:
            rules.add("*")
        else:
            parsed = {
                part.strip().upper()
                for part in names.split(",")
                if part.strip()
            }
            rules.update(parsed or {"*"})
    return frozenset(rules)


def _lines_for_path(path: str) -> List[str]:
    """Re-read a file for finalize-phase suppression checks (rare)."""
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError:
        return []
    return source.splitlines()


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


def render_text(result: LintResult) -> str:
    """Compiler-style text report: one finding per line plus a summary."""
    lines = [str(finding) for finding in result.findings]
    lines.append(result.summary())
    return "\n".join(lines)


def result_as_dict(result: LintResult) -> Dict[str, object]:
    """The JSON-friendly shape of a lint run (CI artifact payload)."""
    return {
        "findings": [finding.as_dict() for finding in result.findings],
        "summary": {
            "findings": len(result.findings),
            "files_checked": result.files_checked,
            "suppressed": result.suppressed,
            "ok": result.ok,
        },
    }


def render_json(result: LintResult) -> str:
    """:func:`result_as_dict`, serialised with stable key order."""
    return json.dumps(result_as_dict(result), indent=2, sort_keys=True)
