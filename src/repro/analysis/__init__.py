"""``repro.analysis`` — project-native static analysis.

Four pillars, all zero-dependency (stdlib ``ast`` plus the reasoning
stack itself):

* **domain linter** (:mod:`repro.analysis.linter` /
  :mod:`repro.analysis.rules`) — AST rules for the invariants the
  engine registry, the observability conventions and the numeric
  layers rely on, with ``# repro: noqa[RULE]`` /
  ``# repro: noqa-file[RULE]`` suppressions, pluggable third-party
  rules and text/JSON/SARIF reporters (:mod:`repro.analysis.sarif`);
* **path rules** (:mod:`repro.analysis.flow_rules`, over
  :mod:`repro.analysis.cfg` and :mod:`repro.analysis.dataflow`) —
  RA008 (deadline discipline) finds loop bodies on per-function CFGs,
  RA009 (fork safety) runs a forward *may* dataflow problem over them,
  and RA010 (exception transparency) walks ``try`` statements with a
  module-local call summary;
* **D\\* algebra verifier** (:mod:`repro.analysis.algebra`) — proves
  the inverse/composition tables of the reasoning stack satisfy the
  involution, identity, closure and witness-coherence theorems over
  the 511 basic relations;
* **strict typing gate** (:mod:`repro.analysis.typing_gate`) — runs
  mypy in strict mode over the gated packages when mypy is available,
  reporting a structured pass/fail/skip.

Everything surfaces through ``cardirect analyze`` (``--strict`` for CI
gating, ``--algebra`` for the table proofs, ``--format json`` /
``--format sarif`` for the machine-readable artifacts).  See
``docs/STATIC_ANALYSIS.md``.
"""

from repro.analysis.algebra import (
    AlgebraCheck,
    AlgebraReport,
    AlgebraViolation,
    default_coherence_pairs,
    verify_algebra,
)
from repro.analysis.cfg import CFG, CFGNode, build_cfg, function_cfgs
from repro.analysis.dataflow import solve
from repro.analysis.flow_rules import (
    DeadlineLoopRule,
    ExceptionShieldRule,
    ForkSafetyRule,
)
from repro.analysis.linter import (
    LintError,
    LintResult,
    Linter,
    lint_paths,
    render_json,
    render_text,
    result_as_dict,
)
from repro.analysis.rules import (
    LintFinding,
    ModuleInfo,
    Rule,
    available_rules,
    create_rules,
    register_rule,
    unregister_rule,
)
from repro.analysis.sarif import render_sarif, sarif_report
from repro.analysis.typing_gate import (
    STRICT_PACKAGES,
    TypingReport,
    run_typing_gate,
)

__all__ = [
    "AlgebraCheck",
    "AlgebraReport",
    "AlgebraViolation",
    "CFG",
    "CFGNode",
    "DeadlineLoopRule",
    "ExceptionShieldRule",
    "ForkSafetyRule",
    "LintError",
    "LintFinding",
    "LintResult",
    "Linter",
    "ModuleInfo",
    "Rule",
    "STRICT_PACKAGES",
    "TypingReport",
    "available_rules",
    "build_cfg",
    "create_rules",
    "default_coherence_pairs",
    "function_cfgs",
    "lint_paths",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_text",
    "result_as_dict",
    "run_typing_gate",
    "sarif_report",
    "solve",
    "unregister_rule",
    "verify_algebra",
]
