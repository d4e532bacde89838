"""Domain lint rules: the invariants the stack relies on, as AST checks.

Every rule encodes a contract another layer of the repository depends on
but nothing previously enforced:

========  ===================  ==========================================
id        name                 contract
========  ===================  ==========================================
RA001     float-eq             no raw float ``==`` / ``!=`` in the
                               geometry/compute layers outside the
                               tolerance helpers
RA002     engine-contract      every :class:`~repro.core.engine.Engine`
                               subclass is registered and implements the
                               full ``spawn`` / ``clone_options``
                               lifecycle for its tunables
RA003     telemetry-name       metric literals match ``repro_[a-z_]+``
                               and span names are dotted lowercase, the
                               :mod:`repro.obs` conventions
RA004     mutable-default      no mutable default arguments
RA005     public-annotations   public ``core`` / ``reasoning`` functions
                               are fully annotated (the strict typing
                               gate's floor)
RA006     except-counter       broad exception handlers on
                               fault-isolation paths either re-raise or
                               record an :mod:`repro.obs` error counter
========  ===================  ==========================================

Rules are pluggable through the same registry idiom as the compute
engines (:func:`repro.core.engine.register_engine`): third parties call
:func:`register_rule` and the linter, the ``cardirect analyze`` command
and the reporters pick the rule up with no further surgery.  A rule is
instantiated fresh per lint run, sees every module via :meth:`Rule.check`
and may emit cross-module findings from :meth:`Rule.finalize` (RA002
uses this: a backend class and its ``register_engine`` call may
legitimately live in different modules).

Suppression is per line: ``# repro: noqa`` silences every rule on the
line, ``# repro: noqa[RA001]`` (comma-separated ids allowed) only the
named ones.  See ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.cfg import CFG

__all__ = [
    "LintFinding",
    "ModuleInfo",
    "Rule",
    "available_rules",
    "create_rules",
    "register_rule",
    "unregister_rule",
]


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at one source location.

    ``severity`` is ``"error"`` (gates ``--strict``) or ``"warning"``
    (reported, mapped to the SARIF ``warning`` level, never fails the
    build) — RA003's dynamically-built-name advisory is the canonical
    warning.
    """

    rule_id: str
    rule_name: str
    path: str
    line: int
    column: int
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.rule_id} [{self.rule_name}] {self.severity}: "
            f"{self.message}"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "name": self.rule_name,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "severity": self.severity,
        }


class ModuleInfo:
    """One parsed module, as handed to every rule.

    ``module`` is the dotted import name (``repro.geometry.area``) used
    for package-scoped rules; ``tree`` the parsed AST; ``lines`` the
    source split into physical lines (1-indexed access via
    ``lines[lineno - 1]``).
    """

    def __init__(self, path: str, module: str, source: str) -> None:
        self.path = path
        self.module = module
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        self._cfgs: Optional[List[Tuple[str, ast.AST, "CFG"]]] = None

    def function_cfgs(self) -> List[Tuple[str, ast.AST, "CFG"]]:
        """``(qualname, function node, CFG)`` per function, built once.

        The path rules RA008 and RA009 each need every function's CFG;
        the per-module cache means the graphs are built once per lint
        run however many rules ask.
        """
        if self._cfgs is None:
            from repro.analysis.cfg import function_cfgs

            self._cfgs = list(function_cfgs(self.tree))
        return self._cfgs


class Rule:
    """Base class for lint rules; subclasses set the class attributes
    and implement :meth:`check` (and optionally :meth:`finalize`).

    ``packages`` scopes the rule: ``None`` applies everywhere, otherwise
    a module is checked when its dotted name equals or lives under one
    of the listed packages.
    """

    id: str = "RA000"
    name: str = "rule"
    description: str = ""
    packages: Optional[Tuple[str, ...]] = None

    def applies_to(self, module: ModuleInfo) -> bool:
        if self.packages is None:
            return True
        return any(
            module.module == package or module.module.startswith(package + ".")
            for package in self.packages
        )

    def check(self, module: ModuleInfo) -> Iterator[LintFinding]:
        raise NotImplementedError

    def finalize(self) -> Iterator[LintFinding]:
        """Cross-module findings, after every module has been checked."""
        return iter(())

    def finding(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        *,
        severity: str = "error",
    ) -> LintFinding:
        return LintFinding(
            rule_id=self.id,
            rule_name=self.name,
            path=module.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=severity,
        )


# ---------------------------------------------------------------------------
# RA001 — raw float equality
# ---------------------------------------------------------------------------

#: Functions allowed to compare floats directly: they *are* the
#: tolerance helpers the rest of the layer is told to use.
TOLERANCE_HELPERS = frozenset(
    {"is_close_to", "isclose", "close_to", "approx_equal", "almost_equal"}
)


class FloatEqualityRule(Rule):
    """Raw ``==`` / ``!=`` against float values in the numeric layers.

    ``Compute-CDR%`` accumulates tile areas in floating point on the
    fast paths; exact equality against a float literal (or a ``float()``
    / ``math.*`` result) silently turns a tolerance decision into a
    representation decision.  Compare via the helpers
    (``PercentageMatrix.is_close_to``) or an explicit epsilon, or
    restructure to an inequality.
    """

    id = "RA001"
    name = "float-eq"
    description = "raw float == / != outside the tolerance helpers"
    packages = ("repro.geometry", "repro.core", "repro.extensions")

    def check(self, module: ModuleInfo) -> Iterator[LintFinding]:
        for scope_name, node in _walk_with_function_scope(module.tree):
            if scope_name in TOLERANCE_HELPERS:
                continue
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(_is_floatish(operand) for operand in operands):
                yield self.finding(
                    module,
                    node,
                    "float equality comparison; use a tolerance helper "
                    "(e.g. is_close_to) or an inequality",
                )


def _is_floatish(node: ast.AST) -> bool:
    """Does this expression syntactically produce a float?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_floatish(node.left) or _is_floatish(node.right)
    if isinstance(node, ast.Call):
        function = node.func
        if isinstance(function, ast.Name) and function.id == "float":
            return True
        if (
            isinstance(function, ast.Attribute)
            and isinstance(function.value, ast.Name)
            and function.value.id == "math"
        ):
            return True
    return False


def _walk_with_function_scope(
    tree: ast.AST,
) -> Iterator[Tuple[Optional[str], ast.AST]]:
    """Walk the tree yielding ``(enclosing function name, node)``."""

    def visit(node: ast.AST, scope: Optional[str]) -> Iterator[Tuple[Optional[str], ast.AST]]:
        for child in ast.iter_child_nodes(node):
            child_scope = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_scope = child.name
            yield child_scope, child
            yield from visit(child, child_scope)

    return visit(tree, None)


# ---------------------------------------------------------------------------
# RA002 — engine registry / lifecycle contract
# ---------------------------------------------------------------------------

#: ``Engine.__init__`` keywords every backend shares; extra ``__init__``
#: parameters are tunables that must survive ``spawn()`` via
#: ``clone_options()``.
_BASE_ENGINE_PARAMETERS = frozenset({"self", "edge_cache_size"})


class EngineContractRule(Rule):
    """Engine backends must register and complete the spawn lifecycle.

    The parallel batch executor rebuilds engines in worker processes
    from ``worker_spec()`` — i.e. from the registry name plus
    ``clone_options()``.  A subclass that adds ``__init__`` tunables
    without overriding ``clone_options`` silently drops its
    configuration at every ``spawn()``; a subclass that never reaches
    ``register_engine`` cannot be selected by ``RelationStore``,
    ``batch_relations`` or the CLI at all.
    """

    id = "RA002"
    name = "engine-contract"
    description = "Engine subclasses must register and keep clone_options complete"
    packages = ("repro",)

    def __init__(self) -> None:
        # (module, class name, literal `name` attribute, finding) per class
        self._engine_classes: List[Tuple[str, Optional[str], LintFinding]] = []
        self._registered_names: Set[str] = set()
        self._registered_classes: Set[str] = set()

    def check(self, module: ModuleInfo) -> Iterator[LintFinding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _is_engine_subclass(node):
                yield from self._check_lifecycle(module, node)
                self._engine_classes.append(
                    (
                        node.name,
                        _literal_name_attribute(node),
                        self.finding(
                            module,
                            node,
                            f"engine backend {node.name!r} is never passed "
                            "to register_engine; unregistered engines are "
                            "invisible to RelationStore, batch_relations "
                            "and the CLI",
                        ),
                    )
                )
            if isinstance(node, ast.Call) and _called_name(node) == "register_engine":
                self._collect_registration(node)

    def _check_lifecycle(
        self, module: ModuleInfo, node: ast.ClassDef
    ) -> Iterator[LintFinding]:
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        init = next(
            (
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            ),
            None,
        )
        if init is None:
            return
        parameters = {
            argument.arg
            for argument in (
                init.args.posonlyargs + init.args.args + init.args.kwonlyargs
            )
        }
        tunables = sorted(parameters - _BASE_ENGINE_PARAMETERS)
        if tunables and "clone_options" not in methods:
            yield self.finding(
                module,
                node,
                f"engine backend {node.name!r} adds __init__ tunables "
                f"({', '.join(tunables)}) without overriding "
                "clone_options(); spawn() and the parallel batch "
                "executor would silently drop them",
            )

    def _collect_registration(self, node: ast.Call) -> None:
        if not node.args:
            return
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            self._registered_names.add(first.value)
        if (
            isinstance(first, ast.Attribute)
            and first.attr == "name"
            and isinstance(first.value, ast.Name)
        ):
            self._registered_classes.add(first.value.id)
        if len(node.args) > 1 and isinstance(node.args[1], ast.Name):
            self._registered_classes.add(node.args[1].id)

    def finalize(self) -> Iterator[LintFinding]:
        for class_name, literal_name, finding in self._engine_classes:
            if class_name in self._registered_classes:
                continue
            if literal_name is not None and literal_name in self._registered_names:
                continue
            yield finding


def _is_engine_subclass(node: ast.ClassDef) -> bool:
    for base in node.bases:
        if isinstance(base, ast.Name) and base.id == "Engine":
            return True
        if isinstance(base, ast.Attribute) and base.attr == "Engine":
            return True
    return False


def _literal_name_attribute(node: ast.ClassDef) -> Optional[str]:
    """The class-level ``name = "..."`` literal, when present."""
    for item in node.body:
        if isinstance(item, ast.Assign):
            targets = item.targets
        elif isinstance(item, ast.AnnAssign) and item.value is not None:
            targets = [item.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "name":
                if isinstance(item.value, ast.Constant) and isinstance(
                    item.value.value, str
                ):
                    return item.value.value
    return None


def _called_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _is_dynamic_name(node: ast.AST) -> bool:
    """A name argument assembled at runtime (f-string, format, concat).

    Bare ``Name`` references are excluded: passing a module-level
    literal through a variable is common and checkable at its
    definition site; what cannot be checked is a value glued together
    in the call.
    """
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
        return True
    if isinstance(node, ast.Call):
        function = node.func
        if isinstance(function, ast.Attribute) and function.attr in (
            "format",
            "join",
        ):
            return True
    return False


def _is_span_call(node: ast.Call) -> bool:
    """Is this ``span(...)`` / ``record(...)`` call really a tracer call?

    ``span`` is specific enough to check anywhere; ``record`` is a
    common method name (``EngineStats.record`` takes an operation, not a
    span name), so attribute calls only count when the receiver looks
    like a tracer (``tracer.record``, ``obs.record``,
    ``self.tracer.record``).
    """
    function = node.func
    if isinstance(function, ast.Name):
        return True
    if isinstance(function, ast.Attribute):
        if function.attr == "span":
            return True
        return TelemetryNameRule._is_tracerish(function.value)
    return False


# ---------------------------------------------------------------------------
# RA003 — telemetry naming conventions
# ---------------------------------------------------------------------------

METRIC_NAME_RE = re.compile(r"repro_[a-z][a-z0-9_]*\Z")
SPAN_NAME_RE = re.compile(r"[a-z][a-z0-9_]*(\.[a-z0-9_]+)*\Z")
_SPAN_FRAGMENT_RE = re.compile(r"[a-z0-9_.]*\Z")

#: Metric factory methods on :class:`repro.obs.MetricsRegistry`.
_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})
#: Span-emitting callables (``obs.span`` / ``tracer.record`` / bare
#: ``span`` / ``record`` imported from :mod:`repro.obs`).
_SPAN_CALLABLES = frozenset({"span", "record"})


class TelemetryNameRule(Rule):
    """Metric and span name literals must follow the obs conventions.

    Dashboards, the Prometheus exporter and ``cardirect profile``'s
    span-tree grouping all key on these names: metrics are
    ``repro_``-prefixed snake_case (``repro_engine_operations_total``),
    spans dotted lowercase (``engine.sweep.relation``).  A
    mis-spelled literal ships silently and splits the series.  For
    f-string span names only the constant fragments are checked.
    """

    id = "RA003"
    name = "telemetry-name"
    description = "metric/span name literals must follow repro.obs conventions"
    packages = ("repro",)

    def check(self, module: ModuleInfo) -> Iterator[LintFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            callee = _called_name(node)
            first = node.args[0]
            if callee in _METRIC_FACTORIES:
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    if not METRIC_NAME_RE.fullmatch(first.value):
                        yield self.finding(
                            module,
                            first,
                            f"metric name {first.value!r} does not match "
                            "the repro_[a-z0-9_]+ convention",
                        )
                elif _is_dynamic_name(first):
                    yield self.finding(
                        module,
                        first,
                        "metric name is built dynamically (f-string/"
                        "format/concat); the convention check cannot see "
                        "it and a typo ships silently — prefer a literal "
                        "repro_* name per series",
                        severity="warning",
                    )
            elif callee in _SPAN_CALLABLES and _is_span_call(node):
                yield from self._check_span_name(module, first)

    def _check_dynamic_span(
        self, module: ModuleInfo, first: ast.AST
    ) -> Iterator[LintFinding]:
        if _is_dynamic_name(first) and not isinstance(first, ast.JoinedStr):
            yield self.finding(
                module,
                first,
                "span name is built dynamically; constant fragments "
                "cannot be checked — prefer an f-string (fragments are "
                "checked) or a literal",
                severity="warning",
            )

    @staticmethod
    def _is_tracerish(receiver: ast.AST) -> bool:
        if isinstance(receiver, ast.Name):
            return receiver.id in ("obs", "tracer")
        if isinstance(receiver, ast.Attribute):
            return receiver.attr in ("obs", "tracer")
        return False

    def _check_span_name(
        self, module: ModuleInfo, first: ast.AST
    ) -> Iterator[LintFinding]:
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            if not SPAN_NAME_RE.fullmatch(first.value):
                yield self.finding(
                    module,
                    first,
                    f"span name {first.value!r} is not dotted lowercase "
                    "(e.g. 'engine.sweep.relation')",
                )
        elif isinstance(first, ast.JoinedStr):
            for value in first.values:
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    if not _SPAN_FRAGMENT_RE.fullmatch(value.value):
                        yield self.finding(
                            module,
                            first,
                            f"span name fragment {value.value!r} is not "
                            "dotted lowercase",
                        )
                        break
        else:
            yield from self._check_dynamic_span(module, first)


# ---------------------------------------------------------------------------
# RA004 — mutable default arguments
# ---------------------------------------------------------------------------


class MutableDefaultRule(Rule):
    """Mutable default arguments are shared across calls.

    A ``repairs={}`` default on a batch entry point would accumulate
    every caller's repair reports in one dict for the life of the
    process — state leaking between requests is exactly the failure
    mode a fault-isolated pipeline exists to prevent.  Default to
    ``None`` and allocate inside the function.
    """

    id = "RA004"
    name = "mutable-default"
    description = "mutable default argument values"

    def check(self, module: ModuleInfo) -> Iterator[LintFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if _is_mutable_literal(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument in {node.name}(); "
                        "default to None and allocate per call",
                    )


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"list", "dict", "set", "bytearray"}
    return False


# ---------------------------------------------------------------------------
# RA005 — public API annotations in core / reasoning
# ---------------------------------------------------------------------------


class PublicAnnotationsRule(Rule):
    """Public ``core`` / ``reasoning`` callables must be fully annotated.

    These packages are the strict-typing-gate surface (see
    ``[tool.mypy]`` in ``pyproject.toml``); an unannotated public
    parameter drops the whole call graph under it back to ``Any`` and
    the gate stops proving anything.  Private helpers (leading
    underscore) and nested closures are exempt.
    """

    id = "RA005"
    name = "public-annotations"
    description = "public core/reasoning functions must be fully annotated"
    packages = ("repro.core", "repro.reasoning", "repro.analysis")

    def check(self, module: ModuleInfo) -> Iterator[LintFinding]:
        yield from self._check_body(module, module.tree.body, inside_class=False)

    def _check_body(
        self,
        module: ModuleInfo,
        body: Iterable[ast.stmt],
        *,
        inside_class: bool,
    ) -> Iterator[LintFinding]:
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield from self._check_body(module, node.body, inside_class=True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                missing = _missing_annotations(node, method=inside_class)
                if missing:
                    yield self.finding(
                        module,
                        node,
                        f"public function {node.name}() is missing "
                        f"annotations: {', '.join(missing)}",
                    )


def _missing_annotations(
    node: "ast.FunctionDef | ast.AsyncFunctionDef", *, method: bool
) -> List[str]:
    decorators = {
        decorator.id
        for decorator in node.decorator_list
        if isinstance(decorator, ast.Name)
    }
    parameters = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
    skip_first = method and "staticmethod" not in decorators
    missing = []
    for index, parameter in enumerate(parameters):
        if skip_first and index == 0 and parameter.arg in ("self", "cls"):
            continue
        if parameter.annotation is None:
            missing.append(parameter.arg)
    if node.args.vararg is not None and node.args.vararg.annotation is None:
        missing.append("*" + node.args.vararg.arg)
    if node.args.kwarg is not None and node.args.kwarg.annotation is None:
        missing.append("**" + node.args.kwarg.arg)
    if node.returns is None:
        missing.append("return")
    return missing


# ---------------------------------------------------------------------------
# RA006 — broad handlers must count their catches
# ---------------------------------------------------------------------------


class ExceptCounterRule(Rule):
    """Broad exception handlers must re-raise or count what they ate.

    The fault-isolation paths (batch executor, repair pipeline)
    deliberately survive failures — which is only safe while every
    swallowed exception is visible somewhere.  A bare
    ``except:`` or ``except Exception:`` that neither re-raises nor
    records an error counter (an ``.inc(...)`` on an obs counter or a
    ``*_errors`` attribute) turns fault isolation into fault erasure.
    """

    id = "RA006"
    name = "except-counter"
    description = "broad except must re-raise or record an error counter"
    packages = (
        "repro.core",
        "repro.cardirect",
        "repro.geometry",
        "repro.obs",
        "repro.analysis",
    )

    def check(self, module: ModuleInfo) -> Iterator[LintFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare except: swallows KeyboardInterrupt and "
                    "SystemExit; catch an explicit exception type",
                )
                continue
            if _catches_broadly(node.type) and not _accounts_for_exception(node):
                yield self.finding(
                    module,
                    node,
                    "except Exception on a fault-isolation path must "
                    "re-raise or record an obs error counter "
                    "(e.g. registry.counter(...).inc() or "
                    "self.parse_errors += 1)",
                )


def _catches_broadly(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("Exception", "BaseException")
    if isinstance(node, ast.Tuple):
        return any(_catches_broadly(element) for element in node.elts)
    return False


def _accounts_for_exception(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            function = node.func
            if isinstance(function, ast.Attribute) and function.attr == "inc":
                return True
        if isinstance(node, (ast.AugAssign, ast.Assign)):
            targets = (
                [node.target] if isinstance(node, ast.AugAssign) else node.targets
            )
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr.endswith(
                    "errors"
                ):
                    return True
    return False


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

RuleFactory = Callable[[], Rule]

_RULE_REGISTRY: Dict[str, RuleFactory] = {}


def register_rule(rule: Type[Rule], *, replace: bool = False) -> None:
    """Register a rule class under its ``id`` (third parties welcome).

    Mirrors :func:`repro.core.engine.register_engine`: after
    registration the linter, ``cardirect analyze`` and the reporters
    pick the rule up by id with no further surgery.
    """
    identifier = rule.id
    if not identifier or not isinstance(identifier, str):
        raise ValueError(f"rule id must be a non-empty string, got {identifier!r}")
    if identifier in _RULE_REGISTRY and not replace:
        raise ValueError(
            f"rule {identifier!r} is already registered; "
            "pass replace=True to override"
        )
    _RULE_REGISTRY[identifier] = rule


def unregister_rule(rule_id: str) -> None:
    """Remove a registered rule (primarily for tests/plugins)."""
    _RULE_REGISTRY.pop(rule_id, None)


def available_rules() -> Tuple[str, ...]:
    """The ids of all registered rules, sorted."""
    return tuple(sorted(_RULE_REGISTRY))


def create_rules(
    select: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """Fresh rule instances for one lint run.

    ``select`` restricts to the named rule ids; unknown ids raise so a
    typo in ``--select`` cannot silently lint nothing.
    """
    if select is None:
        chosen = list(available_rules())
    else:
        chosen = list(select)
        unknown = [rule_id for rule_id in chosen if rule_id not in _RULE_REGISTRY]
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}; "
                f"registered: {', '.join(available_rules())}"
            )
    return [_RULE_REGISTRY[rule_id]() for rule_id in chosen]


register_rule(FloatEqualityRule)
register_rule(EngineContractRule)
register_rule(TelemetryNameRule)
register_rule(MutableDefaultRule)
register_rule(PublicAnnotationsRule)
register_rule(ExceptCounterRule)
