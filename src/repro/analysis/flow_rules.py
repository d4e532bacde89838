"""Path lint rules: RA008–RA010.

These rules check the lifecycle disciplines the runtime layers rely on:
properties a statement-level walk (:mod:`repro.analysis.rules`) cannot
see, because they are about *paths* or about what a called helper does:

========  ====================  =========================================
id        name                  contract
========  ====================  =========================================
RA008     deadline-loop         loops on ``core`` / ``reasoning`` hot
                                paths that do pair/engine work must keep
                                a reachable deadline checkpoint inside
                                the loop
RA009     fork-safety           no live thread, lock, open tracer span
                                or contextvar write at a
                                ``ProcessPoolExecutor`` / pool / fork
                                spawn site
RA010     exception-shield      broad ``except`` handlers that can
                                swallow ``DeadlineExceeded`` /
                                ``KeyboardInterrupt`` must re-raise,
                                terminate, or sit behind an explicit
                                shield handler
========  ====================  =========================================

RA008 finds each loop's body on the function's CFG
(:mod:`repro.analysis.cfg`); RA009 runs a forward *may* dataflow
problem (:mod:`repro.analysis.dataflow`) over it; RA010 walks the
``try`` statements of the AST and builds no CFG.  RA008 and RA010 also
read a module-local summary of which helpers checkpoint or can raise.

All three are *may-flag over-approximations*: the CFG merges paths
(notably through shared ``finally`` bodies) and the call analysis is
intraprocedural plus a module-local summary, so a finding can be a
false positive on exotic code — that is what ``# repro: noqa[RA0xx]``
is for.  The rules never model paths that cannot happen, so a clean
bill of health is meaningful.

Importing this module registers the rules (the
:mod:`repro.analysis` package import does this), mirroring the built-in
rules in :mod:`repro.analysis.rules`.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set

from .cfg import CFG, CFGNode
from .dataflow import Facts, solve
from .rules import LintFinding, ModuleInfo, Rule, register_rule

__all__ = [
    "DeadlineLoopRule",
    "ExceptionShieldRule",
    "ForkSafetyRule",
]


# ---------------------------------------------------------------------------
# Shared call-shape helpers
# ---------------------------------------------------------------------------


def _callee_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _receiver_name(node: ast.Call) -> Optional[str]:
    """The simple name a method call's receiver bottoms out in."""
    function = node.func
    if not isinstance(function, ast.Attribute):
        return None
    receiver = function.value
    while isinstance(receiver, ast.Attribute):
        receiver = receiver.value
    if isinstance(receiver, ast.Name):
        return receiver.id
    return None


def _node_calls(node: CFGNode) -> Iterator[ast.Call]:
    """Calls executed by this CFG node itself.

    Compound statements contribute only their header expressions (their
    bodies have their own nodes); nested function/class definitions
    contribute nothing (their bodies run later, if ever).
    """
    stmt = node.stmt
    if stmt is None or node.kind in ("def", "class", "with_exit"):
        return
    headers: Sequence[Optional[ast.AST]]
    if isinstance(stmt, ast.If) or isinstance(stmt, ast.While):
        headers = [stmt.test]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        headers = [stmt.iter]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        headers = [item.context_expr for item in stmt.items]
    elif isinstance(stmt, ast.Match):
        headers = [stmt.subject]
    elif isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
        headers = []
    elif isinstance(stmt, ast.ExceptHandler):
        headers = [stmt.type]
    elif isinstance(stmt, ast.match_case):
        headers = [stmt.guard]
    else:
        headers = [stmt]
    for header in headers:
        if header is None:
            continue
        for sub in ast.walk(header):
            if isinstance(sub, ast.Call):
                yield sub


def _local_function_bodies(tree: ast.AST) -> Dict[str, ast.AST]:
    """Top-level and method bodies by bare name, for call summaries."""
    bodies: Dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bodies.setdefault(node.name, node)
    return bodies


def _functions_satisfying(
    tree: ast.AST, predicate: Callable[[ast.AST], bool]
) -> Set[str]:
    """Names of module-local functions that (transitively) satisfy
    ``predicate`` on some call or statement in their body.

    A one-module fixpoint: ``f`` qualifies when its body contains a
    primitive hit, or a call to an already-qualifying local function.
    """
    bodies = _local_function_bodies(tree)
    qualifying: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, body in bodies.items():
            if name in qualifying:
                continue
            for node in ast.walk(body):
                if predicate(node):
                    hit = True
                    break
                if (
                    isinstance(node, ast.Call)
                    and _callee_name(node) in qualifying
                ):
                    hit = True
                    break
            else:
                hit = False
            if hit:
                qualifying.add(name)
                changed = True
    return qualifying


# ---------------------------------------------------------------------------
# RA008 — deadline discipline in hot loops
# ---------------------------------------------------------------------------

#: Raw pair/engine work: computing a relation or a row without an
#: internal deadline check.  Engine methods (``relation`` /
#: ``percentages``) are *not* work here — they checkpoint internally
#: via ``Engine._timed`` and therefore count as checkpoints instead.
_WORK_CALLS = frozenset({"_compute_pair", "_pair_outcome", "_compose_pair"})

#: Attribute calls that run a deadline check themselves.
_CHECKPOINT_CALLS = frozenset(
    {"check", "expired", "remaining", "_timed", "relation", "percentages"}
)

#: ``deadline.check()`` receivers: any name that mentions a deadline.
_DEADLINE_RECEIVER_RE = re.compile(r"deadline", re.IGNORECASE)


def _is_checkpoint_call(call: ast.Call, summary: Set[str]) -> bool:
    callee = _callee_name(call)
    if callee is None:
        return False
    if callee in ("current_deadline", "deadline_scope"):
        return True
    if callee in summary:
        return True
    if callee not in _CHECKPOINT_CALLS:
        return False
    if callee in ("relation", "percentages", "_timed"):
        return isinstance(call.func, ast.Attribute)
    receiver = _receiver_name(call)
    return receiver is not None and bool(_DEADLINE_RECEIVER_RE.search(receiver))


def _checkpoint_primitive(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _is_checkpoint_call(node, set())


class DeadlineLoopRule(Rule):
    """Hot loops must keep a deadline checkpoint reachable inside.

    The resilience layer's contract (PR 6) is that a deadline bounds
    *observed* latency: work notices ``Deadline.check()`` /
    ``deadline.expired()`` within one unit of work.  A ``core`` /
    ``reasoning`` loop that computes pairs or rows without a reachable
    checkpoint inside the loop can overshoot the budget by the whole
    loop.  Engine calls checkpoint internally (``Engine._timed``), as
    do module-local helpers that themselves check — both count.
    """

    id = "RA008"
    name = "deadline-loop"
    description = (
        "core/reasoning loops doing pair work need a reachable deadline "
        "checkpoint"
    )
    packages = ("repro.core", "repro.reasoning")

    def check(self, module: ModuleInfo) -> Iterator[LintFinding]:
        summary = _functions_satisfying(module.tree, _checkpoint_primitive)
        for _qualname, _function, cfg in module.function_cfgs():
            yield from self._check_function(module, cfg, summary)

    def _check_function(
        self, module: ModuleInfo, cfg: CFG, summary: Set[str]
    ) -> Iterator[LintFinding]:
        for header in cfg.statement_nodes():
            if header.kind not in ("while", "for"):
                continue
            members = self._loop_members(cfg, header)
            has_work = False
            has_checkpoint = False
            for member in members:
                for call in _node_calls(member):
                    if _callee_name(call) in _WORK_CALLS:
                        has_work = True
                    if _is_checkpoint_call(call, summary):
                        has_checkpoint = True
            if has_work and not has_checkpoint:
                assert header.stmt is not None
                yield self.finding(
                    module,
                    header.stmt,
                    "loop does pair/engine work with no reachable "
                    "deadline checkpoint inside the loop; call "
                    "deadline.check()/expired() (or a helper that does) "
                    "once per iteration",
                )

    @staticmethod
    def _loop_members(cfg: CFG, header: CFGNode) -> List[CFGNode]:
        """Nodes on a cycle through the loop header (its live body)."""
        forward = cfg.reachable_from(header)
        backward = {header.index}
        stack = [header]
        while stack:
            node = stack.pop()
            for predecessor in cfg.predecessors(node):
                if predecessor.index not in backward:
                    backward.add(predecessor.index)
                    stack.append(predecessor)
        return [
            node
            for node in cfg.nodes
            if node.index in forward and node.index in backward
        ]


# ---------------------------------------------------------------------------
# RA009 — fork/thread safety at pool-spawn sites (forward may)
# ---------------------------------------------------------------------------

_THREAD_FACTORIES = frozenset({"Thread", "Timer"})
_LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Barrier"}
)
_SPAWN_CALLS = frozenset({"ProcessPoolExecutor", "Pool", "fork", "forkpty"})
#: Contextvar holders follow the module-constant convention
#: (``_CURRENT`` in ``resilience/deadline.py``): screaming snake case.
_CONTEXTVAR_RE = re.compile(r"_?[A-Z][A-Z0-9_]*\Z")


def _fork_hazards(node: CFGNode, facts: Facts) -> Facts:
    """Transfer: fork-hostile state possibly live after ``node``.

    Facts are ``kind@line`` strings — the line pins the origin so the
    finding message can say *what* is live and *where it came from*.
    """
    stmt = node.stmt
    if stmt is None:
        return facts
    if node.kind == "with_exit":
        # ``__exit__`` ran: spans opened by this with-statement end.
        return frozenset(
            fact
            for fact in facts
            if fact != f"open span@{node.line}"
        )
    if node.kind in ("def", "class"):
        return facts
    updated = set(facts)
    for call in _node_calls(node):
        callee = _callee_name(call)
        receiver = _receiver_name(call)
        if callee in _THREAD_FACTORIES:
            updated.add(f"live thread@{node.line}")
        elif callee in _LOCK_FACTORIES and (
            receiver is None or receiver in ("threading", "multiprocessing")
        ):
            updated.add(f"held lock object@{node.line}")
        elif callee == "join" and receiver is not None:
            updated = {
                fact for fact in updated if not fact.startswith("live thread@")
            }
        elif (
            callee == "set"
            and receiver is not None
            and _CONTEXTVAR_RE.fullmatch(receiver)
        ):
            updated.add(f"contextvar write ({receiver})@{node.line}")
        elif (
            callee == "reset"
            and receiver is not None
            and _CONTEXTVAR_RE.fullmatch(receiver)
        ):
            updated = {
                fact
                for fact in updated
                if not fact.startswith(f"contextvar write ({receiver})@")
            }
    if node.kind == "with":
        assert isinstance(stmt, (ast.With, ast.AsyncWith))
        for item in stmt.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call) and _callee_name(expr) in (
                "span",
                "record",
            ):
                updated.add(f"open span@{node.line}")
    return frozenset(updated)


class ForkSafetyRule(Rule):
    """No fork-hostile state live where worker processes are spawned.

    ``ProcessPoolExecutor`` forks on Linux: a thread the child never
    inherits, a lock that forks in the locked state, an open tracer
    span whose exporter buffer gets duplicated, or a contextvar write
    the child resurrects — each is a hang or a double-report that only
    manifests under load.  Spawn pools first, create threads/locks and
    open spans after, or scope the state with ``with`` so it is closed
    before the spawn.
    """

    id = "RA009"
    name = "fork-safety"
    description = (
        "no live threads/locks/spans/contextvar writes at pool-spawn sites"
    )
    packages = None

    def check(self, module: ModuleInfo) -> Iterator[LintFinding]:
        for _qualname, _function, cfg in module.function_cfgs():
            yield from self._check_function(module, cfg)

    def _check_function(
        self, module: ModuleInfo, cfg: CFG
    ) -> Iterator[LintFinding]:
        spawn_nodes: List[CFGNode] = []
        for node in cfg.statement_nodes():
            if any(
                _callee_name(call) in _SPAWN_CALLS
                for call in _node_calls(node)
            ):
                spawn_nodes.append(node)
        if not spawn_nodes:
            return
        before = solve(cfg, _fork_hazards)
        for node in spawn_nodes:
            hazards = sorted(before[node.index])
            if hazards:
                assert node.stmt is not None
                yield self.finding(
                    module,
                    node.stmt,
                    "worker spawn with fork-hostile state live: "
                    + ", ".join(hazards)
                    + "; spawn the pool before creating threads/locks/"
                    "spans, or close them first",
                )


# ---------------------------------------------------------------------------
# RA010 — exception transparency for deadline/interrupt signals
# ---------------------------------------------------------------------------

#: Exception names whose handlers count as "broad": they catch
#: ``DeadlineExceeded`` (a ``ReproError``) without naming it.
_BROAD_NAMES = frozenset({"Exception", "BaseException", "ReproError"})

#: Calls in a ``try`` body that can deliver a ``DeadlineExceeded``:
#: worker futures (``future.result()``), explicit checks
#: (``deadline.check``), and the engine hot path (``_timed`` /
#: ``relation`` / ``percentages`` all call ``Deadline.check``).
_DEADLINE_SOURCE_CALLS = frozenset(
    {"result", "check", "_timed", "relation", "percentages"}
)

_EXIT_CALLS = frozenset({"exit", "_exit", "abort", "fail"})


def _handler_names(handler_type: Optional[ast.AST]) -> Set[str]:
    if handler_type is None:
        return set()
    names: Set[str] = set()
    elements = (
        handler_type.elts
        if isinstance(handler_type, ast.Tuple)
        else [handler_type]
    )
    for element in elements:
        if isinstance(element, ast.Name):
            names.add(element.id)
        elif isinstance(element, ast.Attribute):
            names.add(element.attr)
    return names


def _deadline_source_primitive(node: ast.AST) -> bool:
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc
        name = (
            exc.func if isinstance(exc, ast.Call) else exc
        )
        if isinstance(name, ast.Name) and name.id == "DeadlineExceeded":
            return True
        if isinstance(name, ast.Attribute) and name.attr == "DeadlineExceeded":
            return True
    if isinstance(node, ast.Call):
        return _callee_name(node) in _DEADLINE_SOURCE_CALLS and isinstance(
            node.func, ast.Attribute
        )
    return False


def _terminates(body: Sequence[ast.stmt]) -> bool:
    """Does every path through this body leave the function (or die)?

    Conservative: only recognises the obvious shapes (``raise`` /
    ``return`` / ``sys.exit`` / ``os._exit`` / ``pytest.fail``, and an
    ``if/else`` whose branches both terminate).  Unknown shapes count
    as falling through, which can only make RA010 stricter.
    """
    for stmt in body:
        if isinstance(stmt, (ast.Raise, ast.Return)):
            return True
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            if _callee_name(stmt.value) in _EXIT_CALLS:
                return True
        if (
            isinstance(stmt, ast.If)
            and stmt.orelse
            and _terminates(stmt.body)
            and _terminates(stmt.orelse)
        ):
            return True
    return False


class ExceptionShieldRule(Rule):
    """Broad handlers must not silently eat deadline/interrupt signals.

    ``DeadlineExceeded`` subclasses ``ReproError`` subclasses
    ``Exception`` — so ``except Exception`` (or ``except ReproError``)
    around code that can raise it converts "the budget is gone, stop"
    into "log and keep going", and the deadline stops bounding anything.
    The fix is an explicit shield *before* the broad handler
    (``except DeadlineExceeded: ...`` — re-raise or label partial
    results), or a handler body that always re-raises / returns.  Bare
    ``except`` and ``except BaseException`` additionally swallow
    ``KeyboardInterrupt`` and need the same treatment.
    """

    id = "RA010"
    name = "exception-shield"
    description = (
        "broad except must not swallow DeadlineExceeded/KeyboardInterrupt"
    )
    packages = None

    def check(self, module: ModuleInfo) -> Iterator[LintFinding]:
        summary = _functions_satisfying(
            module.tree, _deadline_source_primitive
        )
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
                yield from self._check_try(module, node, summary)

    def _check_try(
        self, module: ModuleInfo, node: ast.AST, summary: Set[str]
    ) -> Iterator[LintFinding]:
        body: List[ast.stmt] = node.body  # type: ignore[attr-defined]
        handlers: List[ast.ExceptHandler] = node.handlers  # type: ignore[attr-defined]
        has_deadline_source = self._body_has_deadline_source(body, summary)
        shielded: Set[str] = set()
        for handler in handlers:
            own = _handler_names(handler.type)
            is_bare = handler.type is None
            is_broad = is_bare or bool(own & _BROAD_NAMES)
            if is_broad and not _terminates(handler.body):
                swallowed: List[str] = []
                if (
                    has_deadline_source
                    and "DeadlineExceeded" not in own
                    and "DeadlineExceeded" not in shielded
                ):
                    swallowed.append("DeadlineExceeded")
                if (
                    (is_bare or "BaseException" in own)
                    and "KeyboardInterrupt" not in shielded
                ):
                    swallowed.append("KeyboardInterrupt")
                if swallowed:
                    yield self.finding(
                        module,
                        handler,
                        "broad except can swallow "
                        + "/".join(swallowed)
                        + " without re-raising; add an explicit "
                        "`except DeadlineExceeded` shield before it or "
                        "re-raise",
                    )
            shielded |= own

    @staticmethod
    def _body_has_deadline_source(
        body: Sequence[ast.stmt], summary: Set[str]
    ) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if _deadline_source_primitive(node):
                    return True
                if (
                    isinstance(node, ast.Call)
                    and _callee_name(node) in summary
                ):
                    return True
        return False


register_rule(DeadlineLoopRule)
register_rule(ForkSafetyRule)
register_rule(ExceptionShieldRule)
