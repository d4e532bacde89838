"""Intraprocedural control-flow graphs over :mod:`ast`.

:func:`build_cfg` turns one function body into a statement-level
:class:`CFG`: one node per statement (plus a few synthetic nodes), and
directed edges for every way control can move between them —
fall-through, branch, loop back-edge, ``break`` / ``continue`` /
``return`` (routed through every enclosing ``finally``), exception
propagation into handlers and out of the function.  The path rules
RA008 and RA009 (:mod:`repro.analysis.flow_rules`) find loop bodies
and solve a dataflow problem (:mod:`repro.analysis.dataflow`) on these
graphs.

Design decisions, chosen for *sound over-approximation* — a rule that
demands a property on **all** paths may see spurious paths (false
positives are possible, bounded, and suppressible), never miss a real
one:

* **Edge kinds.**  Every edge is :data:`NORMAL` or :data:`EXCEPTION`.
  A statement *may raise* when it contains a call, an ``await``, an
  ``assert`` or is itself a ``raise``; such statements get an
  :data:`EXCEPTION` edge to every live exception target — the
  enclosing handlers, the enclosing ``finally``, or the function
  :attr:`~CFG.exit`.  Attribute access, subscripts and arithmetic are
  deliberately not treated as raising (every statement would raise and
  the graphs would say nothing).
* **One shared ``finally`` subgraph.**  The ``finally`` body is built
  once; normal completion, exception propagation and abrupt jumps
  (``return`` / ``break`` / ``continue``) all route through it, and
  its tail fans out to each pending continuation.  Paths are thereby
  merged (a ``return`` entering the ``finally`` can exit along the
  exception edge) — an over-approximation, documented here and
  accepted by the rules.
* **``with`` gets a synthetic exit.**  Each ``with`` statement
  contributes a ``with_exit`` node on the normal fall-through path,
  marking where ``__exit__`` runs; rules kill facts scoped to the
  context manager there.  Abrupt exits from the body bypass the node
  (the real ``__exit__`` still runs; rules treating ``with_exit`` as a
  kill site are conservative about abrupt paths).
* **Exceptions outrank handler order.**  A may-raise statement inside
  ``try`` gets an edge to *every* handler (no type matching), plus the
  propagation target unless some handler is a catch-all (bare or
  ``BaseException`` — ``except Exception`` is *not* a catch-all:
  ``KeyboardInterrupt`` escapes it, which is exactly the distinction
  rule RA010 cares about).
* **Generators and coroutines** build like plain functions: ``yield``
  is an expression inside an ordinary statement node, resumption is
  the same edge as fall-through.

Node labels are stable and human-writable (``"assign:3"``, ``"exit"``,
``"with_exit:7"``): the CFG test-suite asserts whole edge sets against
hand-written expected graphs, so the labels are part of the contract.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "CFG",
    "CFGNode",
    "EXCEPTION",
    "NORMAL",
    "build_cfg",
    "function_cfgs",
]

#: Edge kinds.
NORMAL = "normal"
EXCEPTION = "exception"

#: ``ast`` statement class name → short node-kind label.
_KIND_NAMES: Dict[str, str] = {
    "Assign": "assign",
    "AnnAssign": "assign",
    "AugAssign": "assign",
    "Expr": "expr",
    "If": "if",
    "While": "while",
    "For": "for",
    "AsyncFor": "for",
    "With": "with",
    "AsyncWith": "with",
    "Try": "try",
    "TryStar": "try",
    "Return": "return",
    "Raise": "raise",
    "Break": "break",
    "Continue": "continue",
    "Pass": "pass",
    "Match": "match",
    "FunctionDef": "def",
    "AsyncFunctionDef": "def",
    "ClassDef": "class",
    "Import": "import",
    "ImportFrom": "import",
    "Assert": "assert",
    "Delete": "delete",
    "Global": "decl",
    "Nonlocal": "decl",
    "ExceptHandler": "except",
}


class CFGNode:
    """One program point: a statement, or a synthetic marker node."""

    __slots__ = ("index", "kind", "stmt", "label")

    def __init__(
        self,
        index: int,
        kind: str,
        stmt: Optional[ast.AST] = None,
        label: str = "",
    ) -> None:
        self.index = index
        self.kind = kind
        self.stmt = stmt
        self.label = label

    @property
    def line(self) -> int:
        """Source line of the underlying statement (0 for synthetic)."""
        return _node_line(self.stmt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CFGNode {self.label}>"


def _node_line(stmt: Optional[ast.AST]) -> int:
    """Line of a statement node; ``match_case`` carries no position of
    its own, so its pattern's line stands in for it."""
    if stmt is None:
        return 0
    if isinstance(stmt, ast.match_case):
        return getattr(stmt.pattern, "lineno", 0)
    return getattr(stmt, "lineno", 0)


class CFG:
    """A labelled, edge-kinded control-flow graph for one function."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: List[CFGNode] = []
        self._labels: Dict[str, CFGNode] = {}
        self._succ: Dict[int, Dict[int, str]] = {}
        self._pred: Dict[int, Dict[int, str]] = {}
        self.entry = self.add_node("entry")
        self.exit = self.add_node("exit")

    # -- construction -------------------------------------------------

    def add_node(
        self, kind: str, stmt: Optional[ast.AST] = None
    ) -> CFGNode:
        base = kind if stmt is None else f"{kind}:{_node_line(stmt)}"
        label = base
        bump = 2
        while label in self._labels:
            label = f"{base}#{bump}"
            bump += 1
        node = CFGNode(len(self.nodes), kind, stmt, label)
        self.nodes.append(node)
        self._labels[label] = node
        self._succ[node.index] = {}
        self._pred[node.index] = {}
        return node

    def add_edge(
        self, source: CFGNode, target: CFGNode, kind: str = NORMAL
    ) -> None:
        """Add one edge; a NORMAL edge upgrades a duplicate EXCEPTION."""
        existing = self._succ[source.index].get(target.index)
        if existing == NORMAL:
            return
        if existing == EXCEPTION and kind == EXCEPTION:
            return
        self._succ[source.index][target.index] = kind
        self._pred[target.index][source.index] = kind

    # -- queries ------------------------------------------------------

    def node(self, label: str) -> CFGNode:
        """Look a node up by its label (test and debugging entry)."""
        return self._labels[label]

    def successors(
        self, node: CFGNode, kind: Optional[str] = None
    ) -> List[CFGNode]:
        return [
            self.nodes[index]
            for index, edge_kind in sorted(self._succ[node.index].items())
            if kind is None or edge_kind == kind
        ]

    def predecessors(
        self, node: CFGNode, kind: Optional[str] = None
    ) -> List[CFGNode]:
        return [
            self.nodes[index]
            for index, edge_kind in sorted(self._pred[node.index].items())
            if kind is None or edge_kind == kind
        ]

    def edge_set(self, kind: Optional[str] = None) -> Set[Tuple[str, str]]:
        """Every edge as ``(source label, target label)`` pairs."""
        return {
            (self.nodes[source].label, self.nodes[target].label)
            for source, targets in self._succ.items()
            for target, edge_kind in targets.items()
            if kind is None or edge_kind == kind
        }

    def statement_nodes(self) -> List[CFGNode]:
        """All non-synthetic nodes, in insertion order."""
        return [node for node in self.nodes if node.stmt is not None]

    def reachable_from(
        self, start: CFGNode, *, kind: Optional[str] = None
    ) -> Set[int]:
        """Indices of nodes reachable from ``start`` (inclusive)."""
        seen = {start.index}
        stack = [start]
        while stack:
            node = stack.pop()
            for successor in self.successors(node, kind):
                if successor.index not in seen:
                    seen.add(successor.index)
                    stack.append(successor)
        return seen


# ---------------------------------------------------------------------------
# May-raise classification
# ---------------------------------------------------------------------------


def _contains_call(*trees: Optional[ast.AST]) -> bool:
    for tree in trees:
        if tree is None:
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Call, ast.Await)):
                return True
    return False


def _may_raise(stmt: ast.stmt) -> bool:
    """May executing this statement's *own* work raise?

    For compound statements only the header expression counts (the
    body gets its own nodes); for simple statements the whole
    statement is scanned for calls.
    """
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    if isinstance(stmt, ast.If):
        return _contains_call(stmt.test)
    if isinstance(stmt, ast.While):
        return _contains_call(stmt.test)
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return _contains_call(stmt.iter)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return _contains_call(*[item.context_expr for item in stmt.items])
    if isinstance(stmt, ast.Match):
        return _contains_call(stmt.subject)
    if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
        return False
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return _contains_call(
            *stmt.decorator_list, *stmt.args.defaults, *stmt.args.kw_defaults
        )
    if isinstance(stmt, ast.ClassDef):
        return _contains_call(*stmt.decorator_list, *stmt.bases)
    return _contains_call(stmt)


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    """Does this handler stop *all* propagation (bare / BaseException)?

    ``except Exception`` is deliberately not a catch-all here:
    ``KeyboardInterrupt`` and ``SystemExit`` sail past it, so a
    propagation edge out of the ``try`` stays live.
    """
    if handler.type is None:
        return True
    names = []
    if isinstance(handler.type, ast.Tuple):
        names = [
            element.id
            for element in handler.type.elts
            if isinstance(element, ast.Name)
        ]
    elif isinstance(handler.type, ast.Name):
        names = [handler.type.id]
    return "BaseException" in names


def _loop_is_infinite(test: ast.expr) -> bool:
    """``while True:`` (or another truthy constant) never falls through."""
    return isinstance(test, ast.Constant) and bool(test.value)


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


class _LoopFrame:
    """Book-keeping for one enclosing loop during the build."""

    __slots__ = ("header", "break_sources", "finally_depth")

    def __init__(self, header: CFGNode, finally_depth: int) -> None:
        self.header = header
        self.break_sources: List[CFGNode] = []
        self.finally_depth = finally_depth


class _FinallyFrame:
    """One enclosing ``finally`` an abrupt jump must route through."""

    __slots__ = ("head", "pending")

    def __init__(self, head: CFGNode) -> None:
        self.head = head
        #: Jump tokens that entered this finally and must continue from
        #: its tail: ``("return", None)``, ``("break", frame)``,
        #: ``("continue", frame)``.
        self.pending: List[Tuple[str, Optional[_LoopFrame]]] = []


class _Builder:
    def __init__(self, name: str) -> None:
        self.cfg = CFG(name)
        self.loops: List[_LoopFrame] = []
        self.finallies: List[_FinallyFrame] = []
        #: Innermost-last stack of exception target lists.
        self.exception_targets: List[List[CFGNode]] = [[self.cfg.exit]]

    # -- plumbing -----------------------------------------------------

    def _raise_edges(self, node: CFGNode) -> None:
        for target in self.exception_targets[-1]:
            self.cfg.add_edge(node, target, EXCEPTION)

    def _route_jump(
        self,
        source: CFGNode,
        token: Tuple[str, Optional[_LoopFrame]],
        *,
        from_depth: Optional[int] = None,
    ) -> None:
        """Wire one abrupt jump, detouring through enclosing finallies.

        ``from_depth`` is the finally-stack depth the jump continues
        from (``None``: the current depth — i.e. the jump statement
        itself).  A ``break`` / ``continue`` only traverses finallies
        opened *inside* its loop.
        """
        kind, loop = token
        depth = len(self.finallies) if from_depth is None else from_depth
        floor = 0 if loop is None else loop.finally_depth
        if depth > floor:
            frame = self.finallies[depth - 1]
            self.cfg.add_edge(source, frame.head)
            frame.pending.append(token)
            return
        if kind == "return":
            self.cfg.add_edge(source, self.cfg.exit)
        elif kind == "continue":
            assert loop is not None
            self.cfg.add_edge(source, loop.header)
        else:  # break: the after-loop node does not exist yet
            assert loop is not None
            loop.break_sources.append(source)

    # -- statement dispatch -------------------------------------------

    def build(self, body: Sequence[ast.stmt]) -> None:
        head, tails = self._build_body(body)
        if head is None:
            self.cfg.add_edge(self.cfg.entry, self.cfg.exit)
        else:
            self.cfg.add_edge(self.cfg.entry, head)
            for tail in tails:
                self.cfg.add_edge(tail, self.cfg.exit)

    def _build_body(
        self, body: Sequence[ast.stmt]
    ) -> Tuple[Optional[CFGNode], List[CFGNode]]:
        head: Optional[CFGNode] = None
        tails: List[CFGNode] = []
        for stmt in body:
            stmt_head, stmt_tails = self._build_stmt(stmt)
            if stmt_head is None:
                continue
            if head is None:
                head = stmt_head
            for tail in tails:
                self.cfg.add_edge(tail, stmt_head)
            tails = stmt_tails
            if not tails:
                break  # unreachable code after return/raise/break
        return head, tails

    def _build_stmt(
        self, stmt: ast.stmt
    ) -> Tuple[Optional[CFGNode], List[CFGNode]]:
        kind = _KIND_NAMES.get(type(stmt).__name__, "stmt")
        if isinstance(stmt, ast.If):
            return self._build_if(stmt)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._build_loop(stmt, kind)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._build_with(stmt)
        if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            return self._build_try(stmt)
        if isinstance(stmt, ast.Match):
            return self._build_match(stmt)
        node = self.cfg.add_node(kind, stmt)
        if _may_raise(stmt):
            self._raise_edges(node)
        if isinstance(stmt, ast.Return):
            self._route_jump(node, ("return", None))
            return node, []
        if isinstance(stmt, ast.Raise):
            return node, []
        if isinstance(stmt, ast.Break):
            self._route_jump(node, ("break", self.loops[-1]))
            return node, []
        if isinstance(stmt, ast.Continue):
            self._route_jump(node, ("continue", self.loops[-1]))
            return node, []
        return node, [node]

    # -- compound statements ------------------------------------------

    def _build_if(self, stmt: ast.If) -> Tuple[CFGNode, List[CFGNode]]:
        node = self.cfg.add_node("if", stmt)
        if _may_raise(stmt):
            self._raise_edges(node)
        body_head, body_tails = self._build_body(stmt.body)
        tails = list(body_tails)
        if body_head is not None:
            self.cfg.add_edge(node, body_head)
        if stmt.orelse:
            else_head, else_tails = self._build_body(stmt.orelse)
            if else_head is not None:
                self.cfg.add_edge(node, else_head)
                tails.extend(else_tails)
            else:
                tails.append(node)
        else:
            tails.append(node)
        return node, tails

    def _build_loop(
        self, stmt: ast.stmt, kind: str
    ) -> Tuple[CFGNode, List[CFGNode]]:
        header = self.cfg.add_node(kind, stmt)
        if _may_raise(stmt):
            self._raise_edges(header)
        frame = _LoopFrame(header, len(self.finallies))
        self.loops.append(frame)
        body_head, body_tails = self._build_body(stmt.body)  # type: ignore[attr-defined]
        self.loops.pop()
        if body_head is not None:
            self.cfg.add_edge(header, body_head)
            for tail in body_tails:
                self.cfg.add_edge(tail, header)
        falls_through = not (
            isinstance(stmt, ast.While) and _loop_is_infinite(stmt.test)
        )
        orelse = getattr(stmt, "orelse", [])
        tails: List[CFGNode] = []
        if orelse and falls_through:
            else_head, else_tails = self._build_body(orelse)
            if else_head is not None:
                self.cfg.add_edge(header, else_head)
                tails.extend(else_tails)
        elif falls_through:
            tails.append(header)
        tails.extend(frame.break_sources)
        return header, tails

    def _build_with(self, stmt: ast.stmt) -> Tuple[CFGNode, List[CFGNode]]:
        node = self.cfg.add_node("with", stmt)
        if _may_raise(stmt):
            self._raise_edges(node)
        body_head, body_tails = self._build_body(stmt.body)  # type: ignore[attr-defined]
        exit_node = self.cfg.add_node("with_exit", stmt)
        if body_head is None:
            self.cfg.add_edge(node, exit_node)
        else:
            self.cfg.add_edge(node, body_head)
            for tail in body_tails:
                self.cfg.add_edge(tail, exit_node)
            if not body_tails:
                # Every body path is abrupt; the synthetic exit would be
                # an orphan, but keeping it wired to nothing is honest:
                # no normal fall-through exists.
                pass
        return node, [exit_node] if (body_head is None or body_tails) else []

    def _build_try(self, stmt: ast.stmt) -> Tuple[CFGNode, List[CFGNode]]:
        body: List[ast.stmt] = stmt.body  # type: ignore[attr-defined]
        handlers: List[ast.ExceptHandler] = stmt.handlers  # type: ignore[attr-defined]
        orelse: List[ast.stmt] = stmt.orelse  # type: ignore[attr-defined]
        finalbody: List[ast.stmt] = stmt.finalbody  # type: ignore[attr-defined]
        node = self.cfg.add_node("try", stmt)

        finally_frame: Optional[_FinallyFrame] = None
        finally_head: Optional[CFGNode] = None
        finally_tails: List[CFGNode] = []
        if finalbody:
            # Built first so its head exists as a routing target; node
            # indices are therefore not in source order (labels are).
            outer_targets = self.exception_targets[-1]
            finally_head, finally_tails = self._build_body(finalbody)
            assert finally_head is not None  # `finally:` requires a body
            # Exception propagation continues past the finally.
            for tail in finally_tails:
                for target in outer_targets:
                    self.cfg.add_edge(tail, target, EXCEPTION)
            finally_frame = _FinallyFrame(finally_head)
            self.finallies.append(finally_frame)

        handler_nodes = [
            self.cfg.add_node("except", handler) for handler in handlers
        ]
        catch_all = any(_is_catch_all(handler) for handler in handlers)

        # Exception targets while executing the try body.
        body_targets = list(handler_nodes)
        if finally_head is not None:
            body_targets.append(finally_head)
        elif not catch_all:
            body_targets.extend(self.exception_targets[-1])
        self.exception_targets.append(body_targets)
        body_head, body_tails = self._build_body(body)
        self.exception_targets.pop()
        self.cfg.add_edge(node, body_head if body_head is not None else node)

        # Handlers and the else block propagate to the finally (or out).
        inner_targets = (
            [finally_head]
            if finally_head is not None
            else self.exception_targets[-1]
        )
        normal_tails: List[CFGNode] = []
        self.exception_targets.append(inner_targets)
        for handler, handler_node in zip(handlers, handler_nodes):
            handler_head, handler_tails = self._build_body(handler.body)
            if handler_head is not None:
                self.cfg.add_edge(handler_node, handler_head)
                normal_tails.extend(handler_tails)
            else:
                normal_tails.append(handler_node)
        if orelse:
            else_head, else_tails = self._build_body(orelse)
            if else_head is not None:
                for tail in body_tails:
                    self.cfg.add_edge(tail, else_head)
                normal_tails.extend(else_tails)
            else:
                normal_tails.extend(body_tails)
        else:
            normal_tails.extend(body_tails)

        if finally_frame is None:
            self.exception_targets.pop()
            return node, normal_tails

        self.exception_targets.pop()
        self.finallies.pop()
        assert finally_head is not None
        for tail in normal_tails:
            self.cfg.add_edge(tail, finally_head)
        # Abrupt jumps that entered this finally continue on their way
        # from its tail — through the next finally out, or to their
        # ultimate target.
        for token in finally_frame.pending:
            for tail in finally_tails:
                self._route_jump(
                    tail, token, from_depth=len(self.finallies)
                )
        return node, list(finally_tails) if normal_tails else []

    def _build_match(self, stmt: ast.Match) -> Tuple[CFGNode, List[CFGNode]]:
        node = self.cfg.add_node("match", stmt)
        if _may_raise(stmt):
            self._raise_edges(node)
        tails: List[CFGNode] = []
        previous = node
        for case in stmt.cases:
            case_node = self.cfg.add_node("case", case)
            self.cfg.add_edge(previous, case_node)
            if case.guard is not None and _contains_call(case.guard):
                self._raise_edges(case_node)
            body_head, body_tails = self._build_body(case.body)
            if body_head is not None:
                self.cfg.add_edge(case_node, body_head)
                tails.extend(body_tails)
            else:
                tails.append(case_node)
            previous = case_node
        irrefutable = bool(stmt.cases) and _is_wildcard_case(stmt.cases[-1])
        if not irrefutable:
            tails.append(previous)
        return node, tails


def _is_wildcard_case(case: "ast.match_case") -> bool:
    """``case _:`` (no guard) — the only pattern that cannot fail."""
    return (
        isinstance(case.pattern, ast.MatchAs)
        and case.pattern.pattern is None
        and case.guard is None
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def build_cfg(
    function: "ast.FunctionDef | ast.AsyncFunctionDef", name: Optional[str] = None
) -> CFG:
    """The CFG of one function's body (generators included)."""
    builder = _Builder(name or function.name)
    builder.build(function.body)
    return builder.cfg


def function_cfgs(
    tree: ast.AST,
) -> Iterator[Tuple[str, "ast.FunctionDef | ast.AsyncFunctionDef", CFG]]:
    """``(qualname, function node, CFG)`` for every function in a module.

    Nested functions and methods are yielded too, each with its own
    intraprocedural graph, qualified ``Outer.inner`` style.
    """

    def visit(
        node: ast.AST, prefix: str
    ) -> Iterator[Tuple[str, "ast.FunctionDef | ast.AsyncFunctionDef", CFG]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child, build_cfg(child, qualname)
                yield from visit(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            else:
                yield from visit(child, prefix)

    return visit(tree, "")
