"""Forward may dataflow: fixed points on small hand-built CFGs."""

import ast

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import solve


def cfg_of(*lines):
    tree = ast.parse("\n".join(lines) + "\n")
    function = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return build_cfg(function)


def defs(node, facts):
    """Which variables have been assigned (no kills)."""
    scan = node.stmt
    if isinstance(scan, (ast.For, ast.AsyncFor)):
        scan = scan.target  # the header binds only its target
    elif not isinstance(scan, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        return facts
    return facts | {
        target.id
        for target in ast.walk(scan)
        if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)
    }


def before(cfg, facts, label):
    return facts[cfg.node(label).index]


class TestForwardMay:
    def test_facts_accumulate_along_paths(self):
        cfg = cfg_of(
            "def f(c):",        # 1
            "    a = 1",        # 2
            "    if c:",        # 3
            "        b = 2",    # 4
            "    return a",     # 5
        )
        facts = solve(cfg, defs)
        assert before(cfg, facts, "assign:2") == frozenset()
        assert before(cfg, facts, "if:3") == {"a"}
        # May-meet at the join: b reaches along one path, so it's in.
        assert before(cfg, facts, "return:5") == {"a", "b"}

    def test_loop_reaches_fixed_point(self):
        cfg = cfg_of(
            "def f(items):",        # 1
            "    total = 0",        # 2
            "    for x in items:",  # 3
            "        total = x",    # 4
            "    return total",     # 5
        )
        facts = solve(cfg, defs)
        # The back edge feeds the loop body's defs into the header.
        assert before(cfg, facts, "for:3") == {"total", "x"}
        assert before(cfg, facts, "return:5") == {"total", "x"}


class TestEdgeKindsAndTransfer:
    def test_exception_only_flow(self):
        def raised(node, facts):
            return facts | {node.label} if node.kind == "expr" else facts

        cfg = cfg_of(
            "def f():",             # 1
            "    try:",             # 2
            "        step()",       # 3
            "        done()",       # 4
            "    except ValueError:",  # 5
            "        pass",         # 6
        )
        facts = solve(cfg, raised)
        # The handler is reached only along exception edges: from step()
        # before done() ran, and from done() after step() had.
        assert before(cfg, facts, "except:5") == {"expr:3", "expr:4"}

    def test_custom_transfer_replaces_facts(self):
        def parity(node, facts):
            if node.kind == "assign":
                return frozenset({"odd" if "even" in facts else "even"})
            return facts

        cfg = cfg_of(
            "def f():",     # 1
            "    a = 1",    # 2
            "    b = 2",    # 3
            "    return b",  # 4
        )
        facts = solve(cfg, parity)
        assert before(cfg, facts, "assign:3") == {"even"}
        assert before(cfg, facts, "return:4") == {"odd"}

    def test_unreachable_node_stays_empty(self):
        cfg = cfg_of(
            "def f():",             # 1
            "    while True:",      # 2
            "        a = 1",        # 3
        )
        facts = solve(cfg, defs)
        assert before(cfg, facts, "while:2") == {"a"}
        # The loop never exits, so no edge reaches the exit node: it
        # keeps the empty start value.
        assert cfg.predecessors(cfg.exit) == []
        assert before(cfg, facts, "exit") == frozenset()
