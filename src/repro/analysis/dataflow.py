"""Forward *may* dataflow over :mod:`repro.analysis.cfg` graphs.

A problem is one transfer function: given a node and the facts that
hold before it, return the facts after it.  :func:`solve` iterates a
worklist to the fixed point, meeting by union over every incoming edge
(normal and exception alike), and returns the facts before each node.

Facts are plain frozensets of strings, with no lattice abstraction,
because the one problem in use fits that mould: RA009 (fork safety,
:mod:`repro.analysis.flow_rules`) asks "can a live thread, lock, open
span or contextvar write reach this pool-spawn site?"
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, FrozenSet

from .cfg import CFG, CFGNode

__all__ = ["Facts", "Transfer", "solve"]

Facts = FrozenSet[str]
Transfer = Callable[[CFGNode, Facts], Facts]

_EMPTY: Facts = frozenset()


def solve(cfg: CFG, transfer: Transfer) -> Dict[int, Facts]:
    """Facts before each node at the fixed point, keyed by node index.

    The entry starts empty.  Unreachable nodes stay empty, so they add
    nothing to the union at reachable nodes.
    """
    before: Dict[int, Facts] = {node.index: _EMPTY for node in cfg.nodes}
    after: Dict[int, Facts] = dict(before)
    after[cfg.entry.index] = transfer(cfg.entry, _EMPTY)

    work = deque(node for node in cfg.nodes if node is not cfg.entry)
    pending = {node.index for node in work}
    while work:
        node = work.popleft()
        pending.discard(node.index)
        met = _EMPTY.union(
            *(after[source.index] for source in cfg.predecessors(node))
        )
        before[node.index] = met
        produced = transfer(node, met)
        if produced != after[node.index]:
            after[node.index] = produced
            for successor in cfg.successors(node):
                if successor is cfg.entry or successor.index in pending:
                    continue
                pending.add(successor.index)
                work.append(successor)
    return before
