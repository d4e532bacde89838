"""Consistency of networks of basic cardinal direction constraints ([21]).

A *network* is a set of constraints ``{a_i R_ij a_j}`` with basic
relations over variables standing for ``REG*`` regions.  The checker
answers: does a concrete assignment of regions exist satisfying all
constraints simultaneously?

The algorithm, in the spirit of the companion paper's reduction to order
constraints:

1. **Projection.**  Each constraint ``a R b`` translates, per axis, into
   a conjunction of order constraints between the mbb endpoints of ``a``
   and ``b`` (see :func:`_axis_inequalities`): which side bands the
   relation's tiles occupy pins strict/weak inequalities, and middle-band
   tiles require overlapping spans.  These conditions are exactly
   tile-wise reachability + attainment (they decompose per axis), so they
   are *necessary*.
2. **Order solving.**  The two (independent) axis systems of ``≤`` / ``<``
   constraints are solved over ℚ by SCC condensation: variables forced
   into one SCC must be equal; a strict edge inside an SCC is a
   contradiction (**INCONSISTENT** — with the offending cycle reported);
   otherwise every SCC gets its own integer coordinate, increasing along
   one topological order of the condensation — a linear extension of the
   endpoint order.
3. **Canonical models.**  With all boxes placed, each region takes the
   *maximal* material allowed by its constraints
   (:func:`~repro.reasoning.witness.maximal_model`), and every constraint
   is re-checked on the witness with the paper's own Compute-CDR
   algorithm.  Success is a proof of consistency (**CONSISTENT**, witness
   returned).  A failure only rules out the *chosen* endpoint order:
   variables the constraints leave incomparable were linearised
   arbitrarily, and another extension might admit a model, so the answer
   is **UNKNOWN** — the honest residue of a polynomial-time canonical
   construction.  Other extensions, random ones included, never turned
   such an UNKNOWN into an answer on the networks measured, so the
   checker tests one (docs/ALGORITHMS.md §7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ReasoningError
from repro.core.compute import compute_cdr
from repro.core.relation import CardinalDirection
from repro.geometry.bbox import BoundingBox
from repro.geometry.region import Region
from repro.obs.metrics import current_metrics
from repro.obs.trace import span as _obs_span
from repro.resilience.deadline import (
    Deadline,
    count_deadline_exceeded,
    deadline_scope,
)
from repro.reasoning.witness import maximal_model

Constraints = Mapping[Tuple[str, str], CardinalDirection]


class ConsistencyStatus(enum.Enum):
    """Outcome of a consistency check."""

    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"
    UNKNOWN = "unknown"


@dataclass
class ConsistencyResult:
    """Result of :func:`check_consistency`.

    ``witness`` maps variable names to concrete regions when the status is
    CONSISTENT; ``explanation`` is a human-readable account of the
    decision (the violated cycle for INCONSISTENT, the failing constraint
    for UNKNOWN).  ``deadline_exceeded`` marks an UNKNOWN that is a
    *labelled partial result*: the wall-clock budget had run out when the
    check began, so nothing was decided.
    """

    status: ConsistencyStatus
    witness: Optional[Dict[str, Region]] = None
    explanation: str = ""
    boxes: Optional[Dict[str, BoundingBox]] = None
    deadline_exceeded: bool = False

    def __bool__(self) -> bool:
        return self.status is ConsistencyStatus.CONSISTENT


@dataclass
class _AxisSystem:
    """Order constraints over one axis's endpoints.

    Endpoints are ints: variable ``k``'s low end is ``2k`` and its high
    end ``2k + 1``.
    """

    weak: List[Tuple[int, int]] = field(default_factory=list)    # u <= v
    strict: List[Tuple[int, int]] = field(default_factory=list)  # u < v

    def leq(self, u: int, v: int) -> None:
        self.weak.append((u, v))

    def lt(self, u: int, v: int) -> None:
        self.strict.append((u, v))


def _axis_inequalities(
    system: _AxisSystem, i: int, j: int, bands: frozenset
) -> None:
    """Add the order constraints of one constraint on one axis.

    ``bands`` is the set of side bands (-1/0/1) that the relation's tiles
    occupy on this axis; ``i`` and ``j`` index the primary and the
    reference, whose endpoints are ``lo(i), hi(i)`` and ``lo(j), hi(j)``.
    """
    lo_i, hi_i = 2 * i, 2 * i + 1
    lo_j, hi_j = 2 * j, 2 * j + 1
    if -1 in bands:
        system.lt(lo_i, lo_j)  # material strictly below the low grid line
    else:
        system.leq(lo_j, lo_i)
    if 1 in bands:
        system.lt(hi_j, hi_i)
    else:
        system.leq(hi_i, hi_j)
    if 0 in bands:
        # A middle-band tile needs full-dimensional overlap of the spans.
        system.lt(lo_i, hi_j)
        system.lt(lo_j, hi_i)
    if bands == frozenset({1}):
        system.leq(hi_j, lo_i)  # attainment of lo(i) through the high band
    if bands == frozenset({-1}):
        system.leq(hi_i, lo_j)  # attainment of hi(i) through the low band


def _solve_axis(
    system: _AxisSystem, labels: Sequence[str]
) -> Tuple[Optional[List[int]], str]:
    """Solve one axis's order system over endpoints ``0 .. len(labels) - 1``.

    Returns ``(values, "")``, where ``values[e]`` is endpoint ``e``'s
    integer coordinate, or ``(None, explanation)`` when a strict
    inequality lies inside a forced-equality cycle; ``labels`` name the
    endpoints in the explanation.

    Kosaraju's algorithm: a depth-first search lists the endpoints by
    finishing time, and a search of the reversed edges from the latest
    finisher down collects the strongly connected components in a
    topological order of the condensation.  Each component's number in
    that order is its coordinate.
    """
    count = len(labels)
    successors: List[List[int]] = [[] for _ in range(count)]
    predecessors: List[List[int]] = [[] for _ in range(count)]
    for u, v in system.weak + system.strict:
        successors[u].append(v)
        predecessors[v].append(u)
    finished: List[int] = []
    seen = [False] * count
    for root in range(count):
        if seen[root]:
            continue
        seen[root] = True
        path = [(root, iter(successors[root]))]
        while path:
            node, children = path[-1]
            for child in children:
                if not seen[child]:
                    seen[child] = True
                    path.append((child, iter(successors[child])))
                    break
            else:  # every child explored: the node finishes
                path.pop()
                finished.append(node)
    values = [-1] * count
    components = 0
    for root in reversed(finished):
        if values[root] >= 0:
            continue
        values[root] = components
        pending = [root]
        while pending:
            for parent in predecessors[pending.pop()]:
                if values[parent] < 0:
                    values[parent] = components
                    pending.append(parent)
        components += 1
    for u, v in system.strict:
        if values[u] == values[v]:
            return None, (
                f"contradictory cycle: {labels[u]} < {labels[v]} but both "
                "are forced equal"
            )
    return values, ""


def _validate_constraints(constraints: Constraints) -> Dict[str, int]:
    """Check the network; number its variables in order of appearance."""
    index: Dict[str, int] = {}
    for (i, j), relation in constraints.items():
        if i == j:
            raise ReasoningError(
                f"self-constraint {i} {relation} {i} is not allowed "
                "(every region is trivially B of itself)"
            )
        if not isinstance(relation, CardinalDirection):
            raise ReasoningError(f"constraint ({i}, {j}) is not a basic relation")
        index.setdefault(i, len(index))
        index.setdefault(j, len(index))
    if not index:
        raise ReasoningError("empty constraint network")
    return index


def check_consistency(
    constraints: Constraints,
    *,
    deadline: Optional[Union[Deadline, float]] = None,
) -> ConsistencyResult:
    """Decide satisfiability of a basic cardinal-direction network.

    Both axes' order systems are solved once; their solution places
    every box, and the maximal model of that one placement is verified
    with Compute-CDR.  An order conflict rules out every placement, so
    an INCONSISTENT answer is certain; UNKNOWN means only that the one
    placement tried admits no model.

    ``deadline`` (seconds, or a :class:`~repro.resilience.Deadline`) is
    checked once, on entry; a deadline installed by an enclosing
    :func:`~repro.resilience.deadline_scope` applies equally.  An
    expired budget gives a labelled partial answer — UNKNOWN with
    ``deadline_exceeded`` set — never a hang.

    >>> from repro.core.relation import CardinalDirection as CD
    >>> result = check_consistency({("a", "b"): CD.parse("N"),
    ...                             ("b", "a"): CD.parse("N")})
    >>> result.status.value
    'inconsistent'
    """
    index = _validate_constraints(constraints)

    x_system, y_system = _AxisSystem(), _AxisSystem()
    for k in index.values():
        x_system.lt(2 * k, 2 * k + 1)
        y_system.lt(2 * k, 2 * k + 1)
    for (i, j), relation in constraints.items():
        _axis_inequalities(x_system, index[i], index[j], relation.spans_columns)
        _axis_inequalities(y_system, index[i], index[j], relation.spans_rows)

    labels = [f"{kind}:{name}" for name in index for kind in ("lo", "hi")]
    with deadline_scope(deadline) as active_deadline, _obs_span(
        "reasoning.consistency",
        constraints=len(constraints),
        variables=len(index),
        order_variables=len(labels),
        inequalities=(
            len(x_system.weak) + len(x_system.strict)
            + len(y_system.weak) + len(y_system.strict)
        ),
    ) as check_span:
        if active_deadline is not None and active_deadline.expired():
            count_deadline_exceeded("reasoning.consistency")
            result = ConsistencyResult(
                ConsistencyStatus.UNKNOWN,
                explanation="deadline exceeded before the endpoint order was solved",
                deadline_exceeded=True,
            )
        else:
            x_values, reason = _solve_axis(x_system, labels)
            y_values: Optional[List[int]] = None
            if x_values is not None:
                y_values, reason = _solve_axis(y_system, labels)
            if x_values is None or y_values is None:
                axis = "x" if x_values is None else "y"
                check_span.set(axis=axis)
                result = ConsistencyResult(
                    ConsistencyStatus.INCONSISTENT,
                    explanation=f"{axis}-axis: {reason}",
                )
            else:
                boxes = {
                    name: BoundingBox(
                        x_values[2 * k],
                        y_values[2 * k],
                        x_values[2 * k + 1],
                        y_values[2 * k + 1],
                    )
                    for name, k in index.items()
                }
                result = _verify_maximal_model(boxes, constraints)
        check_span.set(
            status=result.status.value,
            deadline_exceeded=result.deadline_exceeded,
        )
    registry = current_metrics()
    if registry is not None:
        registry.counter(
            "repro_consistency_checks_total",
            "Basic-network consistency checks, by outcome.",
        ).inc(status=result.status.value)
    return result


def _verify_maximal_model(
    boxes: Dict[str, BoundingBox], constraints: Constraints
) -> ConsistencyResult:
    """Build and verify the maximal model for one box placement."""
    model = maximal_model(boxes, constraints)
    for name, region in model.items():
        if region is None:
            return ConsistencyResult(
                ConsistencyStatus.UNKNOWN,
                boxes=boxes,
                explanation=(
                    f"the chosen endpoint order leaves no room for {name!r}; "
                    "a different order might admit a model"
                ),
            )
        if region.bounding_box() != boxes[name]:
            return ConsistencyResult(
                ConsistencyStatus.UNKNOWN,
                boxes=boxes,
                explanation=(
                    f"{name!r} cannot attain its bounding box under the "
                    "chosen endpoint order"
                ),
            )
    for (i, j), relation in constraints.items():
        computed = compute_cdr(model[i], model[j])
        if computed != relation:
            return ConsistencyResult(
                ConsistencyStatus.UNKNOWN,
                boxes=boxes,
                explanation=(
                    f"the maximal model realises {i} {computed} {j} instead "
                    f"of {i} {relation} {j}"
                ),
            )
    return ConsistencyResult(
        ConsistencyStatus.CONSISTENT,
        witness={name: region for name, region in model.items()},
        boxes=boxes,
        explanation="maximal model verified by Compute-CDR",
    )
