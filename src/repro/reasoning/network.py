"""Disjunctive constraint networks over cardinal direction relations.

Section 2 introduces disjunctive relations (elements of ``2^{D*}``) for
*indefinite* information — "region a is north or west of region b".  This
module provides the standard machinery for reasoning with whole networks
of such constraints, built on the composition and inverse operators:

* :class:`DisjunctiveNetwork` — variables plus disjunctive constraints,
  normalised so each unordered pair stores one forward relation (the
  reverse direction is implied through :func:`~repro.reasoning.inverse.
  inverse`);
* :meth:`DisjunctiveNetwork.algebraic_closure` — path consistency: prune
  each ``R_ij`` against ``R_ik ∘ R_kj`` and against the inverses, to a
  fixpoint.  Sound (never removes a relation that participates in a
  solution) but — as for most non-trivial calculi — not complete;
* :meth:`DisjunctiveNetwork.solve` — generate-and-test refinement
  search: enumerate complete refinements (a basic relation from each
  disjunction) and hand each basic network to
  :func:`~repro.reasoning.consistency.check_consistency`.  Every returned
  solution carries *verified witness regions*; because the basic-network
  checker may answer UNKNOWN on exotic orderings, the search is sound and
  witness-producing but may miss solutions it cannot verify (it reports
  how many candidates were skipped for that reason), and a search cut at
  ``max_candidates`` is reported as such, never as inconsistent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ReasoningError
from repro.core.relation import CardinalDirection, DisjunctiveCD
from repro.obs.metrics import current_metrics
from repro.obs.trace import span as _obs_span
from repro.resilience.deadline import (
    Deadline,
    count_deadline_exceeded,
    deadline_scope,
)
from repro.geometry.region import Region
from repro.reasoning.composition import compose_disjunctive
from repro.reasoning.consistency import (
    ConsistencyStatus,
    check_consistency,
)
from repro.reasoning.inverse import inverse


def inverse_disjunctive(relation: DisjunctiveCD) -> DisjunctiveCD:
    """The inverse of a disjunctive relation: union of member inverses."""
    members = 0
    for basic in relation:
        members |= inverse(basic).mask
    return DisjunctiveCD.from_mask(members)


@dataclass
class Solution:
    """One verified solution of a disjunctive network."""

    assignment: Dict[Tuple[str, str], CardinalDirection]
    witness: Dict[str, Region]


@dataclass
class SolveReport:
    """Outcome of :meth:`DisjunctiveNetwork.solve`.

    ``solution`` is ``None`` when no candidate refinement could be
    verified; ``unverified_candidates`` counts refinements the basic
    checker answered UNKNOWN on.  ``deadline_exceeded`` and
    ``max_candidates_exceeded`` mark a negative answer that is really a
    labelled partial result: the wall-clock budget or the candidate
    bound ran out after ``examined`` of the candidate refinements, so
    unexamined candidates might still admit a solution.  The negative
    answer is certain only when all three are unset.
    """

    solution: Optional[Solution]
    unverified_candidates: int = 0
    deadline_exceeded: bool = False
    examined: int = 0
    max_candidates_exceeded: bool = False

    def __bool__(self) -> bool:
        return self.solution is not None


class DisjunctiveNetwork:
    """A set of disjunctive cardinal-direction constraints."""

    def __init__(self) -> None:
        self._variables: List[str] = []
        self._constraints: Dict[Tuple[str, str], DisjunctiveCD] = {}

    @property
    def variables(self) -> List[str]:
        return list(self._variables)

    def add_variable(self, name: str) -> None:
        if name not in self._variables:
            self._variables.append(name)

    def constrain(
        self,
        primary: str,
        reference: str,
        relation: Union[CardinalDirection, DisjunctiveCD, str],
    ) -> None:
        """Add (or intersect with) a constraint ``primary R reference``.

        ``relation`` may be a :class:`CardinalDirection`, a
        :class:`DisjunctiveCD`, or parseable text (``"N"``, ``"{N, W}"``).
        Constraints on ``(j, i)`` are folded into the stored ``(i, j)``
        entry through the inverse, so contradictory directions meet in
        one place.
        """
        if primary == reference:
            raise ReasoningError("self-constraints are not allowed")
        relation = self._coerce(relation)
        self.add_variable(primary)
        self.add_variable(reference)
        forward_key, stored = self._normalised_key(primary, reference)
        if not stored:
            relation = inverse_disjunctive(relation)
        existing = self._constraints.get(forward_key)
        if existing is None:
            self._constraints[forward_key] = relation
        else:
            self._constraints[forward_key] = existing.intersection(relation)

    @staticmethod
    def _coerce(relation) -> DisjunctiveCD:
        if isinstance(relation, DisjunctiveCD):
            return relation
        if isinstance(relation, CardinalDirection):
            return DisjunctiveCD((relation,))
        if isinstance(relation, str):
            return DisjunctiveCD.parse(relation)
        raise ReasoningError(f"cannot interpret constraint {relation!r}")

    def _normalised_key(self, i: str, j: str) -> Tuple[Tuple[str, str], bool]:
        """Store each unordered pair under its first-seen orientation."""
        if (i, j) in self._constraints:
            return (i, j), True
        if (j, i) in self._constraints:
            return (j, i), False
        return (i, j), True

    def constraints(self) -> Dict[Tuple[str, str], DisjunctiveCD]:
        """The stored constraints, in their stored orientation (a copy)."""
        return dict(self._constraints)

    def relation_between(self, i: str, j: str) -> DisjunctiveCD:
        """The current (possibly pruned) relation of ``i`` w.r.t. ``j``."""
        if (i, j) in self._constraints:
            return self._constraints[(i, j)]
        if (j, i) in self._constraints:
            return inverse_disjunctive(self._constraints[(j, i)])
        return DisjunctiveCD.universal()

    @property
    def is_trivially_inconsistent(self) -> bool:
        """True when some constraint has been pruned to the empty set."""
        return any(relation.is_empty for relation in self._constraints.values())

    def algebraic_closure(self, *, max_rounds: int = 50) -> bool:
        """Run path consistency to a fixpoint.

        Returns ``False`` when a constraint empties (definite
        inconsistency), ``True`` otherwise (consistency *not* guaranteed).

        Progress is observable: a ``reasoning.closure`` span records
        the rounds to fixpoint and the number of revisions (arcs
        narrowed) / basic relations pruned, mirrored as
        ``repro_closure_*`` counters in the installed metrics registry.

        A deadline installed through :func:`~repro.resilience.
        deadline_scope` is checked once per round: on expiry the loop
        stops early, which is sound — closure only ever *prunes*, so
        stopping short merely leaves the network less narrowed.
        """
        from repro.resilience.deadline import current_deadline

        names = self._variables
        changed = True
        rounds = 0
        revisions = 0
        relations_pruned = 0
        emptied = False
        active_deadline = current_deadline()
        with _obs_span(
            "reasoning.closure",
            variables=len(names),
            arcs=len(self._constraints),
        ) as closure_span:
            while changed:
                if (
                    active_deadline is not None
                    and active_deadline.expired()
                ):
                    count_deadline_exceeded("reasoning.closure")
                    break
                changed = False
                rounds += 1
                if rounds > max_rounds:  # pragma: no cover - safety valve
                    raise ReasoningError("algebraic closure did not converge")
                for i, k, j in itertools.permutations(names, 3):
                    if i >= j:
                        continue  # handle each unordered (i, j) once per k
                    r_ij = self.relation_between(i, j)
                    pruned = r_ij.intersection(self._compose_pair(i, k, j))
                    if pruned != r_ij:
                        self._store(i, j, pruned)
                        changed = True
                        revisions += 1
                        relations_pruned += len(r_ij) - len(pruned)
                        if pruned.is_empty:
                            emptied = True
                            break
                if emptied:
                    break
            closure_span.set(
                rounds=rounds,
                revisions=revisions,
                relations_pruned=relations_pruned,
                emptied=emptied,
            )
        registry = current_metrics()
        if registry is not None:
            registry.counter(
                "repro_closure_rounds_total",
                "Path-consistency rounds run to fixpoint.",
            ).inc(rounds)
            registry.counter(
                "repro_closure_revisions_total",
                "Arcs narrowed during algebraic closure.",
            ).inc(revisions)
            registry.counter(
                "repro_closure_relations_pruned_total",
                "Basic relations removed from disjunctions by closure.",
            ).inc(relations_pruned)
        if emptied:
            return False
        return not self.is_trivially_inconsistent

    #: Above this many (R_ik, R_kj) pairs the composition is approximated
    #: by the universal relation — sound (no pruning), just weaker.
    COMPOSE_BUDGET = 4096

    def _compose_pair(self, i: str, k: str, j: str) -> DisjunctiveCD:
        r_ik = self.relation_between(i, k)
        r_kj = self.relation_between(k, j)
        universal = DisjunctiveCD.universal()
        if universal in (r_ik, r_kj) or len(r_ik) * len(r_kj) > self.COMPOSE_BUDGET:
            return universal
        return compose_disjunctive(r_ik, r_kj)

    def _store(self, i: str, j: str, relation: DisjunctiveCD) -> None:
        if (j, i) in self._constraints:
            self._constraints[(j, i)] = inverse_disjunctive(relation)
        else:
            self._constraints[(i, j)] = relation

    def solve(
        self,
        *,
        max_candidates: int = 20000,
        deadline: Optional[Union[Deadline, float]] = None,
    ) -> SolveReport:
        """Search for a verified solution by refinement.

        Runs algebraic closure first, then enumerates complete
        refinements — one basic relation per constrained pair, smallest
        disjunctions first, in :func:`itertools.product` order — and
        checks each with the basic-network consistency checker.  It
        generates and tests; it does not backtrack over partial
        assignments.  ``max_candidates`` bounds the number of complete
        refinements checked; ``deadline`` (seconds, or a
        :class:`~repro.resilience.Deadline` — an enclosing
        :func:`~repro.resilience.deadline_scope` works too) bounds the
        wall-clock.  Either cut makes the report a labelled partial
        result whose negative answer is unknown: ``deadline_exceeded``
        or ``max_candidates_exceeded`` is set, and ``examined`` says how
        far the enumeration got (``max_candidates + 1`` on a candidate
        cut: the refinement that tripped the bound is counted, not
        checked).
        """
        if not self._constraints:
            raise ReasoningError("empty network")
        with deadline_scope(deadline) as active_deadline, _obs_span(
            "reasoning.solve",
            variables=len(self._variables),
            arcs=len(self._constraints),
        ) as solve_span:
            if not self.algebraic_closure():
                solve_span.set(outcome="inconsistent", candidates=0)
                return SolveReport(solution=None, unverified_candidates=0)

            keys = sorted(
                self._constraints, key=lambda key: len(self._constraints[key])
            )
            choices: List[List[CardinalDirection]] = [
                list(self._constraints[key]) for key in keys
            ]
            unverified = 0
            examined = 0
            out_of_time = False
            cut = False
            for combo in itertools.product(*choices):
                if (
                    active_deadline is not None
                    and active_deadline.expired()
                ):
                    count_deadline_exceeded("reasoning.solve")
                    out_of_time = True
                    break
                examined += 1
                if examined > max_candidates:
                    cut = True
                    break
                candidate = dict(zip(keys, combo))
                result = check_consistency(candidate)
                if result.status is ConsistencyStatus.CONSISTENT:
                    solve_span.set(
                        outcome="consistent",
                        candidates=examined,
                        unverified=unverified,
                    )
                    return SolveReport(
                        Solution(assignment=candidate, witness=result.witness),
                        unverified_candidates=unverified,
                        examined=examined,
                    )
                if result.status is ConsistencyStatus.UNKNOWN:
                    unverified += 1
            solve_span.set(
                outcome=(
                    "deadline"
                    if out_of_time
                    else "unknown" if unverified or cut else "inconsistent"
                ),
                candidates=examined,
                unverified=unverified,
            )
            return SolveReport(
                solution=None,
                unverified_candidates=unverified,
                deadline_exceeded=out_of_time,
                examined=examined,
                max_candidates_exceeded=cut,
            )
