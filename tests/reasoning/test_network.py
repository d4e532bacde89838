"""Tests for disjunctive constraint networks."""

import pytest

from repro.errors import ReasoningError
from repro.core.compute import compute_cdr
from repro.core.relation import ALL_BASIC_RELATIONS, CardinalDirection, DisjunctiveCD
from repro.reasoning.inverse import inverse
from repro.reasoning.network import (
    DisjunctiveNetwork,
    inverse_disjunctive,
)


def cd(text: str) -> CardinalDirection:
    return CardinalDirection.parse(text)


class TestInverseDisjunctive:
    def test_union_of_member_inverses(self):
        relation = DisjunctiveCD.parse("{SW, NE}")
        assert {str(r) for r in inverse_disjunctive(relation)} == {"NE", "SW"}

    def test_empty_maps_to_empty(self):
        assert inverse_disjunctive(DisjunctiveCD()).is_empty

    @pytest.mark.parametrize("members", [(), ALL_BASIC_RELATIONS, ALL_BASIC_RELATIONS[::41]])
    def test_is_the_union_of_member_inverses(self, members):
        expected = set()
        for member in members:
            expected |= inverse(member).relations
        assert inverse_disjunctive(DisjunctiveCD(members)).relations == expected


class TestConstruction:
    def test_self_constraint_rejected(self):
        network = DisjunctiveNetwork()
        with pytest.raises(ReasoningError):
            network.constrain("a", "a", "B")

    def test_string_coercion(self):
        network = DisjunctiveNetwork()
        network.constrain("a", "b", "{N, W}")
        assert len(network.relation_between("a", "b")) == 2

    def test_bad_constraint_type_rejected(self):
        network = DisjunctiveNetwork()
        with pytest.raises(ReasoningError):
            network.constrain("a", "b", 42)

    def test_constraints_intersect(self):
        network = DisjunctiveNetwork()
        network.constrain("a", "b", "{N, W}")
        network.constrain("a", "b", "{N, S}")
        assert {str(r) for r in network.relation_between("a", "b")} == {"N"}

    def test_reverse_direction_folds_through_inverse(self):
        network = DisjunctiveNetwork()
        network.constrain("a", "b", "{N, S}")
        network.constrain("b", "a", "{S}")  # b S a ⟹ a ∈ inv(S) = N-row
        remaining = network.relation_between("a", "b")
        assert {str(r) for r in remaining} == {"N"}

    def test_unconstrained_pair_is_universal(self):
        network = DisjunctiveNetwork()
        network.constrain("a", "b", "N")
        assert len(network.relation_between("a", "c")) == 511


class TestAlgebraicClosure:
    def test_chain_pruning(self):
        """a S b, b S c prunes a-vs-c to exactly compose(S, S) = {S}."""
        network = DisjunctiveNetwork()
        network.constrain("a", "b", "S")
        network.constrain("b", "c", "S")
        network.constrain("a", "c", "{S, N, B}")
        assert network.algebraic_closure()
        assert {str(r) for r in network.relation_between("a", "c")} == {"S"}

    def test_detects_empty_constraint(self):
        network = DisjunctiveNetwork()
        network.constrain("a", "b", "S")
        network.constrain("b", "c", "S")
        network.constrain("a", "c", "N")  # impossible: must be S
        assert not network.algebraic_closure()
        assert network.is_trivially_inconsistent

    def test_mutual_constraints_prune(self):
        network = DisjunctiveNetwork()
        network.constrain("a", "b", "{S, N}")
        network.constrain("b", "a", "{S, SW:S}")  # forces a N-ish of b? no: b south of a -> a north of b
        assert network.algebraic_closure()
        assert {str(r) for r in network.relation_between("a", "b")} == {"N"}

    def test_closure_idempotent(self):
        network = DisjunctiveNetwork()
        network.constrain("a", "b", "{S, SW}")
        network.constrain("b", "c", "{S}")
        assert network.algebraic_closure()
        snapshot = {
            (i, j): network.relation_between(i, j)
            for i in network.variables
            for j in network.variables
            if i != j
        }
        assert network.algebraic_closure()
        for key, value in snapshot.items():
            assert network.relation_between(*key) == value


class TestSolve:
    def test_empty_network_rejected(self):
        with pytest.raises(ReasoningError):
            DisjunctiveNetwork().solve()

    def test_definite_network(self):
        network = DisjunctiveNetwork()
        network.constrain("a", "b", "NE")
        report = network.solve()
        assert report
        witness = report.solution.witness
        assert compute_cdr(witness["a"], witness["b"]) == cd("NE")

    def test_disjunctive_network_picks_working_branch(self):
        network = DisjunctiveNetwork()
        network.constrain("a", "b", "{S, N}")
        network.constrain("b", "a", "{S}")  # rules the S branch out
        report = network.solve()
        assert report
        assert report.solution.assignment[("a", "b")] == cd("N")

    def test_unsatisfiable_network(self):
        network = DisjunctiveNetwork()
        network.constrain("a", "b", "{N}")
        network.constrain("b", "c", "{N}")
        network.constrain("c", "a", "{N}")
        report = network.solve()
        assert not report
        assert report.unverified_candidates == 0

    @staticmethod
    def _needs_three_refinements():
        """Consistent, but its first two complete refinements fail."""
        network = DisjunctiveNetwork()
        network.constrain("v0", "v1", "{S, SW}")
        network.constrain("v0", "v2", "{S, SE}")
        network.constrain("v1", "v2", "{E, SE}")
        return network

    def test_search_cut_is_unknown_not_inconsistent(self):
        from repro import obs

        assert self._needs_three_refinements().solve().examined == 3
        with obs.tracing() as tracer:
            report = self._needs_three_refinements().solve(max_candidates=1)
        assert report.solution is None
        assert report.max_candidates_exceeded
        assert not report.deadline_exceeded
        # The refinement that tripped the bound is counted, not checked.
        assert report.examined == 2
        (solve_span,) = [s for s in tracer.spans if s.name == "reasoning.solve"]
        assert solve_span.attributes["outcome"] == "unknown"

    def test_uncut_negative_answer_sets_no_cut_flag(self):
        network = DisjunctiveNetwork()
        network.constrain("a", "b", "{N}")
        network.constrain("b", "a", "{N}")
        report = network.solve(max_candidates=1)
        assert not report
        assert not report.max_candidates_exceeded

    def test_solution_respects_every_disjunction(self):
        network = DisjunctiveNetwork()
        network.constrain("a", "b", "{S, SW, W}")
        network.constrain("b", "c", "{N, NE}")
        network.constrain("a", "c", "{B, S, W, N, E, NW, NE, SW, SE}")
        report = network.solve()
        assert report
        for (i, j), relation in report.solution.assignment.items():
            witness = report.solution.witness
            assert compute_cdr(witness[i], witness[j]) == relation
