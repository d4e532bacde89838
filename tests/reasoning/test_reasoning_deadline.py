"""Deadline behaviour of the reasoning layer: labelled partial results.

Consistency checking for cardinal direction networks is NP-hard, so the
solver must be interruptible: under an expired (or mid-run-expiring)
wall-clock budget it returns UNKNOWN verdicts / reports labelled
``deadline_exceeded`` — never a hang, never a silent wrong answer.
"""

from repro import obs
from repro.core.relation import CardinalDirection
from repro.reasoning.consistency import (
    ConsistencyStatus,
    check_consistency,
)
from repro.reasoning.network import DisjunctiveNetwork
from repro.resilience.deadline import deadline_scope


def cd(text: str) -> CardinalDirection:
    return CardinalDirection.parse(text)


def consistent_network() -> DisjunctiveNetwork:
    network = DisjunctiveNetwork()
    network.constrain("a", "b", "{N, NE}")
    network.constrain("b", "c", "{E, SE}")
    network.constrain("a", "c", "{N, NE, E}")
    return network


class TestCheckConsistencyDeadline:
    def test_expired_deadline_yields_labelled_unknown(self):
        result = check_consistency({("a", "b"): cd("N")}, deadline=0.0)
        assert result.status is ConsistencyStatus.UNKNOWN
        assert result.deadline_exceeded
        assert "deadline" in result.explanation

    def test_generous_deadline_changes_nothing(self):
        result = check_consistency({("a", "b"): cd("N")}, deadline=600.0)
        assert result.status is ConsistencyStatus.CONSISTENT
        assert not result.deadline_exceeded

    def test_enclosing_scope_reaches_the_checker(self):
        with deadline_scope(0.0):
            result = check_consistency({("a", "b"): cd("N")})
        assert result.status is ConsistencyStatus.UNKNOWN
        assert result.deadline_exceeded

    def test_expiry_is_counted_per_site(self):
        registry = obs.MetricsRegistry()
        with obs.collecting(registry):
            check_consistency({("a", "b"): cd("N")}, deadline=0.0)
        counter = registry.counter("repro_deadline_exceeded_total")
        assert counter.value(site="reasoning.consistency") == 1


class TestSolveDeadline:
    def test_expired_deadline_yields_labelled_partial_report(self):
        report = consistent_network().solve(deadline=0.0)
        assert report.solution is None
        assert report.deadline_exceeded
        assert report.examined == 0

    def test_generous_deadline_still_solves(self):
        report = consistent_network().solve(deadline=600.0)
        assert report.solution is not None
        assert not report.deadline_exceeded
        assert report.examined >= 1

    def test_enclosing_scope_reaches_the_solver(self):
        with deadline_scope(0.0):
            report = consistent_network().solve()
        assert report.solution is None
        assert report.deadline_exceeded

    def test_unbounded_solve_is_unaffected(self):
        report = consistent_network().solve()
        assert report.solution is not None
        assert not report.deadline_exceeded


class TestClosureDeadline:
    def test_closure_stops_early_but_stays_sound(self):
        network = consistent_network()
        before = {
            key: len(relation)
            for key, relation in network.constraints().items()
        }
        with deadline_scope(0.0):
            outcome = network.algebraic_closure()
        # Stopping short of the fixpoint is sound: nothing was removed
        # and no inconsistency is (wrongly) declared.
        assert outcome is True
        after = {
            key: len(relation)
            for key, relation in network.constraints().items()
        }
        assert after == before
