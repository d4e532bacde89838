"""Tests for the consistency checker — including round-trips through
concrete geometry (networks computed from real regions must check out)
and a brute-force oracle for the endpoint order solver."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReasoningError
from repro.core.compute import compute_cdr
from repro.core.relation import ALL_BASIC_RELATIONS, CardinalDirection
from repro.reasoning.consistency import (
    ConsistencyStatus,
    _AxisSystem,
    _solve_axis,
    check_consistency,
)
from repro.workloads.generators import random_rectilinear_region


def cd(text: str) -> CardinalDirection:
    return CardinalDirection.parse(text)


class TestValidation:
    def test_empty_network_rejected(self):
        with pytest.raises(ReasoningError):
            check_consistency({})

    def test_self_constraint_rejected(self):
        with pytest.raises(ReasoningError):
            check_consistency({("a", "a"): cd("B")})

    def test_non_basic_relation_rejected(self):
        with pytest.raises(ReasoningError):
            check_consistency({("a", "b"): "N"})


class TestObviousCases:
    def test_single_constraint_consistent(self):
        result = check_consistency({("a", "b"): cd("NE")})
        assert result.status is ConsistencyStatus.CONSISTENT
        assert compute_cdr(result.witness["a"], result.witness["b"]) == cd("NE")

    def test_mutual_north_inconsistent(self):
        result = check_consistency({("a", "b"): cd("N"), ("b", "a"): cd("N")})
        assert result.status is ConsistencyStatus.INCONSISTENT
        assert "cycle" in result.explanation

    def test_cyclic_north_chain_inconsistent(self):
        result = check_consistency(
            {("a", "b"): cd("N"), ("b", "c"): cd("N"), ("c", "a"): cd("N")}
        )
        assert result.status is ConsistencyStatus.INCONSISTENT

    def test_mutual_b_forces_equal_boxes(self):
        result = check_consistency({("a", "b"): cd("B"), ("b", "a"): cd("B")})
        assert result.status is ConsistencyStatus.CONSISTENT
        assert result.boxes["a"] == result.boxes["b"]

    def test_incompatible_pair_inconsistent(self):
        """a S b with b S a is impossible (S is not in inv(S))."""
        result = check_consistency({("a", "b"): cd("S"), ("b", "a"): cd("S")})
        assert result.status is ConsistencyStatus.INCONSISTENT

    def test_result_truthiness(self):
        assert check_consistency({("a", "b"): cd("N")})
        assert not check_consistency({("a", "b"): cd("N"), ("b", "a"): cd("N")})

    def test_one_span_per_check_names_the_conflicting_axis(self):
        from repro import obs

        with obs.tracing() as tracer:
            result = check_consistency({("a", "b"): cd("N"), ("b", "a"): cd("N")})
        assert result.explanation.startswith("y-axis: ")
        (check_span,) = tracer.spans
        assert check_span.name == "reasoning.consistency"
        assert check_span.attributes["status"] == "inconsistent"
        assert check_span.attributes["axis"] == "y"


class TestChains:
    def test_transitive_directions(self):
        result = check_consistency(
            {("a", "b"): cd("NE"), ("b", "c"): cd("NE"), ("a", "c"): cd("NE")}
        )
        assert result.status is ConsistencyStatus.CONSISTENT

    def test_contradicting_composition(self):
        """a S b, b S c forces a S c; demanding a N c must fail."""
        result = check_consistency(
            {("a", "b"): cd("S"), ("b", "c"): cd("S"), ("a", "c"): cd("N")}
        )
        assert result.status is ConsistencyStatus.INCONSISTENT

    def test_multi_tile_network(self):
        result = check_consistency(
            {
                ("a", "b"): cd("B:S:SW:W"),
                ("b", "a"): cd("B:N:NE:E"),
            }
        )
        assert result.status is ConsistencyStatus.CONSISTENT
        witness = result.witness
        assert compute_cdr(witness["a"], witness["b"]) == cd("B:S:SW:W")
        assert compute_cdr(witness["b"], witness["a"]) == cd("B:N:NE:E")

    def test_surround_network(self):
        """x surrounds y while z sits north of both."""
        result = check_consistency(
            {
                ("x", "y"): cd("S:SW:W:NW:N:NE:E:SE"),
                ("z", "y"): cd("N"),
                ("z", "x"): cd("N"),
            }
        )
        assert result.status is ConsistencyStatus.CONSISTENT


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 5))
def test_networks_from_real_geometry_are_consistent(seed, n):
    """Compute all pairwise relations of random concrete regions; the
    resulting (fully specified, consistent-by-construction) network must
    be accepted with a verified witness."""
    rng = random.Random(seed)
    regions = {
        f"r{i}": random_rectilinear_region(rng, rng.randint(1, 4))
        for i in range(n)
    }
    constraints = {}
    names = list(regions)
    for i in names:
        for j in names:
            if i != j:
                constraints[(i, j)] = compute_cdr(regions[i], regions[j])
    result = check_consistency(constraints)
    assert result.status is ConsistencyStatus.CONSISTENT, result.explanation
    for (i, j), relation in constraints.items():
        assert compute_cdr(result.witness[i], result.witness[j]) == relation


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_witnessed_answers_are_never_wrong(seed):
    """Fuzz random small networks of three variables, each pair
    constrained at rate 0.8: whenever the checker says CONSISTENT, its
    witness must verify (we only check the witness direction —
    refutation soundness is covered by the deterministic cases above and
    the order-solver oracle below)."""
    rng = random.Random(seed)
    names = ["a", "b", "c"]
    constraints = {}
    for i in names:
        for j in names:
            if i < j and rng.random() < 0.8:
                constraints[(i, j)] = rng.choice(ALL_BASIC_RELATIONS)
    if not constraints:
        return
    result = check_consistency(constraints)
    if result.status is ConsistencyStatus.CONSISTENT:
        for (i, j), relation in constraints.items():
            assert compute_cdr(result.witness[i], result.witness[j]) == relation


@st.composite
def order_systems(draw):
    """Up to 5 variables with random weak (``<=``) and strict (``<``)
    edges, self-loops included."""
    size = draw(st.integers(1, 5))
    variable = st.integers(0, size - 1)
    edges = draw(st.lists(st.tuples(variable, variable, st.booleans()), max_size=9))
    system = _AxisSystem()
    for u, v, strict in edges:
        (system.lt if strict else system.leq)(u, v)
    return size, system


@settings(max_examples=150, deadline=None)
@given(order_systems())
def test_order_solver_matches_brute_force(drawn):
    """``_solve_axis`` against every map of the variables to
    ``{0, ..., n - 1}`` (a satisfiable order system over ℚ has a solution
    there: rank the distinct values)."""
    size, system = drawn

    def satisfies(values):
        return all(values[u] < values[v] for u, v in system.strict) and all(
            values[u] <= values[v] for u, v in system.weak
        )

    reaches = [[u == v for v in range(size)] for u in range(size)]
    for u, v in system.weak + system.strict:
        reaches[u][v] = True
    for middle, u, v in itertools.product(range(size), repeat=3):
        reaches[u][v] = reaches[u][v] or (reaches[u][middle] and reaches[middle][v])

    values, explanation = _solve_axis(system, [f"v{k}" for k in range(size)])
    feasible = any(
        satisfies(candidate)
        for candidate in itertools.product(range(size), repeat=size)
    )
    assert (values is not None) == feasible
    if values is not None:
        assert explanation == ""
        assert satisfies(values)
        for u, v in itertools.product(range(size), repeat=2):
            assert (values[u] == values[v]) == (reaches[u][v] and reaches[v][u])
    else:
        match = re.fullmatch(
            r"contradictory cycle: v(\d) < v(\d) but both are forced equal",
            explanation,
        )
        assert match, explanation
        u, v = int(match.group(1)), int(match.group(2))
        assert (u, v) in system.strict
        assert reaches[u][v] and reaches[v][u]
