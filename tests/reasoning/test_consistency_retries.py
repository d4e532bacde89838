"""Soundness fuzz tests for the single-pass consistency checker.

The checker solves each axis once, in its canonical endpoint order, and
verifies that one maximal model; these tests pin that this one pass is
sound on random networks and never gives up on networks from real
geometry."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compute import compute_cdr
from repro.core.relation import ALL_BASIC_RELATIONS
from repro.reasoning.consistency import ConsistencyStatus, check_consistency


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_retries_never_break_soundness(seed):
    """Four variables, each pair constrained at rate 0.7: whenever the
    checker says CONSISTENT, its witness must verify."""
    rng = random.Random(seed)
    names = ["a", "b", "c", "d"]
    constraints = {}
    for i in names:
        for j in names:
            if i < j and rng.random() < 0.7:
                constraints[(i, j)] = rng.choice(ALL_BASIC_RELATIONS)
    if not constraints:
        return
    result = check_consistency(constraints)
    if result.status is ConsistencyStatus.CONSISTENT:
        for (i, j), relation in constraints.items():
            assert compute_cdr(result.witness[i], result.witness[j]) == relation


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_geometric_networks_still_pass_first_try(seed):
    """Networks from four two-polygon regions are accepted by the one
    canonical order, never left UNKNOWN."""
    from repro.workloads.generators import random_rectilinear_region

    rng = random.Random(seed)
    regions = {f"r{i}": random_rectilinear_region(rng, 2) for i in range(4)}
    constraints = {
        (i, j): compute_cdr(regions[i], regions[j])
        for i in regions
        for j in regions
        if i != j
    }
    result = check_consistency(constraints)
    assert result.status is ConsistencyStatus.CONSISTENT, result.explanation
