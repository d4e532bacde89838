"""Qualitative reasoning over cardinal direction relations.

The EDBT 2004 paper computes relations from concrete geometry; its
framework (Section 2) additionally relies on three symbolic operations
studied in the authors' companion papers [20, 21, 22]:

* :func:`~repro.reasoning.inverse.inverse` — the disjunctive relation
  ``inv(R)`` holding from ``b`` to ``a`` whenever ``a R b``;
* :func:`~repro.reasoning.composition.compose` — the strongest
  disjunctive relation implied between ``a`` and ``c`` by
  ``a R1 b ∧ b R2 c``;
* :func:`~repro.reasoning.consistency.check_consistency` — satisfiability
  of a network of basic cardinal direction constraints over ``REG*``,
  with witness regions returned on success.

All three rest on one realisability lemma: because regions in ``REG*``
are arbitrary finite unions of full-dimensional pieces, a relation
configuration is realisable exactly when a *qualitative placement* of
the participating bounding boxes admits it.  Inverse and composition
read one table of the 169 placements of a box against a grid
(:mod:`repro.reasoning.orderings`, integer coordinates, built once per
process); the consistency checker compiles the same lemma into order
constraints over box endpoints.  Every positive answer is constructive,
and the test suite cross-validates the symbolic results against
Compute-CDR on generated geometry.
"""

from repro.reasoning.composition import compose
from repro.reasoning.consistency import (
    ConsistencyResult,
    ConsistencyStatus,
    check_consistency,
)
from repro.reasoning.inverse import inverse, pair_realizable
from repro.reasoning.explain import (
    explain_inconsistency,
    minimal_inconsistent_subset,
)
from repro.reasoning.network import (
    DisjunctiveNetwork,
    SolveReport,
    inverse_disjunctive,
)
from repro.reasoning.witness import (
    witness_pair,
    witness_regions_for_relation,
    witness_triple,
)

__all__ = [
    "inverse",
    "inverse_disjunctive",
    "pair_realizable",
    "compose",
    "check_consistency",
    "ConsistencyResult",
    "ConsistencyStatus",
    "DisjunctiveNetwork",
    "SolveReport",
    "minimal_inconsistent_subset",
    "explain_inconsistency",
    "witness_regions_for_relation",
    "witness_pair",
    "witness_triple",
]
