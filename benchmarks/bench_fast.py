"""The vectorised fast path vs the reference implementation.

Not a paper experiment — an engineering extension: the same two
algorithms evaluated over numpy arrays of parameter intervals instead of
per-edge Python objects.  The point of recording it here is the shape:
the reference implementation already beats clipping (E10).  For
percentages the fast path is about 5x faster again on 8k-edge workloads
while remaining extensionally equal (see tests/core/test_fast.py).  For
the relation the reference's band walk, which forms no crossing point,
is about twice as fast as the numpy kernel (EXPERIMENTS.md E17).
"""

import pytest

from repro.core.compute import compute_cdr
from repro.core.fast import compute_cdr_fast, compute_cdr_percentages_fast
from repro.core.percentages import compute_cdr_percentages

from benchmarks.conftest import star_workload

EDGES = 8192


@pytest.fixture(scope="module")
def workload():
    return star_workload(EDGES)


@pytest.mark.benchmark(group="fast-qualitative")
def test_reference_cdr(benchmark, workload, reference):
    benchmark(compute_cdr, workload, reference)


@pytest.mark.benchmark(group="fast-qualitative")
def test_fast_cdr(benchmark, workload, reference):
    relation = benchmark(compute_cdr_fast, workload, reference)
    assert relation == compute_cdr(workload, reference)


@pytest.mark.benchmark(group="fast-percentages")
def test_reference_percentages(benchmark, workload, reference):
    benchmark(compute_cdr_percentages, workload, reference)


@pytest.mark.benchmark(group="fast-percentages")
def test_fast_percentages(benchmark, workload, reference):
    matrix = benchmark(compute_cdr_percentages_fast, workload, reference)
    assert matrix.is_close_to(
        compute_cdr_percentages(workload, reference), tolerance=1e-6
    )
