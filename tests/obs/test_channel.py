"""The worker sink channel (repro.obs.channel), round-tripped in process:
the parent names its sinks, a worker context records into fresh ones,
and the parent grafts the payload back."""

import pickle

import pytest

from repro.obs import (
    SamplingProfiler,
    collecting,
    current_metrics,
    current_profiler,
    current_tracer,
    fresh_sinks,
    graft,
    profiling,
    sink_spec,
    span,
    tracing,
)
from repro.obs.profiler import ENV_PROFILE_HZ


@pytest.fixture(autouse=True)
def _no_live_samples(monkeypatch):
    # A worker's fresh profiler samples at the default rate; one sample a
    # day keeps the counts to the ones the test merges by hand.
    monkeypatch.setenv(ENV_PROFILE_HZ, str(1 / 86400))


def _worker_chunk(spec):
    """What a pool worker does with the parent's spec, in process."""
    with fresh_sinks(spec, worker="worker-7") as sinks:
        with span("worker.outer"):
            with span("worker.inner"):
                pass
        current_metrics().counter("repro_test_total").inc(3, site="a")
        current_metrics().histogram("repro_test_seconds").observe(1.5)
        current_profiler().merge({"samples": 2, "counts": {"s;a": 2, "s;b": 1}})
    return pickle.loads(pickle.dumps(sinks.payload()))


class TestRoundTrip:
    def test_all_three_sinks_graft_back(self):
        with tracing() as tracer, collecting() as registry, profiling(
            SamplingProfiler(hz=1 / 86400)
        ) as profiler:
            registry.counter("repro_test_total").inc(2, site="a")
            registry.histogram("repro_test_seconds").observe(0.5)
            profiler.merge({"samples": 1, "counts": {"s;a": 1}})
            spec = sink_spec()
            assert spec == ("trace", "metrics", "profile")
            with tracer.span("parent.open") as open_span:
                payload = _worker_chunk(spec)
                # Leaving the worker context put the parent's sinks back.
                assert current_tracer() is tracer
                assert current_metrics() is registry
                assert current_profiler() is profiler
                graft(payload)

        by_name = {s.name: s for s in tracer.spans}
        outer, inner = by_name["worker.outer"], by_name["worker.inner"]
        # Spans: fresh ids, roots re-parented under the open span.
        assert len({s.span_id for s in tracer.spans}) == len(tracer.spans)
        assert outer.parent_id == open_span.span_id
        assert inner.parent_id == outer.span_id
        assert outer.worker == inner.worker == "worker-7"
        # Metrics: counters and histograms add.
        assert registry.counter("repro_test_total").value(site="a") == 5
        histogram = registry.histogram("repro_test_seconds")
        assert histogram.count() == 2
        assert histogram.sum() == 2.0
        # Profile: counts and samples add.
        assert profiler.counts() == {"s;a": 3, "s;b": 1}
        assert profiler.samples == 3

    def test_nothing_installed_sends_nothing(self):
        assert sink_spec() is None
        with fresh_sinks(None) as sinks:
            assert current_tracer() is None
        assert sinks.payload() is None
        graft(None)  # a no-op

