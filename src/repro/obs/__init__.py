"""``repro.obs`` — zero-dependency observability for the stack.

The observability subsystem has three sinks plus the instrumentation
that feeds them:

* **span tracer** (:mod:`repro.obs.trace`) — nested, timed spans with
  attributes, JSONL export, cross-process payload merging, and a no-op
  mode whose per-call cost while disabled is a single ``None`` check;
* **metrics registry** (:mod:`repro.obs.metrics`) — named counters,
  gauges and histograms with deterministic p50/p95/p99 quantile
  reservoirs, JSON and Prometheus-text exporters and a snapshot/merge
  channel for process-pool workers;
* **sampling profiler** (:mod:`repro.obs.profiler`) — a background
  thread snapshotting every thread's stack (rate via
  ``REPRO_PROFILE_HZ``), counting folded flamegraph-ready stacks
  attributed to the enclosing span, mergeable across workers;
* **instrumentation** — the engine layer, batch executor, repair
  pipeline, consistency solver, query evaluator and relation store all
  report into whichever sinks are *installed* (:func:`install_tracer`
  / :func:`install_metrics` / :func:`install_profiler`); nothing is
  recorded while none is;
* **the worker channel** (:mod:`repro.obs.channel`) — :func:`sink_spec`,
  :class:`fresh_sinks` and :func:`graft` carry the installed sinks
  across a process-pool boundary and back;
* **reports** (:mod:`repro.obs.report`) — views of a finished trace:
  the aggregated span tree, hot paths, per-span quantiles, and
  :func:`event_records`, its moments (a lost pool worker, a span over
  its ``REPRO_SLOW_OP_BUDGET`` / ``REPRO_SLOW_OP_BUDGETS`` budget).

Quick start::

    from repro import obs

    with obs.tracing() as tracer, obs.collecting() as registry:
        report = store.batch_relations(engine="sweep", workers=4)
    tracer.export_jsonl("trace.jsonl")
    registry.export_prometheus("metrics.prom")
    print(obs.render_span_tree(tracer.spans))

On the CLI the same wiring is one flag away: every ``cardirect``
subcommand accepts ``--trace``, ``--metrics``, ``--profile`` and
``--events`` FILE options (``--events`` writes :func:`event_records`
of the run's trace); ``cardirect profile`` prints the aggregated
span tree with hot-path percentages and per-span quantiles, and
``cardirect profile --sample`` ranks hot functions from a folded
profile.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.channel import fresh_sinks, graft, sink_spec
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QuantileReservoir,
    collecting,
    current_metrics,
    install_metrics,
    uninstall_metrics,
)
from repro.obs.profiler import (
    SamplingProfiler,
    current_profiler,
    install_profiler,
    parse_folded,
    profiling,
    render_folded_top,
    uninstall_profiler,
)
from repro.obs.report import (
    SpanGroup,
    aggregate_tree,
    event_records,
    hot_paths,
    render_hot_paths,
    render_span_quantiles,
    render_span_tree,
    span_quantiles,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    current_tracer,
    install_tracer,
    load_jsonl,
    record,
    span,
    tracing,
    uninstall_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "QuantileReservoir",
    "SamplingProfiler",
    "Span",
    "SpanGroup",
    "Tracer",
    "aggregate_tree",
    "collecting",
    "current_metrics",
    "current_profiler",
    "current_tracer",
    "event_records",
    "fresh_sinks",
    "graft",
    "hot_paths",
    "install_metrics",
    "install_profiler",
    "install_tracer",
    "load_jsonl",
    "parse_folded",
    "profiling",
    "record",
    "render_folded_top",
    "render_hot_paths",
    "render_span_quantiles",
    "render_span_tree",
    "sink_spec",
    "span",
    "span_quantiles",
    "tracing",
    "uninstall_metrics",
    "uninstall_profiler",
    "uninstall_tracer",
]
