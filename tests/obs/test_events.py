"""Tests for the events view of a trace (repro.obs.report.event_records):
the slow-op budgets and the records ``cardirect --events`` writes."""

import json

import pytest

from repro.obs.report import (
    ENV_SLOW_OP_BUDGET,
    ENV_SLOW_OP_BUDGETS,
    SLOW_OP,
    WORKER_LOST,
    budgets_from_env,
    event_records,
)
from repro.obs.trace import Span, Tracer, record, tracing


@pytest.fixture(autouse=True)
def _no_budgets(monkeypatch):
    monkeypatch.delenv(ENV_SLOW_OP_BUDGET, raising=False)
    monkeypatch.delenv(ENV_SLOW_OP_BUDGETS, raising=False)


def _span(name, seconds, span_id="1"):
    return Span(name, span_id, None, start=10.0, seconds=seconds)


class TestBudgetsFromEnv:
    def test_unset(self):
        assert budgets_from_env() == ({}, None)

    def test_default_budget(self, monkeypatch):
        monkeypatch.setenv(ENV_SLOW_OP_BUDGET, "1.5")
        assert budgets_from_env() == ({}, 1.5)

    def test_per_span_budgets(self, monkeypatch):
        monkeypatch.setenv(
            ENV_SLOW_OP_BUDGETS, json.dumps({"batch.chunk": 2.0})
        )
        assert budgets_from_env() == ({"batch.chunk": 2.0}, None)

    @pytest.mark.parametrize("raw", ["nonsense", "-3"])
    def test_malformed_default_ignored(self, monkeypatch, raw):
        monkeypatch.setenv(ENV_SLOW_OP_BUDGET, raw)
        assert budgets_from_env()[1] is None

    def test_malformed_budgets_ignored(self, monkeypatch):
        monkeypatch.setenv(ENV_SLOW_OP_BUDGETS, "{not json")
        assert budgets_from_env()[0] == {}

    def test_non_numeric_budget_entries_skipped(self, monkeypatch):
        monkeypatch.setenv(
            ENV_SLOW_OP_BUDGETS,
            json.dumps({"good": 1, "bad": "soon", "worse": None}),
        )
        assert budgets_from_env()[0] == {"good": 1.0}


class TestSlowOpWatch:
    def test_over_budget_emits_warning(self, monkeypatch):
        monkeypatch.setenv(ENV_SLOW_OP_BUDGET, "0.5")
        (event,) = event_records([_span("batch.chunk", 0.75, "s9")])
        assert event == {
            "name": SLOW_OP,
            "severity": "warning",
            "time": 10.75,
            "span": "s9",
            "attrs": {"span": "batch.chunk", "seconds": 0.75, "budget": 0.5},
        }

    def test_under_budget_is_silent(self, monkeypatch):
        monkeypatch.setenv(ENV_SLOW_OP_BUDGET, "0.5")
        assert list(event_records([_span("batch.chunk", 0.25)])) == []

    def test_exactly_at_budget_is_not_slow(self, monkeypatch):
        monkeypatch.setenv(ENV_SLOW_OP_BUDGETS, json.dumps({"op": 0.5}))
        assert list(event_records([_span("op", 0.5)])) == []

    def test_per_span_budget_overrides_default(self, monkeypatch):
        monkeypatch.setenv(ENV_SLOW_OP_BUDGET, "0.1")
        monkeypatch.setenv(
            ENV_SLOW_OP_BUDGETS, json.dumps({"slow.allowed": 10.0})
        )
        records = event_records(
            [_span("slow.allowed", 5.0, "1"), _span("other", 5.0, "2")]
        )
        assert [r["attrs"]["span"] for r in records] == ["other"]

    def test_no_budget_no_watch(self):
        assert list(event_records([_span("anything", 1e9)])) == []

    def test_finished_spans_in_trace_order(self, monkeypatch):
        monkeypatch.setenv(ENV_SLOW_OP_BUDGET, "0")
        with tracing() as tracer:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        records = list(event_records(tracer.spans))
        assert [r["attrs"]["span"] for r in records] == ["inner", "outer"]
        assert [r["span"] for r in records] == [
            s.span_id for s in tracer.spans
        ]


class TestWorkerLost:
    def test_marker_links_the_open_span(self):
        with tracing() as tracer:
            with tracer.span("batch.relations") as batch:
                record(WORKER_LOST, 0.0, {"count": 1, "reason": "timeout"})
        (event,) = event_records(tracer.spans)
        assert event["name"] == WORKER_LOST
        assert event["severity"] == "warning"
        assert event["span"] == batch.span_id
        assert event["attrs"] == {"count": 1, "reason": "timeout"}

    def test_marker_outside_any_span_has_no_link(self):
        with tracing() as tracer:
            record(WORKER_LOST, 0.0)
        (event,) = event_records(tracer.spans)
        assert set(event) == {"name", "severity", "time"}

    def test_marker_span_is_never_a_slow_op(self, monkeypatch):
        monkeypatch.setenv(ENV_SLOW_OP_BUDGET, "0")
        monkeypatch.setenv(ENV_SLOW_OP_BUDGETS, json.dumps({WORKER_LOST: -1}))
        with tracing() as tracer:
            record(WORKER_LOST, 0.0, {"count": 1, "reason": "broken_pool"})
        assert [r["name"] for r in event_records(tracer.spans)] == [WORKER_LOST]


class TestGraftedRecords:
    def test_worker_record_keeps_tag_and_resolving_link(self, monkeypatch):
        monkeypatch.setenv(ENV_SLOW_OP_BUDGET, "0")
        worker = Tracer(worker="worker-3")
        with worker.span("batch.chunk"):
            worker.record("engine.sweep.relation", 0.01)
        parent = Tracer()
        with parent.span("batch.relations"):
            parent.ingest(worker.to_payload())
        by_id = {s.span_id: s for s in parent.spans}
        grafted = [r for r in event_records(parent.spans) if "worker" in r]
        assert [r["attrs"]["span"] for r in grafted] == [
            "engine.sweep.relation",
            "batch.chunk",
        ]
        for event in grafted:
            span = by_id[event["span"]]
            assert span.name == event["attrs"]["span"]
            assert span.worker == event["worker"] == "worker-3"
