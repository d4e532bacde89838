"""Tests for the span tracer (repro.obs.trace)."""

import json

import pytest

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


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    """Every test starts and ends with tracing disabled."""
    uninstall_tracer()
    yield
    uninstall_tracer()


class TestTracer:
    def test_nested_spans_link_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # completion order: children close before parents
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        assert all(s.seconds >= 0.0 for s in tracer.spans)

    def test_attributes_at_open_and_via_set(self):
        tracer = Tracer()
        with tracer.span("work", regions=7) as s:
            s.set(pairs=42, failed=0)
        (recorded,) = tracer.spans
        assert recorded.attributes == {"regions": 7, "pairs": 42, "failed": 0}

    def test_record_is_parented_under_current_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            leaf = tracer.record("leaf", 0.25, {"n": 1})
        assert leaf.parent_id == outer.span_id
        assert leaf.seconds == 0.25

    def test_current_id_tracks_the_stack(self):
        tracer = Tracer()
        assert tracer.current_id() is None
        with tracer.span("a") as a:
            assert tracer.current_id() == a.span_id
        assert tracer.current_id() is None

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(worker="w0")
        with tracer.span("outer", k="v"):
            tracer.record("leaf", 0.125)
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)  # every line is standalone JSON
        loaded = load_jsonl(str(path))
        assert {s.name for s in loaded} == {"outer", "leaf"}
        outer = next(s for s in loaded if s.name == "outer")
        assert outer.attributes == {"k": "v"}
        assert outer.worker == "w0"

    def test_ingest_reallocates_ids_and_reparents_roots(self):
        worker = Tracer(worker="w3")
        with worker.span("chunk"):
            worker.record("op", 0.1)
        parent = Tracer()
        with parent.span("batch") as batch:
            grafted = parent.ingest(worker.to_payload())
        by_name = {s.name: s for s in grafted}
        # the payload root hangs under the parent's open span ...
        assert by_name["chunk"].parent_id == batch.span_id
        # ... internal structure survives the id re-allocation ...
        assert by_name["op"].parent_id == by_name["chunk"].span_id
        # ... and ids never collide with the parent's own
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))
        # ... and each span keeps the tag its own tracer gave it
        assert all(s.worker == "w3" for s in grafted)

    def test_ingest_two_workers_do_not_collide(self):
        payloads = []
        for index in range(2):
            worker = Tracer(worker=f"w{index}")
            with worker.span("chunk"):
                pass
            payloads.append(worker.to_payload())
        parent = Tracer()
        for payload in payloads:
            parent.ingest(payload)
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids)) == 2
        assert [s.worker for s in parent.spans] == ["w0", "w1"]


class TestGlobalHelpers:
    def test_disabled_mode_is_a_no_op(self):
        assert current_tracer() is None
        assert span("anything", k=1) is NULL_SPAN
        with span("anything") as s:
            assert s.set(a=1) is s  # chainable, still does nothing
        record("anything", 0.5)  # must not raise

    def test_install_uninstall(self):
        tracer = install_tracer()
        assert current_tracer() is tracer
        with span("visible"):
            pass
        assert [s.name for s in tracer.spans] == ["visible"]
        assert uninstall_tracer() is tracer
        assert current_tracer() is None

    def test_tracing_scope_restores_previous(self):
        outer = install_tracer()
        with tracing() as inner:
            assert current_tracer() is inner
            record("inner-span", 0.1)
        assert current_tracer() is outer
        assert [s.name for s in inner.spans] == ["inner-span"]
        assert outer.spans == []


class TestSpanWireFormat:
    def test_from_dict_inverts_as_dict(self):
        original = Span(
            "n", "7", "3", start=12.5, seconds=0.5,
            attributes={"a": 1}, worker="w1",
        )
        clone = Span.from_dict(original.as_dict())
        assert clone.name == "n"
        assert clone.span_id == "7"
        assert clone.parent_id == "3"
        assert clone.seconds == 0.5
        assert clone.attributes == {"a": 1}
        assert clone.worker == "w1"
