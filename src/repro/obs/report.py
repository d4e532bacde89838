"""Rendering traces for humans: aggregated span trees and hot paths.

A raw trace of an all-pairs sweep holds thousands of engine spans; the
useful view groups siblings by name.  :func:`aggregate_tree` folds a
span list into a tree of :class:`SpanGroup` nodes — per (parent, name):
call count, total seconds, share of the root's wall clock —
and :func:`render_span_tree` prints it::

    cli.relations                                1x  0.412s 100.0%
      batch.relations                            1x  0.401s  97.3%
        batch.chunk                              2x  0.388s  94.2%
          engine.sweep.relation               9900x  0.301s  73.1%

:func:`hot_paths` flattens the same trace into per-name totals of
**self time** (time not attributed to child spans), the quickest answer
to "where did the time actually go".  Both power the CLI's
``cardirect profile`` subcommand.

:func:`event_records` reads the same trace as a list of moments — the
records ``cardirect --events FILE`` writes: a ``slow_op`` warning per
span over its budget, and a ``batch.worker_lost`` warning per lost
pool dispatch.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.metrics import EXPORT_QUANTILES, QuantileReservoir
from repro.obs.trace import Span

#: Environment variable: default slow-op budget in seconds.
ENV_SLOW_OP_BUDGET = "REPRO_SLOW_OP_BUDGET"

#: Environment variable: JSON object of span-name → budget seconds.
ENV_SLOW_OP_BUDGETS = "REPRO_SLOW_OP_BUDGETS"

#: The record name of a span over its budget.
SLOW_OP = "slow_op"

#: The zero-length marker span ``batch_relations`` records for each pool
#: dispatch lost to a worker crash or timeout.
WORKER_LOST = "batch.worker_lost"


class SpanGroup:
    """All same-named spans sharing one parent group, folded together."""

    __slots__ = ("name", "count", "seconds", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.seconds = 0.0
        self.children: Dict[str, "SpanGroup"] = {}

    def child(self, name: str) -> "SpanGroup":
        group = self.children.get(name)
        if group is None:
            group = self.children[name] = SpanGroup(name)
        return group


def aggregate_tree(spans: Sequence[Span]) -> SpanGroup:
    """Fold spans into a tree of name-grouped nodes under a virtual root.

    Spans whose parent id is unknown (roots, or orphans from a
    truncated trace) attach to the virtual root.  The virtual root's
    ``seconds`` is the sum of its children — the denominator for the
    percentage column.
    """
    by_id = {span.span_id: span for span in spans}
    root = SpanGroup("<trace>")
    # Resolve each span's chain of ancestor *names* so equal shapes fold.
    group_of: Dict[str, SpanGroup] = {}

    def resolve(span: Span) -> SpanGroup:
        cached = group_of.get(span.span_id)
        if cached is not None:
            return cached
        parent = by_id.get(span.parent_id) if span.parent_id else None
        parent_group = resolve(parent) if parent is not None else root
        group = parent_group.child(span.name)
        group_of[span.span_id] = group
        return group

    for span in spans:
        group = resolve(span)
        group.count += 1
        group.seconds += span.seconds or 0.0
    root.seconds = sum(child.seconds for child in root.children.values())
    root.count = 1
    return root


def render_span_tree(
    spans: Sequence[Span],
    *,
    min_percent: float = 0.0,
    indent: int = 2,
) -> str:
    """The aggregated tree as aligned text, hottest branches first."""
    root = aggregate_tree(spans)
    total = root.seconds or 1e-12
    lines: List[Tuple[str, int, float, float]] = []

    def walk(group: SpanGroup, depth: int) -> None:
        share = 100.0 * group.seconds / total
        if share < min_percent and depth > 0:
            return
        if depth > 0:  # the virtual root is implicit
            lines.append(
                (" " * indent * (depth - 1) + group.name, group.count,
                 group.seconds, share)
            )
        for child in sorted(
            group.children.values(), key=lambda g: -g.seconds
        ):
            walk(child, depth + 1)

    walk(root, 0)
    if not lines:
        return "(empty trace)"
    width = max(len(label) for label, *_ in lines)
    return "\n".join(
        f"{label:<{width}}  {count:>8}x  {seconds:>9.3f}s  {share:>5.1f}%"
        for label, count, seconds, share in lines
    )


def hot_paths(
    spans: Sequence[Span], *, top: Optional[int] = None
) -> List[Tuple[str, float, float, int]]:
    """Per-name self-time totals: ``(name, self_seconds, percent, count)``.

    Self time is a span's duration minus its direct children's — the
    time spent *in* that layer rather than below it — clamped at zero
    (bulk engine spans recorded post-hoc can slightly overlap their
    parent's clock).  Percentages are of the whole trace's self time.
    """
    child_seconds: Dict[str, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_seconds[span.parent_id] = (
                child_seconds.get(span.parent_id, 0.0) + (span.seconds or 0.0)
            )
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for span in spans:
        own = (span.seconds or 0.0) - child_seconds.get(span.span_id, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + max(own, 0.0)
        counts[span.name] = counts.get(span.name, 0) + 1
    grand_total = sum(totals.values()) or 1e-12
    ranked = sorted(totals.items(), key=lambda item: -item[1])
    if top is not None:
        ranked = ranked[:top]
    return [
        (name, seconds, 100.0 * seconds / grand_total, counts[name])
        for name, seconds in ranked
    ]


def render_hot_paths(
    spans: Sequence[Span], *, top: Optional[int] = 10
) -> str:
    """The :func:`hot_paths` table as aligned text."""
    rows = hot_paths(spans, top=top)
    if not rows:
        return "(empty trace)"
    width = max(len(name) for name, *_ in rows)
    return "\n".join(
        f"{name:<{width}}  {seconds:>9.3f}s  {share:>5.1f}%  ({count}x)"
        for name, seconds, share, count in rows
    )


def span_quantiles(
    spans: Sequence[Span],
    *,
    quantiles: Sequence[float] = EXPORT_QUANTILES,
) -> List[Tuple[str, int, Dict[str, float]]]:
    """Per-name duration quantiles: ``(name, count, {"0.5": p50, ...})``.

    Durations feed the same deterministic reservoir
    (:class:`repro.obs.metrics.QuantileReservoir`) the metrics
    histograms use, so a trace-derived p95 and a histogram-derived p95
    of the same operation agree on method.  Rows are sorted by count
    descending — the most-called operations are the ones whose tail
    matters.
    """
    reservoirs: Dict[str, QuantileReservoir] = {}
    counts: Dict[str, int] = {}
    for span in spans:
        if span.seconds is None:
            continue
        reservoir = reservoirs.get(span.name)
        if reservoir is None:
            reservoir = reservoirs[span.name] = QuantileReservoir()
        reservoir.observe(span.seconds)
        counts[span.name] = counts.get(span.name, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [
        (name, count, reservoirs[name].quantiles(quantiles))
        for name, count in ranked
    ]


def render_span_quantiles(
    spans: Sequence[Span], *, top: Optional[int] = 10
) -> str:
    """The :func:`span_quantiles` table as aligned text (ms columns)."""
    rows = span_quantiles(spans)
    if top is not None:
        rows = rows[:top]
    if not rows:
        return "(empty trace)"
    width = max(len(name) for name, *_ in rows)
    header = (
        f"{'span':<{width}}  {'count':>8}  {'p50':>10}  {'p95':>10}  "
        f"{'p99':>10}"
    )
    lines = [header]
    for name, count, values in rows:
        p50 = values.get("0.5", 0.0) * 1e3
        p95 = values.get("0.95", 0.0) * 1e3
        p99 = values.get("0.99", 0.0) * 1e3
        lines.append(
            f"{name:<{width}}  {count:>8}  {p50:>8.3f}ms  {p95:>8.3f}ms  "
            f"{p99:>8.3f}ms"
        )
    return "\n".join(lines)


def budgets_from_env() -> Tuple[Dict[str, float], Optional[float]]:
    """``(per-span budgets, default budget)`` from the environment.

    Malformed values are ignored — the env knobs tune diagnostics and
    must never be able to crash the run they would have observed.
    """
    default: Optional[float] = None
    raw_default = os.environ.get(ENV_SLOW_OP_BUDGET)
    if raw_default:
        try:
            value = float(raw_default)
        except ValueError:
            value = -1.0
        if value >= 0.0:
            default = value
    budgets: Dict[str, float] = {}
    raw_budgets = os.environ.get(ENV_SLOW_OP_BUDGETS)
    if raw_budgets:
        try:
            parsed = json.loads(raw_budgets)
        except json.JSONDecodeError:
            parsed = None
        if isinstance(parsed, dict):
            for name, seconds in parsed.items():
                try:
                    budgets[str(name)] = float(seconds)
                except (TypeError, ValueError):
                    continue
    return budgets, default


def event_records(spans: Sequence[Span]) -> Iterator[Dict[str, object]]:
    """The trace's moments as JSON-able records, in trace order.

    A ``batch.worker_lost`` marker span yields a record with its
    attributes, linked to the span that was open when it was recorded.
    Every other finished span that ran longer than its budget
    (:func:`budgets_from_env`: a per-name budget, else the default)
    yields a ``slow_op`` record linked to that span.  Each record keeps
    its span's worker tag.
    """
    budgets, default = budgets_from_env()
    for span in spans:
        if span.name == WORKER_LOST:
            name, link, stamp = WORKER_LOST, span.parent_id, span.start
            attributes = dict(span.attributes)
        else:
            budget = budgets.get(span.name, default)
            if budget is None or span.seconds is None or span.seconds <= budget:
                continue
            name, link, stamp = SLOW_OP, span.span_id, span.start + span.seconds
            attributes = {
                "span": span.name,
                "seconds": round(span.seconds, 6),
                "budget": budget,
            }
        record: Dict[str, object] = {
            "name": name,
            "severity": "warning",
            "time": stamp,
        }
        if link is not None:
            record["span"] = link
        if span.worker is not None:
            record["worker"] = span.worker
        if attributes:
            record["attrs"] = attributes
        yield record
