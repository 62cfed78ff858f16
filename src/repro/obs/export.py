"""Span-tree and metrics exporters.

Three trace formats, dispatched by file extension in
:func:`write_trace`:

- ``*.folded`` — flamegraph-folded lines (``root;child;leaf <us>``,
  value = *self* time in integer microseconds), ready for
  ``flamegraph.pl`` or speedscope;
- ``*.chrome.json`` — Chrome ``trace_event`` complete events, loadable
  in ``chrome://tracing`` / Perfetto;
- anything else — the native JSON span tree (names, attributes,
  timings, events, children).

All exports are pure functions of the tracer: they never mutate spans
and are safe to call while instrumentation is still enabled (after the
traced work finished).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import MetricsSnapshot
from repro.obs.tracing import Span, Tracer

__all__ = [
    "chrome_trace",
    "folded",
    "span_to_dict",
    "tracer_to_dict",
    "write_metrics",
    "write_trace",
]


def span_to_dict(span: Span) -> dict[str, object]:
    """The native JSON rendering of one span subtree."""
    return {
        "name": span.name,
        "attrs": {key: span.attrs[key] for key in sorted(span.attrs)},
        "start_wall": span.start_wall,
        "duration_seconds": span.duration,
        "cpu_seconds": span.cpu_seconds,
        "events": [
            {"kind": kind, "time": time, **dict(fields)}
            for kind, time, fields in span.events
        ],
        "dropped_events": span.dropped_events,
        "children": [span_to_dict(child) for child in span.children],
    }


def tracer_to_dict(tracer: Tracer) -> dict[str, object]:
    """The native JSON rendering of the whole span forest."""
    return {
        "format": "repro.obs.trace",
        "version": 1,
        "start_wall": tracer.start_wall,
        "span_count": tracer.span_count,
        "spans": [span_to_dict(root) for root in tracer.roots],
    }


def chrome_trace(tracer: Tracer) -> dict[str, object]:
    """Chrome ``trace_event`` rendering (complete ``"X"`` events)."""
    events: list[dict[str, object]] = []

    def emit(span: Span) -> None:
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start_perf - tracer.start_perf) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {key: span.attrs[key] for key in sorted(span.attrs)},
            }
        )
        for child in span.children:
            emit(child)

    for root in tracer.roots:
        emit(root)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def folded(tracer: Tracer) -> list[str]:
    """Flamegraph-folded lines; value = self time in microseconds.

    Identical stacks are aggregated and the output is sorted, so the
    rendering is deterministic for a given tree."""
    totals: dict[str, int] = {}

    def walk(span: Span, prefix: str) -> None:
        stack = f"{prefix};{span.name}" if prefix else span.name
        child_time = sum(child.duration for child in span.children)
        self_us = int(max(span.duration - child_time, 0.0) * 1e6)
        totals[stack] = totals.get(stack, 0) + self_us
        for child in span.children:
            walk(child, stack)

    for root in tracer.roots:
        walk(root, "")
    return [f"{stack} {value}" for stack, value in sorted(totals.items())]


def write_trace(tracer: Tracer, path: str | Path) -> Path:
    """Write the trace to ``path`` in the extension-selected format."""
    path = Path(path)
    if path.suffix == ".folded":
        path.write_text("\n".join(folded(tracer)) + "\n")
    elif path.name.endswith(".chrome.json"):
        # The chrome trace_event schema is fixed by the viewer; it has
        # no slot for our own format-version marker.
        path.write_text(json.dumps(chrome_trace(tracer), indent=2) + "\n")
    else:
        path.write_text(
            json.dumps(tracer_to_dict(tracer), indent=2, sort_keys=True) + "\n"
        )
    return path


def write_metrics(snapshot: MetricsSnapshot, path: str | Path) -> Path:
    """Write a metrics snapshot to ``path`` as JSON (version 2: counters only)."""
    path = Path(path)
    payload = {
        "format": "repro.obs.metrics",
        "version": 2,
        **snapshot.to_dict(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
