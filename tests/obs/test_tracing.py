"""Tests for the span tracer: nesting, attributes, events, exports."""

from __future__ import annotations

import pytest

from repro import obs
from repro.exceptions import ConfigurationError
from repro.obs import export
from repro.obs.tracing import NoopSpan, Tracer


class TestDisabledPath:
    def test_span_is_shared_noop(self):
        first = obs.span("a")
        second = obs.span("b", attr=1)
        assert isinstance(first, NoopSpan)
        assert first is second  # one shared stateless instance

    def test_noop_span_supports_full_protocol(self):
        with obs.span("anything", x=1) as sp:
            sp.set(y=2)
            sp.event("kind", 0.0)
        obs.add_event("kind", 1.0, detail="ignored")

    def test_hooks_are_noops(self):
        obs.inc("c")
        assert not obs.tracing_active()
        assert not obs.metrics_active()


class TestSpans:
    def test_nesting_builds_a_tree(self):
        with obs.capture(metrics=False) as cap:
            with obs.span("root"):
                with obs.span("child"):
                    with obs.span("leaf"):
                        pass
                with obs.span("child2"):
                    pass
        (root,) = cap.tracer.roots
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child", "child2"]
        assert [c.name for c in root.children[0].children] == ["leaf"]
        assert cap.tracer.span_count == 4

    def test_attributes_and_set(self):
        with obs.capture(metrics=False) as cap:
            with obs.span("solve", sc=3) as sp:
                sp.set(iterations=17)
        (root,) = cap.tracer.roots
        assert root.attrs == {"sc": 3, "iterations": 17}

    def test_durations_recorded(self):
        with obs.capture(metrics=False) as cap:
            with obs.span("timed"):
                pass
        (root,) = cap.tracer.roots
        assert root.duration >= 0.0
        assert root.cpu_seconds >= 0.0

    def test_error_annotated_and_propagated(self):
        with obs.capture(metrics=False) as cap:
            with pytest.raises(ValueError):
                with obs.span("failing"):
                    raise ValueError("boom")
        (root,) = cap.tracer.roots
        assert root.attrs["error"] == "ValueError"

    def test_events_attach_to_innermost_span(self):
        with obs.capture(metrics=False) as cap:
            with obs.span("outer"):
                with obs.span("inner"):
                    obs.add_event("arrival", 1.5, sc=0)
        (root,) = cap.tracer.roots
        assert root.events == []
        (event,) = root.children[0].events
        assert event == ("arrival", 1.5, (("sc", 0),))

    def test_event_cap_counts_drops(self):
        with obs.capture(metrics=False, max_span_events=2) as cap:
            with obs.span("bounded"):
                for i in range(5):
                    obs.add_event("tick", float(i))
        (root,) = cap.tracer.roots
        assert len(root.events) == 2
        assert root.dropped_events == 3

    def test_capture_restores_previous_state(self):
        assert not obs.tracing_active()
        with obs.capture(metrics=False):
            assert obs.tracing_active()
            with obs.capture(metrics=False) as inner:
                with obs.span("nested"):
                    pass
            assert inner.tracer.span_count == 1
            assert obs.tracing_active()
        assert not obs.tracing_active()

    def test_suspended_disables_and_restores(self):
        with obs.capture(metrics=False) as cap:
            with obs.suspended():
                with obs.span("invisible"):
                    pass
            with obs.span("visible"):
                pass
        assert [r.name for r in cap.tracer.roots] == ["visible"]

    def test_tracer_validates_event_cap(self):
        with pytest.raises(ConfigurationError):
            Tracer(max_span_events=0)


class TestExports:
    def _traced(self):
        with obs.capture(metrics=False) as cap:
            with obs.span("root", k=2):
                with obs.span("child"):
                    obs.add_event("tick", 0.5, sc=1)
        return cap.tracer

    def test_json_tree(self):
        tree = export.tracer_to_dict(self._traced())
        assert tree["format"] == "repro.obs.trace"
        assert tree["span_count"] == 2
        (root,) = tree["spans"]
        assert root["name"] == "root"
        assert root["attrs"] == {"k": 2}
        (child,) = root["children"]
        assert child["events"] == [{"kind": "tick", "time": 0.5, "sc": 1}]

    def test_chrome_trace(self):
        chrome = export.chrome_trace(self._traced())
        names = [event["name"] for event in chrome["traceEvents"]]
        assert names == ["root", "child"]
        for event in chrome["traceEvents"]:
            assert event["ph"] == "X"
            assert (event["pid"], event["tid"]) == (0, 0)
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0

    def test_folded_stacks(self):
        lines = export.folded(self._traced())
        stacks = [line.rsplit(" ", 1)[0] for line in lines]
        assert stacks == ["root", "root;child"]

    def test_write_trace_dispatches_on_extension(self, tmp_path):
        tracer = self._traced()
        tree = export.write_trace(tracer, tmp_path / "t.json")
        chrome = export.write_trace(tracer, tmp_path / "t.chrome.json")
        folded = export.write_trace(tracer, tmp_path / "t.folded")
        assert '"repro.obs.trace"' in tree.read_text()
        assert '"traceEvents"' in chrome.read_text()
        assert folded.read_text().startswith("root ")
