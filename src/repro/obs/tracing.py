"""Hierarchical tracing spans for the observability layer.

A :class:`Span` measures one region of work — a game round, a chain
solve, an executor map — and carries a wall-clock timestamp, a
perf-counter duration, a CPU-time duration, structured attributes, and a
bounded list of point events (the simulator's trace events attach here).
Spans nest through one module-level stack: entering a span pushes it,
exiting pops it and attaches it to its parent (or to the
:class:`Tracer`'s roots when it is outermost), so a traced run yields a
tree that mirrors the dynamic call structure.

Design constraints:

- **One thread per process** — the pipeline runs single-threaded and
  parallelises through process pools only, so the span stack is a plain
  list and the tracer takes no lock.
- **Determinism** — spans are observers only.  They never feed cache
  fingerprints, never reorder work, and carry no randomness; the *shape*
  of the tree (names, nesting, counts) is a pure function of the traced
  workload, which is what the golden-trace tests pin down.
- **Process pools** — tracing is per-process: worker processes do not
  stream spans back, they contribute *metrics* snapshots instead (see
  :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import time
from types import TracebackType

from repro._validation import check_positive_int

__all__ = ["NoopSpan", "Span", "Tracer", "current_span"]

#: Fields of one point event attached to a span: (kind, time, fields).
EventTuple = tuple[str, "float | None", tuple[tuple[str, object], ...]]


#: The open spans, outermost first.
_stack: list["Span"] = []


def current_span() -> "Span | None":
    """The innermost open span, or ``None``."""
    return _stack[-1] if _stack else None


class Span:
    """One timed, attributed region of a traced run.

    Built by :meth:`Tracer.span`; use as a context manager.  ``__slots__``
    and skipped validation are deliberate: span creation sits on the hot
    path of every instrumented solve, and the tracer only constructs
    spans from already-validated arguments.
    """

    __slots__ = (
        "name",
        "attrs",
        "children",
        "events",
        "dropped_events",
        "start_wall",
        "start_perf",
        "start_cpu",
        "duration",
        "cpu_seconds",
        "_tracer",
    )

    def __init__(  # repro: noqa[RPR104]
        self, tracer: "Tracer", name: str, attrs: dict[str, object]
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.events: list[EventTuple] = []
        self.dropped_events = 0
        self.start_wall = 0.0
        self.start_perf = 0.0
        self.start_cpu = 0.0
        self.duration = 0.0
        self.cpu_seconds = 0.0

    def __enter__(self) -> "Span":
        _stack.append(self)
        self.start_wall = time.time()
        self.start_cpu = time.process_time()
        self.start_perf = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.duration = time.perf_counter() - self.start_perf
        self.cpu_seconds = time.process_time() - self.start_cpu
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        if _stack and _stack[-1] is self:
            _stack.pop()
        parent = _stack[-1] if _stack else None
        self._tracer._finish(self, parent)

    def set(self, **attrs: object) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def event(
        self,
        kind: str,
        time: float | None = None,
        fields: tuple[tuple[str, object], ...] = (),
    ) -> None:
        """Attach one point event, subject to the tracer's per-span cap."""
        if len(self.events) >= self._tracer.max_span_events:
            self.dropped_events += 1
            return
        self.events.append((kind, time, fields))


class NoopSpan:
    """The disabled-path span: every operation is a constant no-op.

    A single shared instance is returned by :func:`repro.obs.span` when
    tracing is off, so the disabled hook allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None

    def set(self, **attrs: object) -> None:
        return None

    def event(
        self,
        kind: str,
        time: float | None = None,
        fields: tuple[tuple[str, object], ...] = (),
    ) -> None:
        return None


class Tracer:
    """Collects the span forest of one traced run.

    Args:
        max_span_events: per-span cap on attached point events (the same
            bounded-capture discipline as
            :class:`repro.sim.trace.TraceRecorder`).
    """

    def __init__(self, max_span_events: int = 10_000) -> None:
        self.max_span_events = check_positive_int(
            max_span_events, "max_span_events"
        )
        self.start_wall = time.time()
        self.start_perf = time.perf_counter()
        self.roots: list[Span] = []
        self.span_count = 0

    def span(self, name: str, attrs: dict[str, object]) -> Span:
        """Create an (unopened) span; enter it with a ``with`` statement."""
        return Span(self, name, attrs)

    def _finish(self, span: Span, parent: Span | None) -> None:
        """Record a completed span under its parent or as a root."""
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self.span_count += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer(roots={len(self.roots)}, spans={self.span_count})"
