"""``repro.obs`` — zero-dependency observability: spans and counters.

The library's hot paths call three hooks — :func:`span`, :func:`inc`,
:func:`add_event` — all guarded by ONE module-level flag, ``_active``.
When instrumentation is disabled (the default) every hook is a
constant-time no-op: one global read, one branch, no allocation
(``span`` returns a shared :class:`NoopSpan`).
The overhead of the disabled path is priced by the ``obs_overhead``
microbenchmark and pinned below 2% by ``tests/obs/test_overhead.py``.

Determinism contract: instrumentation observes, it never participates.
Spans and counters do not enter cache fingerprints, do not touch any
float the models produce, and do not reorder work — the differential
checker's ``traced`` cell asserts a traced run is bit-identical to the
untraced reference.

One process, one thread: the pipeline parallelises only through process
pools, so the span stack and the metrics registry are plain module
state with no locks.

Worker protocol: tracing is per-process (workers do not stream spans),
but counters cross executor boundaries.  With metrics on,
:meth:`repro.runtime.executor.ProcessExecutor.map` wraps each task in a
:class:`~repro.obs.metrics.MetricsTask`, so it records into its own
registry and returns ``(result, snapshot)``; the snapshots are merged
back in the *ordered* map's input order, so merged counter totals equal
a serial run's exactly.  The process-pool bootstrap
(:func:`repro.runtime.executor._worker_bootstrap`) replays the metrics
switch into spawned workers, the same discipline as the sanitizer.

Typical usage::

    with obs.capture() as cap:
        run_workload()
    export.write_trace(cap.tracer, "run.chrome.json")
    export.write_metrics(cap.registry.snapshot(), "metrics.json")
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs import metrics as _metrics_mod
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, current_registry
from repro.obs.tracing import NoopSpan, Span, Tracer, current_span

__all__ = [
    "Capture",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NoopSpan",
    "Span",
    "Tracer",
    "add_event",
    "capture",
    "current_registry",
    "current_span",
    "inc",
    "metrics_active",
    "obs_disable",
    "obs_enable",
    "span",
    "suspended",
    "tracing_active",
]

#: THE master switch.  Every hook reads this first; False short-circuits
#: before any other state is touched, so the disabled path costs one
#: global load and one branch.
_active: bool = False

#: Sub-switches, only consulted when ``_active`` is already True.
_trace_on: bool = False
_metrics_on: bool = False

#: The tracer collecting spans while tracing is on.
_tracer: Tracer | None = None

#: The shared disabled-path span (stateless, so reuse is safe).
_NOOP = NoopSpan()


# --------------------------------------------------------------------- #
# the hot hooks
# --------------------------------------------------------------------- #


def span(name: str, **attrs: object) -> "Span | NoopSpan":
    """Open a traced region::

        with obs.span("perf.solve", sc=i) as sp:
            ...
            sp.set(iterations=n)

    Disabled: returns the shared no-op span."""
    if not _active or not _trace_on:
        return _NOOP
    tracer = _tracer
    if tracer is None:
        return _NOOP
    return tracer.span(name, dict(attrs))


def inc(name: str, value: int = 1) -> None:
    """Add ``value`` to the counter ``name`` (no-op when disabled)."""
    if not _active or not _metrics_on:
        return
    _metrics_mod.current_registry().inc(name, value)


def add_event(kind: str, time: float | None = None, **fields: object) -> None:
    """Attach a point event to the innermost open span, if any.

    This is how the simulator's :class:`~repro.sim.trace.TraceRecorder`
    events reach the span tree."""
    if not _active or not _trace_on:
        return
    open_span = current_span()
    if open_span is not None:
        open_span.event(kind, time, tuple(sorted(fields.items())))


# --------------------------------------------------------------------- #
# switches
# --------------------------------------------------------------------- #


def tracing_active() -> bool:
    """Whether span hooks currently record."""
    return _active and _trace_on


def metrics_active() -> bool:
    """Whether metric hooks currently record."""
    return _active and _metrics_on


def obs_enable(tracing: bool = True, metrics: bool = True) -> None:
    """Turn instrumentation on for this process.

    A fresh :class:`Tracer` is installed when tracing is requested and
    none exists yet.  The process-pool worker bootstrap replays the
    *metrics* switch into spawned workers (tracing is per-process by
    design).
    """
    global _active, _trace_on, _metrics_on, _tracer
    _trace_on = bool(tracing)
    _metrics_on = bool(metrics)
    if _trace_on and _tracer is None:
        _tracer = Tracer()
    _active = _trace_on or _metrics_on


def obs_disable() -> None:
    """Turn instrumentation off for this process (tracer kept)."""
    global _active, _trace_on, _metrics_on
    _active = False
    _trace_on = False
    _metrics_on = False


@dataclass(frozen=True)
class Capture:
    """The tracer and registry of one :func:`capture` block."""

    tracer: Tracer
    registry: MetricsRegistry

    def snapshot(self) -> MetricsSnapshot:
        """The captured metrics, frozen."""
        return self.registry.snapshot()


@contextmanager
def capture(
    tracing: bool = True,
    metrics: bool = True,
    max_span_events: int = 10_000,
) -> Iterator[Capture]:
    """Enable instrumentation with a fresh tracer/registry for one block.

    Previous switch state (including a surrounding capture) is restored
    on exit, so captures nest and tests never leak state.
    """
    global _active, _trace_on, _metrics_on, _tracer
    tracer = Tracer(max_span_events=max_span_events)
    registry = MetricsRegistry()
    saved = (_active, _trace_on, _metrics_on, _tracer)
    previous_registry = _metrics_mod.install_registry(registry)
    _tracer = tracer
    _trace_on = bool(tracing)
    _metrics_on = bool(metrics)
    _active = _trace_on or _metrics_on
    try:
        yield Capture(tracer=tracer, registry=registry)
    finally:
        _metrics_mod.install_registry(previous_registry)
        _active, _trace_on, _metrics_on, _tracer = saved


@contextmanager
def suspended() -> Iterator[None]:
    """Temporarily disable all instrumentation (restores on exit).

    The overhead benchmark uses this to price the disabled path while
    running inside an enabled capture."""
    global _active
    saved = _active
    _active = False
    try:
        yield
    finally:
        _active = saved
