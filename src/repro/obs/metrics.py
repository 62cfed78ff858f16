"""Metrics registry: named integer counters.

The registry is the write side; a :class:`MetricsSnapshot` is the read
side — a frozen, picklable, deterministically-ordered value.  Snapshots
are how counters cross process boundaries: a task shipped to a process
executor records into its own scoped registry (:class:`MetricsTask`),
returns ``(result, snapshot)``, and the caller folds the snapshots back
with :meth:`MetricsRegistry.merge_snapshot` in the executor's *ordered*
map.  Counters add, and integer addition is exact under any grouping, so
the merged totals equal a serial run's totals exactly.

Each process runs one thread, so the registry takes no lock and the
scope stack is a plain module-level list.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro._validation import require

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "MetricsTask",
    "current_registry",
    "scoped_registry",
]


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen, picklable view of one registry's counters.

    Entries are sorted by name, so two snapshots with the same content
    compare (and pickle) identically regardless of recording order.
    """

    counters: tuple[tuple[str, int], ...]

    def counter_view(self) -> dict[str, int]:
        """The counters as a dict: the integer-exact, backend-independent
        view the differential checker compares across executor backends."""
        return dict(self.counters)

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly rendering of the whole snapshot."""
        return {"counters": self.counter_view()}


class MetricsRegistry:
    """Recording side of the metrics layer.

    The hooks in :mod:`repro.obs` only reach a registry when
    instrumentation is enabled.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._recordings = 0

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + value
        self._recordings += 1

    def recordings(self) -> int:
        """Number of recording calls served (the hook-crossing count the
        overhead benchmark uses to price the disabled path)."""
        return self._recordings

    def snapshot(self) -> MetricsSnapshot:
        """A frozen view of the counters recorded so far."""
        return MetricsSnapshot(counters=tuple(sorted(self._counters.items())))

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a worker's snapshot into this registry.

        Counter totals end up exactly equal to a serial run that had
        recorded the same events directly."""
        for name, value in snapshot.counters:
            self._counters[name] = self._counters.get(name, 0) + value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry(counters={len(self._counters)})"


# --------------------------------------------------------------------- #
# ambient registry: one installed default, scoped overrides
# --------------------------------------------------------------------- #

_installed: MetricsRegistry = MetricsRegistry()

#: Registries opened by :func:`scoped_registry`, outermost first.
_scopes: list[MetricsRegistry] = []


def current_registry() -> MetricsRegistry:
    """The registry hooks record into: the innermost scoped registry,
    else the installed default."""
    return _scopes[-1] if _scopes else _installed


def install_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the installed default registry; returns the previous one.

    Used by :func:`repro.obs.capture` around a with-block; worker
    processes never call this — each gets its own module state.
    """
    global _installed
    previous = _installed
    _installed = registry
    return previous


@contextmanager
def scoped_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Route recordings to ``registry`` inside the block."""
    _scopes.append(registry)
    try:
        yield registry
    finally:
        _scopes.pop()


class MetricsTask:
    """Picklable task wrapper implementing the worker merge protocol.

    Wraps ``fn`` so each item runs under a fresh scoped registry and
    returns ``(result, snapshot)``; the caller
    (:meth:`repro.runtime.executor.ProcessExecutor.map`) merges the
    snapshots back in input order.  ``fn`` must itself be picklable for process pools —
    the same constraint the executor already imposes.
    """

    def __init__(self, fn: Any) -> None:
        require(callable(fn), "MetricsTask wraps a callable")
        self.fn = fn

    def __call__(self, item: Any) -> tuple[Any, MetricsSnapshot]:
        registry = MetricsRegistry()
        with scoped_registry(registry):
            result = self.fn(item)
        return result, registry.snapshot()
