"""The event-heap oracle for the simulation engine.

:class:`repro.sim.engine.SimulationEngine` orders plain list entries on
one heap and dispatches typed events without closures.  This module
keeps the plain reference it is checked against: one heap of
:class:`OracleEvent` objects, ordered by ``(time, priority, sequence)``
through ``__lt__`` and popped one at a time, with typed events as
closures calling ``typed_dispatch``.

:class:`ScalarExponential` and :class:`ScalarUniform` stand in for the
simulator's pre-drawn RNG blocks with one scalar generator call per
draw.  :func:`patched` installs all three into
:mod:`repro.sim.federation`, so a :class:`FederationSimulator` built
inside it runs entirely on the oracle path::

    with event_oracle.patched():
        reference = FederationSimulator(scenario, seed=3).run(horizon=100.0)
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.exceptions import SimulationError


class OracleEvent:
    """A heap event ordered by (time, priority, sequence)."""

    __slots__ = ("time", "priority", "sequence", "callback", "cancelled")

    def __init__(
        self, time: float, priority: int, sequence: int, callback: Callable[[], None]
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False

    def __lt__(self, other: "OracleEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.sequence < other.sequence

    def cancel(self) -> None:
        self.cancelled = True


class OracleEngine:
    """The engine's public surface on a one-event-at-a-time heap."""

    def __init__(self) -> None:
        self._heap: list[OracleEvent] = []
        self._seq = 0
        self.now = 0.0
        self.events_executed = 0
        self.typed_dispatch: Callable[[int, int, int], None] | None = None

    def schedule(
        self, delay: float, callback: Callable[[], None], priority: int = 0
    ) -> OracleEvent:
        if not delay >= 0.0:
            raise SimulationError(f"cannot schedule in the past or at NaN (delay={delay})")
        event = OracleEvent(self.now + delay, priority, self._seq, callback)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> OracleEvent:
        return self.schedule(time - self.now, callback, priority)

    def schedule_typed(
        self, delay: float, code: int, a: int = 0, b: int = 0, priority: int = 0
    ) -> None:
        def typed() -> None:
            if self.typed_dispatch is None:
                raise SimulationError("typed event scheduled without a typed_dispatch")
            self.typed_dispatch(code, a, b)

        self.schedule(delay, typed, priority)

    def peek_time(self) -> float | None:
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        return heap[0].time if heap else None

    def step(self) -> bool:
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if event.cancelled:
                continue
            if event.time < self.now - 1e-9:
                raise SimulationError("event heap produced an out-of-order event")
            self.now = max(self.now, event.time)
            self.events_executed += 1
            event.callback()
            return True
        return False

    def run_until(self, horizon: float) -> None:
        if not horizon >= self.now:
            raise SimulationError(f"horizon {horizon} is in the past or NaN (now={self.now})")
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time >= horizon:
                break
            self.step()
        self.now = max(self.now, horizon)


class ScalarExponential:
    """``ExponentialBlock`` as one ``generator.exponential`` call per draw."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def next(self, scale: float) -> float:
        return float(self._rng.exponential(scale))


class ScalarUniform:
    """``UniformBlock`` as one ``generator.random`` call per draw."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def next(self) -> float:
        return float(self._rng.random())


@contextmanager
def patched() -> Iterator[None]:
    """Run every simulator built inside on the oracle engine and draws."""
    with mock.patch.multiple(
        "repro.sim.federation",
        SimulationEngine=OracleEngine,
        ExponentialBlock=ScalarExponential,
        UniformBlock=ScalarUniform,
    ):
        yield
