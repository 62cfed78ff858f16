"""Generic discrete-event simulation core.

A small, dependency-free event core with one event source: a binary heap
of plain lists ``[time, priority, sequence, event, code, a, b]``, so heap
maintenance compares floats at C speed instead of calling a Python
``__lt__``.  Callback events carry an :class:`Event` cancel handle in the
``event`` slot; *typed* events leave it ``None`` and are dispatched as
``typed_dispatch(code, a, b)`` through one bound method, with no
per-event closure allocation.

Events execute in the total order ``(time, priority, sequence)``: ties
in time break by priority (lower first), then by insertion order.  The
test suite keeps a plain event-heap engine (one :class:`Event` object
popped at a time) as the bitwise oracle for this order; the
engine-equivalence property suite
(``tests/property/test_engine_equivalence.py``) pins it.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro import obs
from repro.exceptions import SimulationError


class Event:
    """The cancel handle of a callback event returned by
    :meth:`SimulationEngine.schedule`.

    The engine orders its heap on list entries, never on ``Event``
    objects, so the handle only carries the callback, its schedule key
    (time, priority, sequence) and the cancellation flag.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "cancelled")

    # Validation is skipped deliberately: the engine only builds events
    # from already-validated schedule() arguments.
    def __init__(  # repro: noqa[RPR104]
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[[], None],
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark this event as cancelled; it will be skipped when popped."""
        self.cancelled = True


class SimulationEngine:
    """An event simulator with deterministic tie-breaking (see the module
    docstring)."""

    def __init__(self) -> None:
        # A heap of [time, priority, seq, event, code, a, b] lists: lists
        # compare element-wise at C speed, and seq is unique so the
        # trailing payload slots are never compared.
        self._heap: list = []
        self._seq = 0
        self.now = 0.0
        self.events_executed = 0
        #: Receiver of typed events, ``dispatch(code, a, b)``.  Installed
        #: by the simulator built on top of the engine (one bound method
        #: replaces per-event closures on the hot path).
        self.typed_dispatch: Callable[[int, int, int], None] | None = None

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def schedule(
        self, delay: float, callback: Callable[[], None], priority: int = 0
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now.

        Returns the :class:`Event`, which the caller may cancel.
        """
        # `not >=` also rejects NaN, which would otherwise sit in the
        # heap comparing false against every key.
        if not delay >= 0.0:
            raise SimulationError(f"cannot schedule in the past or at NaN (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        event = Event(
            time=self.now + delay,
            priority=priority,
            sequence=seq,
            callback=callback,
        )
        heapq.heappush(self._heap, [event.time, priority, seq, event, -1, 0, 0])
        return event

    def schedule_at(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        return self.schedule(time - self.now, callback, priority)

    # One call per scheduled simulator event.
    def schedule_typed(self, delay: float, code: int, a: int = 0, b: int = 0, priority: int = 0) -> None:
        """Schedule a typed event ``(code, a, b)``.

        Typed events dispatch through :attr:`typed_dispatch` and carry no
        callback or Event object — the allocation-free fast lane of the
        simulator.  They cannot be cancelled.
        """
        if not delay >= 0.0:
            raise SimulationError(f"cannot schedule in the past or at NaN (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, [self.now + delay, priority, seq, None, code, a, b])

    # ------------------------------------------------------------------ #
    # introspection and stepping
    # ------------------------------------------------------------------ #

    @property
    def pending(self) -> int:
        """Scheduled (possibly cancelled) events still waiting to run."""
        return len(self._heap)

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if everything is drained."""
        heap = self._heap
        while heap and heap[0][3] is not None and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Execute the next live event.  Returns False if none remain."""
        return self._drain(float("inf"), 1) == 1

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #

    def run_until(self, horizon: float) -> None:
        """Run until simulated time reaches ``horizon``.

        Events scheduled exactly at the horizon are *not* executed; the
        clock is advanced to the horizon on return so time-weighted
        statistics can be finalized consistently.
        """
        # `not >=` also rejects a NaN horizon, which no event time
        # compares at or beyond, so the run would never stop.
        if not horizon >= self.now:
            raise SimulationError(
                f"horizon {horizon} is in the past or NaN (now={self.now})"
            )
        executed = self._drain(horizon, -1)
        if executed:
            obs.inc("sim.engine.events", executed)
        self.now = max(self.now, horizon)

    def _drain(self, horizon: float, limit: int) -> int:
        """Pop and execute live events before ``horizon``, at most
        ``limit`` of them (-1: no limit); returns how many ran."""
        heap = self._heap
        heappop = heapq.heappop
        # Looked up once per drain: the simulator installs its receiver
        # before it schedules its first typed event.
        dispatch = self.typed_dispatch
        executed = 0
        try:
            while heap and executed != limit:
                entry = heap[0]
                event = entry[3]
                if event is not None and event.cancelled:
                    heappop(heap)
                    continue
                if entry[0] >= horizon:
                    break
                heappop(heap)
                # No entry lies behind the clock: a drain to a horizon
                # leaves only entries at or after it, and a step runs the
                # earliest entry.
                self.now = entry[0]
                executed += 1
                if event is not None:
                    event.callback()
                    continue
                if dispatch is None:
                    raise SimulationError("typed event scheduled without a typed_dispatch")
                dispatch(entry[4], entry[5], entry[6])
        finally:
            self.events_executed += executed
        return executed
