"""Generic discrete-event simulation core.

A small, dependency-free event core.  Heap entries are plain lists
``[time, priority, sequence, event, code, a, b]``, so heap maintenance
compares floats at C speed instead of calling a Python ``__lt__``.
Callbacks can be replaced by *typed* events dispatched through one bound
method (no per-event closure allocation), and bulk schedules
(:meth:`SimulationEngine.schedule_block`) keep pre-drawn event times in
sorted NumPy arrays that the run loop drains in tight runs — including
handing a whole run to a vectorized handler in one call.

Events execute in the total order ``(time, priority, sequence)``: ties
in time break by priority (lower first), then by insertion order, across
the heap and every block channel alike.  The test suite keeps a plain
event-heap engine (one :class:`Event` object popped at a time) as the
bitwise oracle for this order; the engine-equivalence property suite
(``tests/property/test_engine_equivalence.py``) pins it.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

import numpy as np

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


class _EventBlock:
    """A bulk-scheduled channel: sorted times, consumed front to back.

    Sequence numbers are the contiguous range ``[seq0, seq0 + n)`` so
    block events participate in the same global (time, priority,
    sequence) total order as individually scheduled ones.
    """

    __slots__ = ("times", "index", "priority", "seq0", "handler", "vectorized")

    def __init__(
        self,
        times: np.ndarray,
        priority: int,
        seq0: int,
        handler: Callable[..., None],
        vectorized: bool,
    ) -> None:
        self.times = times
        self.index = 0
        self.priority = priority
        self.seq0 = seq0
        self.handler = handler
        self.vectorized = vectorized

    @property
    def remaining(self) -> int:
        return len(self.times) - self.index


class SimulationEngine:
    """An event simulator with deterministic tie-breaking (see the module
    docstring)."""

    def __init__(self) -> None:
        # A heap of [time, priority, seq, event, code, a, b] lists: lists
        # compare element-wise at C speed, and seq is unique so the
        # trailing payload slots are never compared.
        self._heap: list = []
        self._blocks: list[_EventBlock] = []
        self._seq = 0
        self.now = 0.0
        self.events_executed = 0
        self.batches_executed = 0
        #: Receiver of typed events, ``dispatch(code, a, b)``.  Installed
        #: by the simulator built on top of the engine (one bound method
        #: replaces per-event closures on the hot path).
        self.typed_dispatch: Callable[[int, int, int], None] | None = None

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq = seq + 1
        return seq

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
        event = Event(
            time=self.now + delay,
            priority=priority,
            sequence=self._next_seq(),
            callback=callback,
        )
        heapq.heappush(
            self._heap, [event.time, priority, event.sequence, event, -1, 0, 0]
        )
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
        heapq.heappush(
            self._heap,
            [self.now + delay, priority, self._next_seq(), None, code, a, b],
        )

    def schedule_typed_at(self, time: float, code: int, a: int = 0, b: int = 0, priority: int = 0) -> None:
        """Typed scheduling at an absolute simulation time."""
        self.schedule_typed(time - self.now, code, a, b, priority)

    def schedule_block(
        self,
        offsets: "np.ndarray | list[float]",
        handler: Callable[..., None],
        priority: int = 0,
        vectorized: bool = False,
    ) -> int:
        """Bulk-schedule events at ``now + offsets`` (non-decreasing).

        ``handler`` is called per event with the event time — or, when
        ``vectorized`` is true, once per drained run with a read-only
        NumPy slice of consecutive times (the drain hands over every
        event of the run in one call).

        Returns the number of events scheduled.
        """
        times = np.asarray(offsets, dtype=float)
        if times.ndim != 1:
            raise SimulationError("schedule_block offsets must be one-dimensional")
        if len(times) == 0:
            return 0
        # Negated comparisons so a NaN offset fails them too.
        if not (float(times[0]) >= 0.0 and bool(np.all(times[1:] >= times[:-1]))):
            raise SimulationError(
                "schedule_block offsets must be non-negative, non-decreasing "
                "and not NaN"
            )
        block = _EventBlock(
            times=times + self.now,
            priority=priority,
            seq0=self._seq,
            handler=handler,
            vectorized=vectorized,
        )
        self._seq += len(times)
        self._blocks.append(block)
        return len(times)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def pending(self) -> int:
        """Scheduled (possibly cancelled) events still waiting to run."""
        return len(self._heap) + sum(b.remaining for b in self._blocks)

    def _heap_key(self) -> "tuple[float, int, int] | None":
        """(time, priority, seq) of the next live heap event, or None."""
        heap = self._heap
        while heap and heap[0][3] is not None and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        entry = heap[0]
        return (entry[0], entry[1], entry[2])

    def _next_source(self) -> "tuple[tuple[float, int, int] | None, _EventBlock | None]":
        """Smallest (time, priority, seq) over the heap and all blocks,
        with the block holding it (None when the heap does)."""
        best_key = self._heap_key()
        best_block: _EventBlock | None = None
        for block in self._blocks:
            if block.index < len(block.times):
                key = (float(block.times[block.index]), block.priority, block.seq0 + block.index)
                if best_key is None or key < best_key:
                    best_key = key
                    best_block = block
        return best_key, best_block

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if everything is drained."""
        key = self._next_source()[0]
        return key[0] if key is not None else None

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Execute the next live event.  Returns False if none remain.

        The run loop uses it as the tie-breaking slow path around its
        bulk drains.
        """
        best_key, best_block = self._next_source()
        if best_key is None:
            return False
        if best_key[0] < self.now - 1e-9:
            raise SimulationError("event sources produced an out-of-order event")
        self.now = max(self.now, best_key[0])
        self.events_executed += 1
        if best_block is None:
            entry = heapq.heappop(self._heap)
            self._execute_entry(entry)
        else:
            index = best_block.index
            best_block.index = index + 1
            if best_block.vectorized:
                best_block.handler(best_block.times[index : index + 1])
            else:
                best_block.handler(float(best_block.times[index]))
        return True

    def _execute_entry(self, entry: list) -> None:
        """Run one heap entry (callback or typed)."""
        event = entry[3]
        if event is not None:
            event.callback()
            return
        dispatch = self.typed_dispatch
        if dispatch is None:
            raise SimulationError("typed event scheduled without a typed_dispatch")
        dispatch(entry[4], entry[5], entry[6])

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #

    def run_until(self, horizon: float, max_events: int | None = None) -> None:
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
        executed = self._drain(horizon, max_events)
        if executed:
            obs.inc("sim.engine.events", executed)
        self.now = max(self.now, horizon)

    def _drain(self, horizon: float, max_events: int | None) -> int:
        """Merged drain: bulk runs off block channels, heap interleaved.

        A run is the longest prefix of one block strictly below every
        other source's next key and the horizon; vectorized handlers get
        the whole run in one call, per-event handlers run in a tight loop
        that re-checks the boundary only when the handler scheduled
        something new.  Ties across sources fall back to one-at-a-time
        :meth:`step`, preserving the global (time, priority, seq) order.
        """
        executed = 0
        budget = max_events if max_events is not None else -1
        heap = self._heap
        while True:
            if 0 <= budget <= executed:
                break
            hkey = self._heap_key()
            best_block: _EventBlock | None = None
            best_key = hkey
            for block in self._blocks:
                if block.index < len(block.times):
                    key = (
                        float(block.times[block.index]),
                        block.priority,
                        block.seq0 + block.index,
                    )
                    if best_key is None or key < best_key:
                        best_key = key
                        best_block = block
            if best_key is None or best_key[0] >= horizon:
                break
            if best_block is None:
                # Next event lives on the heap: execute exactly one, then
                # re-evaluate (its handler may have scheduled anything).
                self.now = max(self.now, best_key[0])
                entry = heapq.heappop(heap)
                self.events_executed += 1
                executed += 1
                self._execute_entry(entry)
                continue
            # Drain a run off the winning block: every event strictly
            # before the other sources' next key and the horizon.
            bound = horizon if hkey is None else min(horizon, hkey[0])
            for other in self._blocks:
                if other is not best_block and other.index < len(other.times):
                    t = float(other.times[other.index])
                    if t < bound:
                        bound = t
            start = best_block.index
            stop = int(np.searchsorted(best_block.times, bound, side="left"))
            if 0 <= budget:
                stop = min(stop, start + (budget - executed))
            if stop <= start:
                # The run is empty only because of a cross-source tie at
                # `bound`; resolve one event through the slow path.
                if self.step():
                    executed += 1
                    continue
                break
            times = best_block.times
            handler = best_block.handler
            if best_block.vectorized:
                best_block.index = stop
                count = stop - start
                self.now = max(self.now, float(times[stop - 1]))
                self.events_executed += count
                executed += count
                self.batches_executed += 1
                handler(times[start:stop])
                continue
            heap_size = len(heap)
            block_count = len(self._blocks)
            self.batches_executed += 1
            # tolist() converts the whole run to Python floats in one C
            # call — far cheaper than one numpy-scalar unboxing per event.
            run_times = times[start:stop].tolist()
            blocks = self._blocks
            index = start
            done = 0
            for t in run_times:
                index += 1
                best_block.index = index
                self.now = t
                done += 1
                handler(t)
                if len(heap) != heap_size or len(blocks) != block_count:
                    # The handler scheduled new work; the run boundary is
                    # stale, so fall back to the outer merge.
                    break
            self.events_executed += done
            executed += done
        return executed
