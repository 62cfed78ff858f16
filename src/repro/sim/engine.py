"""Generic discrete-event simulation core.

A small, dependency-free event core with two stepping modes:

- ``step_mode="event"`` — the retained reference path: an event heap of
  :class:`Event` objects popped one at a time.  Callers schedule
  ``Event`` objects (time, priority, callback) and run until a horizon
  or event budget.
- ``step_mode="batched"`` — the throughput path: heap entries are plain
  lists (so heap maintenance compares floats at C speed instead of
  calling a Python ``__lt__``), callbacks can be replaced by *typed*
  events dispatched through one bound method (no per-event closure
  allocation), and bulk schedules (:meth:`SimulationEngine.schedule_block`)
  keep pre-drawn event times in sorted NumPy arrays that the run loop
  drains in tight runs — including handing a whole run to a vectorized
  handler in one call.

Both modes execute events in the identical total order
``(time, priority, sequence)`` — ties in time break by priority (lower
first) then insertion order — so a deterministic workload produces
bit-identical results under either mode; the engine-equivalence property
suite (``tests/property/test_engine_equivalence.py``) pins this.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

import numpy as np

from repro import obs
from repro.exceptions import SimulationError

#: Recognized stepping modes.
STEP_MODES = ("event", "batched")

_INF = float("inf")


class Event:
    """A scheduled event.

    Ordering is (time, priority, sequence): ties in time are broken by
    priority (lower first), then by insertion order, so simultaneous
    events execute deterministically.  Implemented with ``__slots__`` and
    a hand-written ``__lt__`` because event comparison is the simulator's
    hottest operation (every heap push/pop) in ``event`` mode; the
    batched mode sidesteps it with list-shaped heap entries.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "cancelled")

    # Validation is skipped deliberately: Event sits on the simulator's
    # hottest path (every heap push), and the engine only builds events
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

    # Every heap push/pop compares events.
    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.sequence < other.sequence

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
    """An event simulator with deterministic tie-breaking and two
    stepping modes (see the module docstring)."""

    def __init__(self, step_mode: str = "event") -> None:
        if step_mode not in STEP_MODES:
            raise SimulationError(
                f"unknown step_mode {step_mode!r}; expected one of {STEP_MODES}"
            )
        self.step_mode = step_mode
        # event mode: a heap of Event objects.  batched: a heap of
        # [time, priority, seq, event, code, a, b] lists — lists
        # compare element-wise at C speed, and seq is unique so the
        # trailing payload slots are never compared.
        self._heap: list = []
        self._blocks: list[_EventBlock] = []
        self._seq = 0
        self.now = 0.0
        self.events_executed = 0
        self.batches_executed = 0
        #: batched mode only: receiver of typed events,
        #: ``dispatch(code, a, b)``.  Installed by the simulator built on
        #: top of the engine (one bound method replaces per-event
        #: closures on the hot path).
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
        if delay < 0.0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        event = Event(
            time=self.now + delay,
            priority=priority,
            sequence=self._next_seq(),
            callback=callback,
        )
        if self.step_mode == "event":
            heapq.heappush(self._heap, event)
        else:
            heapq.heappush(
                self._heap,
                [event.time, priority, event.sequence, event, -1, 0, 0],
            )
        return event

    def schedule_at(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        return self.schedule(time - self.now, callback, priority)

    # One call per scheduled simulator event in batched mode.
    def schedule_typed(self, delay: float, code: int, a: int = 0, b: int = 0, priority: int = 0) -> None:
        """Schedule a typed event ``(code, a, b)`` (batched mode only).

        Typed events dispatch through :attr:`typed_dispatch` and carry no
        callback or Event object — the allocation-free fast lane of the
        batched simulator.  They cannot be cancelled.
        """
        if self.step_mode == "event":
            raise SimulationError("schedule_typed requires a batched step_mode")
        if delay < 0.0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
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
        NumPy slice of consecutive times (the batched drain hands over
        every event of the run in one call).  In ``event`` mode the block
        falls back to individual events so workloads stay expressible in
        every mode; a vectorized handler then receives length-1 slices.

        Returns the number of events scheduled.
        """
        times = np.asarray(offsets, dtype=float)
        if times.ndim != 1:
            raise SimulationError("schedule_block offsets must be one-dimensional")
        if len(times) == 0:
            return 0
        if float(times[0]) < 0.0 or bool(np.any(np.diff(times) < 0.0)):
            raise SimulationError(
                "schedule_block offsets must be non-negative and non-decreasing"
            )
        times = times + self.now
        if self.step_mode == "event":
            for t in times:
                time = float(t)
                if vectorized:
                    self.schedule_at(time, _SliceCall(handler, time), priority)
                else:
                    self.schedule_at(time, _TimeCall(handler, time), priority)
            return len(times)
        block = _EventBlock(
            times=times,
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
        if self.step_mode == "event":
            while heap and heap[0].cancelled:
                heapq.heappop(heap)
            if not heap:
                return None
            head = heap[0]
            return (head.time, head.priority, head.sequence)
        while heap and heap[0][3] is not None and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        entry = heap[0]
        return (entry[0], entry[1], entry[2])

    def _next_key(self) -> "tuple[float, int, int] | None":
        """Smallest (time, priority, seq) over the heap and all blocks."""
        best = self._heap_key()
        for block in self._blocks:
            if block.index < len(block.times):
                key = (float(block.times[block.index]), block.priority, block.seq0 + block.index)
                if best is None or key < best:
                    best = key
        return best

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if everything is drained."""
        key = self._next_key()
        return key[0] if key is not None else None

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #

    # The event dispatch loop: one call per simulated event.
    def step(self) -> bool:
        """Execute the next live event.  Returns False if none remain.

        Works in both modes; the batched mode uses it as the tie-breaking
        slow path around its bulk drains.
        """
        if self.step_mode == "event":
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
        return self._step_merged()

    def _step_merged(self) -> bool:
        """One event off the merged heap + block sources (batched mode)."""
        hkey = self._heap_key()
        best_block: _EventBlock | None = None
        best_key = hkey
        for block in self._blocks:
            if block.index < len(block.times):
                key = (float(block.times[block.index]), block.priority, block.seq0 + block.index)
                if best_key is None or key < best_key:
                    best_key = key
                    best_block = block
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
        """Run one batched-mode heap entry (callback or typed)."""
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
        if horizon < self.now:
            raise SimulationError(f"horizon {horizon} is in the past (now={self.now})")
        if self.step_mode == "event":
            executed = self._run_event(horizon, max_events)
        else:
            executed = self._run_batched(horizon, max_events)
        if executed:
            obs.inc("sim.engine.events", executed)
        self.now = max(self.now, horizon)

    def _run_event(self, horizon: float, max_events: int | None) -> int:
        executed = 0
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time >= horizon:
                break
            if max_events is not None and executed >= max_events:
                break
            self.step()
            executed += 1
        return executed

    def _run_batched(self, horizon: float, max_events: int | None) -> int:
        """Merged drain: bulk runs off block channels, heap interleaved.

        A run is the longest prefix of one block strictly below every
        other source's next key and the horizon; vectorized handlers get
        the whole run in one call, per-event handlers run in a tight loop
        that re-checks the boundary only when the handler scheduled
        something new.  Ties across sources fall back to one-at-a-time
        stepping, preserving the global (time, priority, seq) order.
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
                if self._step_merged():
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


class _TimeCall:
    """Deferred per-event handler call (bound early, no closure bugs)."""

    __slots__ = ("handler", "time")

    def __init__(self, handler: Callable[[float], None], time: float) -> None:
        self.handler = handler
        self.time = time

    def __call__(self) -> None:
        self.handler(self.time)


class _SliceCall:
    """Deferred vectorized handler call carrying a length-1 slice."""

    __slots__ = ("handler", "time")

    def __init__(self, handler: Callable[..., None], time: float) -> None:
        self.handler = handler
        self.time = time

    def __call__(self) -> None:
        self.handler(np.asarray([self.time]))
