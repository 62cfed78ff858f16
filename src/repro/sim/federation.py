"""Discrete-event simulator of an SC federation.

Implements the exact sharing semantics of Sect. II-A / III-B (the paper's
ground-truth C++ simulator, rebuilt in Python):

- Arrivals at SC i first use a free local VM.
- If SC i is saturated, the request borrows a VM from the lender set
  ``L = {j : j has a free VM and lent_j < S_j}``, choosing uniformly among
  lenders with the *minimum* total load (the model's load-balancing rule).
- If no lender exists, the request joins SC i's FCFS queue with the SLA
  probability ``P^NF`` (service must be able to start within ``Q_i``);
  otherwise it is forwarded to the public cloud.
- A VM freed at SC h serves h's own queue first (owner priority); if h has
  no backlog and ``lent_h < S_h``, it is lent to the SC with the *maximum*
  backlog; otherwise it idles.  Guests are never preempted.

Metrics accumulated after warmup map one-to-one onto the paper's cost
inputs: ``Ibar_i`` (time-averaged VMs lent), ``Obar_i`` (time-averaged VMs
borrowed), ``Pbar_i`` (public-cloud forwarding rate), ``rho_i`` (busy
fraction of own VMs).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro._validation import check_non_negative, check_positive
from repro.core.small_cloud import FederationScenario
from repro.exceptions import SimulationError
from repro.queueing.sla import prob_no_forward
from repro.sim.engine import SimulationEngine
from repro.sim.rng import ExponentialBlock, RandomStreams, UniformBlock
from repro.sim.stats import WelfordAccumulator
from repro import obs
from repro.sim.trace import TraceRecorder
from repro.workload.service import ExponentialService, ServiceDistribution

if TYPE_CHECKING:
    from repro.sim.failures import FailureWindow

#: Typed event codes for the engine's dispatch lane.
_EV_ARRIVAL = 0
_EV_COMPLETION = 1


@dataclass(frozen=True)
class SimulatedMetrics:
    """Post-warmup metrics for one SC.

    Attributes:
        lent_mean: ``Ibar_i`` — time-averaged VMs lent to other SCs.
        borrowed_mean: ``Obar_i`` — time-averaged VMs borrowed.
        forward_rate: ``Pbar_i`` — forwarded requests per time unit.
        forward_probability: forwarded / arrived.
        utilization: ``rho_i`` — time-averaged busy own VMs over ``N_i``.
        mean_wait: mean realized waiting time of queued-and-served requests.
        mean_queue_length: time-averaged own-queue length.
        arrivals: arrivals counted after warmup.
        forwarded: forwards counted after warmup.
        served_locally: completions on own VMs (own traffic).
        served_borrowed: completions of own traffic on borrowed VMs.
        sla_violations: served requests whose realized wait exceeded Q_i.
    """

    lent_mean: float
    borrowed_mean: float
    forward_rate: float
    forward_probability: float
    utilization: float
    mean_wait: float
    mean_queue_length: float
    arrivals: int
    forwarded: int
    served_locally: int
    served_borrowed: int
    sla_violations: int


class _CloudState:
    """Mutable per-SC simulator state.

    Time-weighted statistics are integrated inline (plain float
    accumulators) rather than through one accumulator object per signal
    — ``record`` runs on every event and dominates the simulator's
    profile otherwise.  The
    ``record`` contract: it must be called, at the current simulation
    time, for every cloud whose counters changed during an event, *after*
    the mutation (the integral attributes the pre-mutation value to the
    elapsed interval because integration happens before the snapshot is
    refreshed).  The calls may not be merged or moved: integrating one
    interval in two pieces changes the float sum
    (``s*dt1 + s*dt2 != s*(dt1 + dt2)``), and the outputs are pinned bit
    for bit.

    The ``busy``/``free``/``backlog``/``load`` properties serve the
    conservation check, the failure code and the tests; the per-event
    handlers of :class:`FederationSimulator` read the fields they derive
    from directly, one attribute lookup instead of a property call.
    """

    __slots__ = (
        "index",
        "vms",
        "share_limit",
        "sla_bound",
        "own_running",
        "lent_to",
        "lent_total",
        "queue_arrival_times",
        "arrivals",
        "forwarded",
        "served_locally",
        "served_borrowed",
        "sla_violations",
        "wait_acc",
        "borrowed_count",
        "_last_time",
        "_start_time",
        "_integ_busy",
        "_integ_lent",
        "_integ_borrowed",
        "_integ_queue",
        "_snap_busy",
        "_snap_lent",
        "_snap_borrowed",
        "_snap_queue",
    )

    def __init__(self, index: int, vms: int, share_limit: int, sla_bound: float) -> None:
        self.index = index
        self.vms = vms
        self.share_limit = share_limit
        self.sla_bound = sla_bound
        self.own_running = 0  # own requests served on own VMs
        self.lent_to: dict[int, int] = {}  # borrower index -> VM count
        self.lent_total = 0  # sum of lent_to values, kept incrementally
        # FCFS own queue; deque so the head pop in _start_queued is O(1)
        # (a list's pop(0) is O(n) and dominates deep-backlog sims).
        self.queue_arrival_times: deque[float] = deque()
        self.arrivals = 0
        self.forwarded = 0
        self.served_locally = 0
        self.served_borrowed = 0
        self.sla_violations = 0
        self.borrowed_count = 0
        self.wait_acc = WelfordAccumulator()
        self._last_time = 0.0
        self._start_time = 0.0
        self._integ_busy = 0.0
        self._integ_lent = 0.0
        self._integ_borrowed = 0.0
        self._integ_queue = 0.0
        self._snap_busy = 0
        self._snap_lent = 0
        self._snap_borrowed = 0
        self._snap_queue = 0

    @property
    def busy(self) -> int:
        """VMs currently serving anyone."""
        return self.own_running + self.lent_total

    @property
    def free(self) -> int:
        """Idle VMs."""
        return self.vms - self.own_running - self.lent_total

    @property
    def backlog(self) -> int:
        """Own requests waiting for a VM."""
        return len(self.queue_arrival_times)

    @property
    def load(self) -> int:
        """The load-balancing metric ``q_i + s_{i,i}`` of the paper."""
        return self.own_running + len(self.queue_arrival_times) + self.lent_total

    # Called on every arrival/departure/forward event.  The two busiest
    # call sites, the end of FederationSimulator._on_arrival and the
    # owner's refresh in _on_completion, inline this body (one Python
    # call less on every event); keep the three copies in step.
    def record(self, time: float) -> None:
        """Integrate the previous snapshot up to ``time`` and re-snapshot."""
        dt = time - self._last_time
        if dt > 0.0:
            self._integ_busy += self._snap_busy * dt
            self._integ_lent += self._snap_lent * dt
            self._integ_borrowed += self._snap_borrowed * dt
            self._integ_queue += self._snap_queue * dt
            self._last_time = time
        self._snap_busy = self.own_running + self.lent_total
        self._snap_lent = self.lent_total
        self._snap_borrowed = self.borrowed_count
        self._snap_queue = len(self.queue_arrival_times)

    def reset_statistics(self, time: float) -> None:
        """Discard integrals accumulated so far (end of warmup)."""
        self.record(time)
        self._integ_busy = 0.0
        self._integ_lent = 0.0
        self._integ_borrowed = 0.0
        self._integ_queue = 0.0
        self._start_time = time
        self._last_time = time

    def time_averages(self, time: float) -> tuple[float, float, float, float]:
        """Return (busy, lent, borrowed, queue) time averages up to ``time``."""
        self.record(time)
        elapsed = time - self._start_time
        if elapsed <= 0.0:
            return (float(self._snap_busy), float(self._snap_lent),
                    float(self._snap_borrowed), float(self._snap_queue))
        return (
            self._integ_busy / elapsed,
            self._integ_lent / elapsed,
            self._integ_borrowed / elapsed,
            self._integ_queue / elapsed,
        )


class FederationSimulator:
    """Discrete-event simulator for a :class:`FederationScenario`.

    Args:
        scenario: the federation configuration (sharing decisions included).
        seed: master RNG seed.
        service_distributions: optional per-SC service distributions
            overriding the exponential defaults (Sect. VII extension).
        arrival_processes: optional per-SC arrival processes (objects with
            a ``next_interarrival()`` method, e.g.
            :class:`~repro.workload.arrivals.MMPPProcess`) overriding the
            Poisson defaults (Sect. VII extension).  When provided, the
            scenario's ``arrival_rate`` is only used by analytic models.
        trace: optional :class:`TraceRecorder` capturing every event.
        failures: optional schedule of :class:`FailureWindow` injections
            (see :mod:`repro.sim.failures` for the semantics).
    """

    def __init__(
        self,
        scenario: FederationScenario,
        seed: int = 0,
        service_distributions: list[ServiceDistribution] | None = None,
        arrival_processes: list | None = None,
        trace: TraceRecorder | None = None,
        failures: "tuple[FailureWindow, ...] | list[FailureWindow] | None" = None,
    ) -> None:
        self.scenario = scenario
        self.k = len(scenario)
        self.engine = SimulationEngine()
        self.streams = RandomStreams(seed)
        self.trace = trace
        if service_distributions is None:
            service_distributions = [
                ExponentialService(c.service_rate) for c in scenario
            ]
        if len(service_distributions) != self.k:
            raise SimulationError(
                "service_distributions must have one entry per SC"
            )
        self.service = service_distributions
        # Per-SC constants of the per-event handlers, computed once.  A
        # flash-crowd window recomputes 1.0 / (rate * factor) instead.
        self._arrival_mean = [1.0 / c.arrival_rate for c in scenario]
        self._service_rate = [c.service_rate for c in scenario]
        if arrival_processes is not None and len(arrival_processes) != self.k:
            raise SimulationError("arrival_processes must have one entry per SC")
        self.arrivals = arrival_processes
        self.clouds = [
            _CloudState(i, c.vms, c.shared_vms, c.sla_bound)
            for i, c in enumerate(scenario)
        ]
        # Fixed stream-creation order for reproducibility.
        arrival_rng = [self.streams.stream(f"arrivals[{i}]") for i in range(self.k)]
        self._service_rng = [self.streams.stream(f"service[{i}]") for i in range(self.k)]
        self._choice_rng = self.streams.stream("choices")
        sla_rng = self.streams.stream("sla")
        # Pre-drawn stream blocks (bit-identical to the scalar draws, see
        # repro.sim.rng) wherever a stream is drawn with a fixed one-draw
        # routine: Poisson arrivals, exponential service, SLA uniforms.
        # Everything else (choice tie-breaks, custom arrival processes,
        # non-exponential service) draws scalars.
        self._arrival_block = (
            [ExponentialBlock(rng) for rng in arrival_rng]
            if self.arrivals is None
            else []
        )
        self._service_block: list[ExponentialBlock | None] = [
            ExponentialBlock(self._service_rng[i])
            if type(self.service[i]) is ExponentialService
            else None
            for i in range(self.k)
        ]
        self._service_mean = [
            self.service[i].mean() if block is not None else 0.0
            for i, block in enumerate(self._service_block)
        ]
        self._sla_block = UniformBlock(sla_rng)
        # SCs whose own queue is not empty: a freed VM looks for a
        # borrower only when some SC has a backlog.
        self._backlogged = 0
        self.engine.typed_dispatch = self._dispatch
        self._schedule_typed = self.engine.schedule_typed
        # Failure injection: active-window state plus scheduled
        # transitions at priority -1 (before same-time arrivals).
        self.failures: tuple[FailureWindow, ...] = tuple(failures or ())
        if self.failures:
            # Imported here (not at module top) so `python -m
            # repro.sim.failures` does not pre-import its own target
            # through the repro.sim package init.
            from repro.sim.failures import validate_schedule

            validate_schedule(self.failures, self.k)
        self._out = [False] * self.k
        self._service_factor = [1.0] * self.k
        self._arrival_factor = [1.0] * self.k
        for window in self.failures:
            if window.kind == "flash_crowd" and self.arrivals is not None:
                raise SimulationError(
                    "flash_crowd windows require Poisson arrivals "
                    "(custom arrival processes own their own rates)"
                )
            self.engine.schedule_at(
                window.start, _Transition(self, window, True), priority=-1
            )
            self.engine.schedule_at(
                window.end, _Transition(self, window, False), priority=-1
            )
        self._measuring = True
        for i in range(self.k):
            self._schedule_arrival(i)

    # ------------------------------------------------------------------ #
    # event machinery
    # ------------------------------------------------------------------ #

    # One call per simulated arrival.
    def _schedule_arrival(self, sc: int) -> None:
        if self.arrivals is not None:
            delay = float(self.arrivals[sc].next_interarrival())
        else:
            factor = self._arrival_factor[sc]
            if factor == 1.0:
                mean = self._arrival_mean[sc]
            else:
                mean = 1.0 / (self.scenario[sc].arrival_rate * factor)
            delay = self._arrival_block[sc].next(mean)
        self._schedule_typed(delay, _EV_ARRIVAL, sc)

    # One call per service start.
    def _schedule_completion(self, owner: int, host: int) -> None:
        block = self._service_block[host]
        if block is not None:
            duration = block.next(self._service_mean[host])
        else:
            duration = self.service[host].sample(self._service_rng[host])
        factor = self._service_factor[host]
        if factor != 1.0:
            duration = duration * factor
        self._schedule_typed(duration, _EV_COMPLETION, owner, host)

    def _dispatch(self, code: int, a: int, b: int) -> None:
        """Typed-event receiver for the engine."""
        if code == _EV_ARRIVAL:
            self._on_arrival(a)
        elif code == _EV_COMPLETION:
            self._on_completion(a, b)
        else:  # pragma: no cover - engine schedules only the codes above
            raise SimulationError(f"unknown typed event code {code}")

    def _record_all(self) -> None:
        now = self.engine.now
        for state in self.clouds:
            state.record(now)

    # ------------------------------------------------------------------ #
    # failure transitions
    # ------------------------------------------------------------------ #

    def _on_failure_start(self, window: FailureWindow) -> None:
        sc = window.sc
        state = self.clouds[sc]
        if self.trace is not None:
            self._emit("failure_start", failure=window.kind, sc=sc, factor=window.factor)
        if window.kind == "outage":
            self._out[sc] = True
            # Flush the queue to the public cloud: a dead SC cannot honor
            # its SLA, and queued work is not lost — it forwards.
            flushed = len(state.queue_arrival_times)
            if flushed:
                state.queue_arrival_times.clear()
                self._backlogged -= 1
                if self._measuring:
                    state.forwarded += flushed
                if self.trace is not None:
                    self._emit("outage_flush", sc=sc, flushed=flushed)
            state.record(self.engine.now)
        elif window.kind == "limplock":
            self._service_factor[sc] = window.factor
        else:
            self._arrival_factor[sc] = window.factor

    def _on_failure_end(self, window: FailureWindow) -> None:
        sc = window.sc
        if self.trace is not None:
            self._emit("failure_end", failure=window.kind, sc=sc)
        if window.kind == "outage":
            self._out[sc] = False
        elif window.kind == "limplock":
            self._service_factor[sc] = 1.0
        else:
            self._arrival_factor[sc] = 1.0

    def _emit(self, kind: str, **fields: object) -> None:
        """Record a trace event; callers check ``self.trace is not None``
        first, so an untraced run builds no keyword dict per event."""
        assert self.trace is not None
        self.trace.record(self.engine.now, kind, **fields)

    # ------------------------------------------------------------------ #
    # semantics
    # ------------------------------------------------------------------ #

    # The handlers below run once per event.  They read the _CloudState
    # fields themselves (``vms - own_running - lent_total`` for ``free``,
    # ``len(queue_arrival_times)`` for ``backlog``) rather than through
    # the properties, build a trace event only when a trace is attached,
    # and refresh statistics exactly where the ``record`` contract places
    # it, for the same clouds at the same times.

    def _on_arrival(self, sc: int) -> None:
        self._schedule_arrival(sc)
        state = self.clouds[sc]
        now = self.engine.now
        measuring = self._measuring
        if measuring:
            state.arrivals += 1
        if self._out[sc]:
            # The SC is down: its customers go straight to the public
            # cloud (no local VMs, no borrowing, no queueing under an
            # unhonorable SLA).
            if measuring:
                state.forwarded += 1
            if self.trace is not None:
                self._emit("outage_forward", sc=sc)
        elif state.own_running + state.lent_total < state.vms:
            state.own_running += 1
            self._schedule_completion(sc, sc)
            if self.trace is not None:
                self._emit("serve_local", sc=sc)
        else:
            lender = self._pick_lender(sc)
            if lender is not None:
                host = self.clouds[lender]
                lent_to = host.lent_to
                lent_to[sc] = lent_to.get(sc, 0) + 1
                host.lent_total += 1
                state.borrowed_count += 1
                self._schedule_completion(sc, lender)
                if self.trace is not None:
                    self._emit("serve_borrowed", sc=sc, host=lender)
                host.record(now)
            else:
                self._queue_or_forward(sc)
        # The body of state.record(now), inlined (see _CloudState.record).
        dt = now - state._last_time
        if dt > 0.0:
            state._integ_busy += state._snap_busy * dt
            state._integ_lent += state._snap_lent * dt
            state._integ_borrowed += state._snap_borrowed * dt
            state._integ_queue += state._snap_queue * dt
            state._last_time = now
        state._snap_busy = state.own_running + state.lent_total
        state._snap_lent = state.lent_total
        state._snap_borrowed = state.borrowed_count
        state._snap_queue = len(state.queue_arrival_times)

    def _pick_lender(self, sc: int) -> int | None:
        """Lender with a free VM, sharing headroom, and minimum load.

        Candidates are scanned in index order; a tie on the minimum load
        is broken uniformly by one ``integers`` draw on the choice stream.
        """
        out = self._out
        best = -1
        tied: list[int] = []
        for j, cloud in enumerate(self.clouds):
            if j == sc or out[j]:
                continue
            lent = cloud.lent_total
            running = cloud.own_running
            if running + lent >= cloud.vms or lent >= cloud.share_limit:
                continue
            load = running + len(cloud.queue_arrival_times) + lent
            if best < 0 or load < best:
                best = load
                tied = [j]
            elif load == best:
                tied.append(j)
        if len(tied) <= 1:
            return tied[0] if tied else None
        return int(tied[self._choice_rng.integers(len(tied))])

    def _queue_or_forward(self, sc: int) -> None:
        state = self.clouds[sc]
        queue = state.queue_arrival_times
        backlog = len(queue)
        p_queue = prob_no_forward(
            backlog,
            state.own_running + state.borrowed_count,
            self._service_rate[sc],
            state.sla_bound,
        )
        if self._sla_block.next() < p_queue:
            queue.append(self.engine.now)
            if not backlog:
                self._backlogged += 1
            if self.trace is not None:
                self._emit("queue", sc=sc, backlog=backlog + 1)
        else:
            if self._measuring:
                state.forwarded += 1
            if self.trace is not None:
                self._emit("forward", sc=sc)

    def _on_completion(self, owner: int, host: int) -> None:
        clouds = self.clouds
        host_state = clouds[host]
        if owner == host:
            if host_state.own_running <= 0:
                raise SimulationError("completion with no running own request")
            host_state.own_running -= 1
            if self._measuring:
                host_state.served_locally += 1
            owner_state = host_state
        else:
            owner_state = clouds[owner]
            lent_to = host_state.lent_to
            count = lent_to.get(owner, 0)
            if count <= 0:
                raise SimulationError("completion of untracked borrowed VM")
            if count == 1:
                del lent_to[owner]
            else:
                lent_to[owner] = count - 1
            host_state.lent_total -= 1
            owner_state.borrowed_count -= 1
            if self._measuring:
                owner_state.served_borrowed += 1
        if self.trace is not None:
            self._emit("complete", owner=owner, host=host)
        extra = self._allocate_freed_vm(host)
        now = self.engine.now
        # The body of owner_state.record(now), inlined (see _CloudState.record).
        dt = now - owner_state._last_time
        if dt > 0.0:
            owner_state._integ_busy += owner_state._snap_busy * dt
            owner_state._integ_lent += owner_state._snap_lent * dt
            owner_state._integ_borrowed += owner_state._snap_borrowed * dt
            owner_state._integ_queue += owner_state._snap_queue * dt
            owner_state._last_time = now
        owner_state._snap_busy = owner_state.own_running + owner_state.lent_total
        owner_state._snap_lent = owner_state.lent_total
        owner_state._snap_borrowed = owner_state.borrowed_count
        owner_state._snap_queue = len(owner_state.queue_arrival_times)
        if host != owner:
            host_state.record(now)
        if extra is not None and extra != owner and extra != host:
            clouds[extra].record(now)

    def _allocate_freed_vm(self, host: int) -> int | None:
        """Dispatch the VM freed at ``host`` per the paper's return rules.

        Returns the index of a third SC whose state changed (a borrower
        whose queued request was started), if any, so the caller can
        refresh its statistics.
        """
        if self._out[host]:
            # A dead SC neither serves its (flushed, empty) queue nor
            # lends freed capacity; the VM idles until recovery.
            return None
        state = self.clouds[host]
        if state.queue_arrival_times:
            # Owner priority: serve the host's own queue head.
            self._start_queued(host, host)
            return None
        if self._backlogged and state.lent_total < state.share_limit:
            borrower = self._pick_borrower(host)
            if borrower is not None:
                self._start_queued(borrower, host)
                if self.trace is not None:
                    self._emit("lend_freed", host=host, borrower=borrower)
                return borrower
        return None

    def _pick_borrower(self, host: int) -> int | None:
        """Borrower with the maximum backlog (uniform tie-break)."""
        best = 0
        tied: list[int] = []
        for j, cloud in enumerate(self.clouds):
            backlog = len(cloud.queue_arrival_times)
            if backlog < best or not backlog or j == host:
                continue
            if backlog > best:
                best = backlog
                tied = [j]
            else:
                tied.append(j)
        if len(tied) <= 1:
            return tied[0] if tied else None
        return int(tied[self._choice_rng.integers(len(tied))])

    def _start_queued(self, owner: int, host: int) -> None:
        """Move the FCFS head of ``owner``'s queue onto a VM at ``host``."""
        owner_state = self.clouds[owner]
        queue = owner_state.queue_arrival_times
        queued_at = queue.popleft()
        if not queue:
            self._backlogged -= 1
        if self._measuring:
            wait = self.engine.now - queued_at
            owner_state.wait_acc.add(wait)
            if wait > owner_state.sla_bound + 1e-12:
                owner_state.sla_violations += 1
        if owner == host:
            owner_state.own_running += 1
        else:
            host_state = self.clouds[host]
            lent_to = host_state.lent_to
            lent_to[owner] = lent_to.get(owner, 0) + 1
            host_state.lent_total += 1
            owner_state.borrowed_count += 1
        self._schedule_completion(owner, host)

    # ------------------------------------------------------------------ #
    # running and results
    # ------------------------------------------------------------------ #

    def run(self, horizon: float, warmup: float = 0.0) -> list[SimulatedMetrics]:
        """Simulate to ``horizon`` and return per-SC metrics.

        Args:
            horizon: total simulated time (> warmup).
            warmup: initial period excluded from all statistics.
        """
        horizon = check_positive(horizon, "horizon")
        warmup = check_non_negative(warmup, "warmup")
        if warmup >= horizon:
            raise SimulationError("warmup must be shorter than the horizon")
        with obs.span("sim.run", k=self.k, horizon=horizon, warmup=warmup):
            if warmup > 0.0:
                self._measuring = False
                self.engine.run_until(warmup)
                self._measuring = True
                for state in self.clouds:
                    state.reset_statistics(warmup)
            self.engine.run_until(horizon)
            self._record_all()
            self._check_conservation()
        if obs.metrics_active():
            obs.inc("sim.arrivals", sum(s.arrivals for s in self.clouds))
            obs.inc("sim.forwarded", sum(s.forwarded for s in self.clouds))
        elapsed = horizon - warmup
        results = []
        for state in self.clouds:
            arrivals = state.arrivals
            busy_mean, lent_mean, borrowed_mean, queue_mean = state.time_averages(
                horizon
            )
            results.append(
                SimulatedMetrics(
                    lent_mean=lent_mean,
                    borrowed_mean=borrowed_mean,
                    forward_rate=state.forwarded / elapsed,
                    forward_probability=(
                        state.forwarded / arrivals if arrivals else 0.0
                    ),
                    utilization=busy_mean / state.vms,
                    mean_wait=state.wait_acc.mean(),
                    mean_queue_length=queue_mean,
                    arrivals=arrivals,
                    forwarded=state.forwarded,
                    served_locally=state.served_locally,
                    served_borrowed=state.served_borrowed,
                    sla_violations=state.sla_violations,
                )
            )
        return results

    def _check_conservation(self) -> None:
        """Invariants that must hold in any reachable simulator state."""
        for state in self.clouds:
            if state.busy > state.vms:
                raise SimulationError(
                    f"SC {state.index}: {state.busy} busy VMs exceed {state.vms}"
                )
            if state.lent_total > state.share_limit:
                raise SimulationError(
                    f"SC {state.index}: lent {state.lent_total} exceeds limit "
                    f"{state.share_limit}"
                )
            borrowed_elsewhere = sum(
                other.lent_to.get(state.index, 0)
                for other in self.clouds
                if other is not state
            )
            if borrowed_elsewhere != state.borrowed_count:
                raise SimulationError(
                    f"SC {state.index}: borrowed bookkeeping mismatch"
                )
        backlogged = sum(1 for state in self.clouds if state.backlog > 0)
        if backlogged != self._backlogged:
            raise SimulationError(
                f"{self._backlogged} SCs counted as backlogged, "
                f"{backlogged} queues are non-empty"
            )


class _Transition:
    """A scheduled failure-window edge (start or end) as a callback.

    A tiny callable class instead of a lambda so the two edges of every
    window read identically in heap dumps.
    """

    __slots__ = ("simulator", "window", "starting")

    def __init__(
        self, simulator: FederationSimulator, window: FailureWindow, starting: bool
    ) -> None:
        self.simulator = simulator
        self.window = window
        self.starting = starting

    def __call__(self) -> None:
        if self.starting:
            self.simulator._on_failure_start(self.window)
        else:
            self.simulator._on_failure_end(self.window)
