"""Property-based tests: the engine is bit-identical to the event-heap oracle.

Random raw-engine schedules and random federation workloads (healthy and
failure-injected) must produce identical event logs, final statistics,
and trace-event sequences on :class:`~repro.sim.engine.SimulationEngine`
(list heap, typed dispatch, pre-drawn RNG blocks)
and on the plain event-heap oracle of ``tests/sim/event_oracle.py`` —
and replication experiments on every executor backend must reduce to
the oracle's serial confidence intervals.  This is the
engine-equivalence guarantee :mod:`repro.sim.engine` documents.
"""

import functools
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.runtime.executor import ProcessExecutor, SerialExecutor
from repro.sim import federation
from repro.sim.engine import SimulationEngine
from repro.sim.failures import FailureWindow
from repro.sim.federation import FederationSimulator
from repro.sim.replications import replicate
from repro.sim.rng import ExponentialBlock, UniformBlock
from repro.sim.trace import TraceRecorder
from tests.sim import event_oracle
from tests.sim.event_oracle import OracleEngine

pytestmark = pytest.mark.slow

# --------------------------------------------------------------------- #
# raw-engine schedules
# --------------------------------------------------------------------- #

# One event: (delay, priority, typed).  Delays repeat often, so time
# ties, and with them the priority and sequence tie-breaks, are common.
event_spec = hyp.tuples(
    hyp.one_of(
        hyp.sampled_from((0.0, 1.0, 2.5)),
        hyp.floats(min_value=0.0, max_value=8.0),
    ),
    hyp.integers(min_value=-2, max_value=2),
    hyp.booleans(),
)

# One root event: its spec, the follow-ups its handler schedules (a zero
# delay schedules into the current timestamp), and the callback handle
# it cancels when it runs (an index modulo the handles made so far).
root_event = hyp.tuples(
    event_spec,
    hyp.lists(event_spec, min_size=0, max_size=3),
    hyp.none() | hyp.integers(min_value=0, max_value=63),
)


def run_schedule(engine_type, roots, cancelled, steps):
    """Run one generated schedule; return (log, events_executed, now, next).

    Callback and typed events share the heap; ``cancelled`` handles are
    cancelled before the run, and roots cancel more while it runs.  The
    first ``steps`` live events run one ``step()`` at a time, then
    ``run_until`` resumes the partial run to the horizon.
    """
    engine = engine_type()
    log = []
    handles = []

    def fire(kind, tag):
        log.append((kind, tag, engine.now))
        if len(tag) == 2:
            return
        _, children, target = roots[tag[0]]
        for child_index, child in enumerate(children):
            add(child, (tag[0], child_index))
        if target is not None and handles:
            handles[target % len(handles)].cancel()

    def add(spec, tag):
        delay, priority, typed = spec
        if typed:
            engine.schedule_typed(delay, len(tag), tag[0], tag[-1], priority=priority)
        else:
            handle = engine.schedule(
                delay, functools.partial(fire, "cb", tag), priority=priority
            )
            handles.append(handle)

    engine.typed_dispatch = lambda code, a, b: fire(
        "typed", (a,) if code == 1 else (a, b)
    )
    for index, (spec, _, _) in enumerate(roots):
        add(spec, (index,))
    for index in cancelled:
        if handles:
            handles[index % len(handles)].cancel()
    for _ in range(steps):
        engine.step()
    engine.run_until(16.0)
    return log, engine.events_executed, engine.now, engine.peek_time()


@given(
    roots=hyp.lists(root_event, min_size=0, max_size=8),
    cancelled=hyp.lists(hyp.integers(min_value=0, max_value=63), max_size=4),
    steps=hyp.integers(min_value=0, max_value=24),
)
@settings(max_examples=50, deadline=None)
def test_random_schedules_identical_across_modes(roots, cancelled, steps):
    """Callback, typed and cancelled events log identically to the oracle,
    also when a run resumes after single steps."""
    reference = run_schedule(OracleEngine, roots, cancelled, steps)
    assert run_schedule(SimulationEngine, roots, cancelled, steps) == reference


# --------------------------------------------------------------------- #
# federation workloads
# --------------------------------------------------------------------- #

cloud_strategy = hyp.tuples(
    hyp.integers(min_value=2, max_value=10),
    hyp.floats(min_value=0.3, max_value=1.1),
    hyp.floats(min_value=0.0, max_value=1.0),
)


def build_scenario(specs) -> FederationScenario:
    clouds = []
    for i, (vms, load, share_fraction) in enumerate(specs):
        clouds.append(
            SmallCloud(
                name=f"sc{i}",
                vms=vms,
                arrival_rate=max(load * vms, 0.1),
                shared_vms=int(share_fraction * vms),
            )
        )
    return FederationScenario(tuple(clouds))


def simulate(scenario, seed, failures=None, horizon=250.0):
    trace = TraceRecorder()
    simulator = FederationSimulator(
        scenario, seed=seed, trace=trace, failures=failures
    )
    metrics = simulator.run(horizon=horizon, warmup=25.0)
    return [asdict(m) for m in metrics], trace.events


def simulate_oracle(*args, **kwargs):
    with event_oracle.patched():
        return simulate(*args, **kwargs)


@given(
    specs=hyp.lists(cloud_strategy, min_size=1, max_size=4),
    seed=hyp.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_federation_metrics_and_traces_identical(specs, seed):
    """Random federations: metrics and trace sequences match bit-for-bit."""
    scenario = build_scenario(specs)
    reference = simulate_oracle(scenario, seed)
    assert simulate(scenario, seed) == reference


@given(
    specs=hyp.lists(cloud_strategy, min_size=1, max_size=3),
    seed=hyp.integers(min_value=0, max_value=2**31),
    block=hyp.integers(min_value=1, max_value=64),
)
@settings(max_examples=10, deadline=None)
def test_federation_with_tiny_rng_blocks_matches_the_oracle(specs, seed, block):
    """Blocks far shorter than a run refill hundreds of times, bit-exactly."""
    scenario = build_scenario(specs)
    reference = simulate_oracle(scenario, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            federation, "ExponentialBlock", functools.partial(ExponentialBlock, block=block)
        )
        patch.setattr(
            federation, "UniformBlock", functools.partial(UniformBlock, block=block)
        )
        assert simulate(scenario, seed) == reference


window_strategy = hyp.tuples(
    hyp.sampled_from(("outage", "limplock", "flash_crowd")),
    hyp.floats(min_value=10.0, max_value=100.0),
    hyp.floats(min_value=10.0, max_value=120.0),
    hyp.floats(min_value=1.5, max_value=5.0),
)


@given(
    specs=hyp.lists(cloud_strategy, min_size=2, max_size=3),
    seed=hyp.integers(min_value=0, max_value=2**31),
    windows=hyp.lists(window_strategy, min_size=1, max_size=3),
)
@settings(max_examples=25, deadline=None)
def test_failure_injection_identical_across_modes(specs, seed, windows):
    """Failure-injected federations match the oracle too."""
    scenario = build_scenario(specs)
    failures = tuple(
        FailureWindow(
            kind=kind,
            sc=i % len(specs),
            # Same (sc, kind) windows must not overlap: stack each
            # window's span after every earlier generated window.
            start=start + 250.0 * i,
            end=start + 250.0 * i + duration,
            factor=1.0 if kind == "outage" else factor,
        )
        for i, (kind, start, duration, factor) in enumerate(windows)
    )
    horizon = 250.0 * len(windows) + 50.0
    reference = simulate_oracle(scenario, seed, failures, horizon)
    assert sum(len(m) for m in reference[0]) > 0
    assert simulate(scenario, seed, failures, horizon) == reference


# --------------------------------------------------------------------- #
# executor backends
# --------------------------------------------------------------------- #


@given(seed=hyp.integers(min_value=0, max_value=2**31))
@settings(max_examples=5, deadline=None)
def test_replications_identical_across_modes_and_backends(seed):
    """replicate() reduces to the oracle's intervals on every backend.

    Seeds are fixed up front and each replication is a pure function of
    its task tuple, so serial and process execution must reproduce the
    oracle's serial reference exactly.
    """
    scenario = build_scenario([(6, 0.9, 0.5), (6, 0.6, 0.35)])
    failures = (FailureWindow(kind="outage", sc=0, start=40.0, end=80.0),)

    def run(executor):
        return replicate(
            scenario,
            replications=2,
            horizon=200.0,
            warmup=20.0,
            base_seed=seed,
            executor=executor,
            failures=failures,
        )

    with event_oracle.patched():
        reference = run(SerialExecutor())
    for executor in (SerialExecutor(), ProcessExecutor(workers=2)):
        assert run(executor) == reference
