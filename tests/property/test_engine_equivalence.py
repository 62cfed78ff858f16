"""Property-based tests: the two stepping modes are bit-identical.

Random raw-engine schedules and random federation workloads (healthy and
failure-injected) must produce identical event logs, final statistics,
and trace-event sequences under ``event`` and ``batched`` stepping — and
replication experiments must reduce to identical confidence intervals on
every executor backend.  This is the engine-equivalence guarantee
:mod:`repro.sim.engine` documents.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.runtime.executor import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.sim.engine import STEP_MODES, SimulationEngine
from repro.sim.failures import FailureWindow
from repro.sim.federation import FederationSimulator
from repro.sim.replications import replicate
from repro.sim.trace import TraceRecorder

pytestmark = pytest.mark.slow

# --------------------------------------------------------------------- #
# raw-engine schedules
# --------------------------------------------------------------------- #

# One root event: (delay, priority, follow-up delays).  Zero follow-up
# delays schedule into the current timestamp.
root_event = hyp.tuples(
    hyp.floats(min_value=0.0, max_value=8.0),
    hyp.integers(min_value=-2, max_value=2),
    hyp.lists(
        hyp.floats(min_value=0.0, max_value=4.0),
        min_size=0,
        max_size=3,
    ),
)

block_channel = hyp.lists(
    hyp.floats(min_value=0.0, max_value=8.0), min_size=0, max_size=12
).map(sorted)


def run_schedule(mode, roots, block_offsets, vectorized):
    """Run one generated schedule; return (log, events_executed, now)."""
    engine = SimulationEngine(step_mode=mode)
    log = []

    def make_handler(tag, children):
        def handler():
            log.append(("cb", tag, engine.now))
            for child_index, delay in enumerate(children):
                engine.schedule(delay, make_handler((tag, child_index), ()))

        return handler

    for tag, (delay, priority, children) in enumerate(roots):
        engine.schedule(delay, make_handler(tag, children), priority=priority)
    if vectorized:
        engine.schedule_block(
            block_offsets,
            lambda times: log.append(("vec", tuple(times.tolist()))),
            vectorized=True,
        )
    else:
        engine.schedule_block(block_offsets, lambda t: log.append(("blk", t)))
    engine.run_until(16.0)
    return log, engine.events_executed, engine.now


@given(
    roots=hyp.lists(root_event, min_size=0, max_size=8),
    block_offsets=block_channel,
)
@settings(max_examples=50, deadline=None)
def test_random_schedules_identical_across_modes(roots, block_offsets):
    """Callback + block schedules log identically in every mode."""
    reference = run_schedule("event", roots, block_offsets, vectorized=False)
    assert run_schedule("batched", roots, block_offsets, vectorized=False) == reference


@given(
    roots=hyp.lists(root_event, min_size=0, max_size=6),
    block_offsets=block_channel,
)
@settings(max_examples=25, deadline=None)
def test_vectorized_blocks_cover_the_same_events(roots, block_offsets):
    """A vectorized handler sees exactly the per-event times, in order.

    The slicing differs by construction (batched mode hands over whole
    runs), so the comparison flattens each mode's vector calls back to
    the per-event sequence.
    """

    def flatten(log):
        flat = []
        for entry in log:
            if entry[0] == "vec":
                flat.extend(("blk", t) for t in entry[1])
            else:
                flat.append(entry)
        return flat

    results = {}
    for mode in STEP_MODES:
        log, executed, now = run_schedule(mode, roots, block_offsets, vectorized=True)
        results[mode] = (flatten(log), executed, now)
    assert results["batched"] == results["event"]


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


def simulate(scenario, seed, mode, failures=None, horizon=250.0):
    trace = TraceRecorder()
    simulator = FederationSimulator(
        scenario, seed=seed, trace=trace, step_mode=mode, failures=failures
    )
    metrics = simulator.run(horizon=horizon, warmup=25.0)
    return [asdict(m) for m in metrics], trace.events


@given(
    specs=hyp.lists(cloud_strategy, min_size=1, max_size=4),
    seed=hyp.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_federation_metrics_and_traces_identical(specs, seed):
    """Random federations: metrics and trace sequences match bit-for-bit."""
    scenario = build_scenario(specs)
    reference = simulate(scenario, seed, "event")
    assert simulate(scenario, seed, "batched") == reference


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
    """Failure-injected federations stay mode-equivalent too."""
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
    reference = simulate(scenario, seed, "event", failures, horizon)
    assert sum(len(m) for m in reference[0]) > 0
    assert simulate(scenario, seed, "batched", failures, horizon) == reference


# --------------------------------------------------------------------- #
# executor backends
# --------------------------------------------------------------------- #


@given(seed=hyp.integers(min_value=0, max_value=2**31))
@settings(max_examples=5, deadline=None)
def test_replications_identical_across_modes_and_backends(seed):
    """replicate() reduces to identical intervals on every backend/mode.

    Seeds are fixed up front and each replication is a pure function of
    its task tuple, so serial, thread, and process execution of any
    stepping mode must reproduce the serial/event reference exactly.
    """
    scenario = build_scenario([(6, 0.9, 0.5), (6, 0.6, 0.35)])
    failures = (FailureWindow(kind="outage", sc=0, start=40.0, end=80.0),)

    def run(mode, executor):
        return replicate(
            scenario,
            replications=2,
            horizon=200.0,
            warmup=20.0,
            base_seed=seed,
            executor=executor,
            step_mode=mode,
            failures=failures,
        )

    reference = run("event", SerialExecutor())
    backends = [
        SerialExecutor(),
        ThreadExecutor(workers=2),
        ProcessExecutor(workers=2),
    ]
    for mode in STEP_MODES:
        for executor in backends:
            assert run(mode, executor) == reference


def test_modes_constant_matches_engine():
    assert STEP_MODES == ("event", "batched")
    assert np.asarray([1.0]).dtype == float  # numpy available for blocks
