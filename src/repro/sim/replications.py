"""Independent-replication experiments with confidence intervals.

A single long simulation gives point estimates; validation work (Fig. 6's
"exact" curves) needs error bars.  :func:`replicate` runs R independent
replications of the federation simulator under different seeds and
reduces each metric to a mean plus a 95% confidence interval via the
batch-means machinery (each replication is one "batch" — replications
are i.i.d. by construction, so the normality assumption is clean).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro._validation import check_int
from repro.core.small_cloud import FederationScenario
from repro.exceptions import ConfigurationError
from repro.sim.federation import FederationSimulator
from repro.sim.trace import TraceRecorder
from repro.sim.stats import BatchMeans, ConfidenceInterval

if TYPE_CHECKING:
    from repro.runtime.executor import Executor
    from repro.sim.failures import FailureWindow
    from repro.sim.federation import SimulatedMetrics

#: Metric fields reduced across replications.
_METRICS = (
    "lent_mean",
    "borrowed_mean",
    "forward_rate",
    "forward_probability",
    "utilization",
    "mean_wait",
    "mean_queue_length",
)


@dataclass(frozen=True)
class ReplicatedMetrics:
    """Per-SC confidence intervals over replications.

    Attributes map 1:1 onto :class:`~repro.sim.federation.SimulatedMetrics`
    fields, each as a :class:`ConfidenceInterval`.
    """

    lent_mean: ConfidenceInterval
    borrowed_mean: ConfidenceInterval
    forward_rate: ConfidenceInterval
    forward_probability: ConfidenceInterval
    utilization: ConfidenceInterval
    mean_wait: ConfidenceInterval
    mean_queue_length: ConfidenceInterval


def _run_replication(
    task: "tuple[FederationScenario, int, float, float, tuple[FailureWindow, ...]]"
) -> list[SimulatedMetrics]:
    """One replication as a pure, process-pool-friendly function.

    Under active tracing the replication runs with a
    :class:`~repro.sim.trace.TraceRecorder` attached, so simulator
    events are forwarded into the ``sim.replication`` span; the
    recorder is otherwise omitted to keep the hot path allocation-free.
    """
    scenario, seed, horizon, warmup, failures = task
    with obs.span("sim.replication", seed=seed):
        obs.inc("sim.replications")
        trace = TraceRecorder() if obs.tracing_active() else None
        simulator = FederationSimulator(
            scenario,
            seed=seed,
            trace=trace,
            failures=failures or None,
        )
        return simulator.run(horizon=horizon, warmup=warmup)


def replicate(
    scenario: FederationScenario,
    replications: int = 10,
    horizon: float = 20_000.0,
    warmup: float = 1_000.0,
    base_seed: int = 0,
    executor: "Executor | None" = None,
    seed_scheme: str = "offset",
    failures: "tuple[FailureWindow, ...] | None" = None,
) -> list[ReplicatedMetrics]:
    """Run independent replications and reduce to confidence intervals.

    Args:
        scenario: the federation.
        replications: number of independent runs (>= 2, since one run
            gives no interval; >= 10 for meaningful intervals).
        horizon: simulated time per replication.
        warmup: warmup per replication.
        base_seed: master seed; per-replication seeds derive from it
            under ``seed_scheme``.
        executor: optional executor running the replications in parallel
            (each replication's seed is fixed up front, so parallel runs
            reduce to exactly the serial estimates).
        seed_scheme: ``'offset'`` (historical ``base_seed + r``) or
            ``'spawn'`` (independent derived seeds) — see
            :func:`repro.runtime.seeding.replication_seeds`.
        failures: optional failure schedule applied to every replication.

    Returns:
        One :class:`ReplicatedMetrics` per SC, in scenario order.

    Raises:
        ConfigurationError: ``replications`` is not an integer >= 2.
    """
    from repro.runtime.seeding import replication_seeds

    replications = check_int(replications, "replications")
    if replications < 2:
        raise ConfigurationError(
            f"replications must be at least 2 (one run gives no interval), "
            f"got {replications}"
        )
    k = len(scenario)
    accumulators = [
        {metric: BatchMeans(min_batches=2) for metric in _METRICS} for _ in range(k)
    ]
    seeds = replication_seeds(base_seed, replications, scheme=seed_scheme)
    schedule = tuple(failures or ())
    tasks = [(scenario, seed, horizon, warmup, schedule) for seed in seeds]
    with obs.span("sim.replicate", replications=replications):
        if executor is not None:
            # Routed through the executor on every backend (serial
            # included) so batch counters and merged metric totals are
            # backend-independent — the differential checker's
            # metrics-merge section relies on this.
            all_results = executor.map(_run_replication, tasks)
        else:
            all_results = [_run_replication(task) for task in tasks]
    for results in all_results:
        for i, metrics in enumerate(results):
            for metric in _METRICS:
                accumulators[i][metric].add_batch(getattr(metrics, metric))
    return [
        ReplicatedMetrics(
            **{metric: accumulators[i][metric].interval() for metric in _METRICS}
        )
        for i in range(k)
    ]
