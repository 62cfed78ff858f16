"""Ablations and the workload extension: what each design choice buys.

Four runs: the model hierarchy, Tabu vs exhaustive best response, the
queue-truncation tolerance and (the Sect. VII extensions) bursty or
variable workloads.  Each ``run_X`` returns rows of its own type;
``render_X`` prints them as a table and ``check_X`` lists their
violations of the claim, stated in its docstring, the run exists to
support.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.bench.scenarios import fig7_scenario
from repro.bench.tables import render_table
from repro.core.framework import SCShare
from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.game.tabu import TabuSearch
from repro.perf.approximate import ApproximateModel
from repro.perf.detailed import DetailedModel
from repro.perf.pooled import PooledModel
from repro.perf.simulation import SimulationModel
from repro.queueing.forwarding import NoSharingModel
from repro.sim.federation import FederationSimulator
from repro.workload.arrivals import MMPPProcess
from repro.workload.phase_type import fit_two_moment


@dataclass(frozen=True)
class ModelRow:
    """One SC's parameters under one performance model."""

    model: str
    sc: int
    seconds: float
    lent_mean: float
    borrowed_mean: float
    error: float


@dataclass(frozen=True)
class GameRow:
    """One best-response strategy's game outcome."""

    method: str
    equilibrium: tuple[int, ...]
    welfare: float
    rounds: int
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class TruncationRow:
    """One model's metric at one truncation tolerance."""

    model: str
    tail_epsilon: float
    q_max: int | None
    metric: float


@dataclass(frozen=True)
class WorkloadRow:
    """Forwarding with and without sharing at one workload setting."""

    knob: str
    value: float
    isolated: float
    federated: float

    @property
    def saved(self) -> float:
        return self.isolated - self.federated


def run_models(horizon: float = 30_000.0) -> list[ModelRow]:
    """Time each model on two 10-VM SCs (simulating ``horizon``); score it against exact."""
    scenario = FederationScenario((
        SmallCloud(name="a", vms=10, arrival_rate=7.0, shared_vms=5),
        SmallCloud(name="b", vms=10, arrival_rate=8.0, shared_vms=3),
    ))
    models = {
        "detailed": DetailedModel(),
        "approximate": ApproximateModel(),
        "pooled": PooledModel(),
        "simulation": SimulationModel(horizon=horizon, warmup=1_000.0, seed=7),
    }
    timed = {}
    for name, model in models.items():
        start = time.perf_counter()
        params = model.evaluate(scenario)
        timed[name] = (time.perf_counter() - start, params)
    exact = timed["detailed"][1]
    return [
        ModelRow(name, i, seconds, p.lent_mean, p.borrowed_mean,
                 abs(p.net_borrowed - exact[i].net_borrowed))
        for name, (seconds, params) in timed.items()
        for i, p in enumerate(params)
    ]


def run_game(strategy_step: int = 1) -> list[GameRow]:
    """Play the Fig. 7 "spread" game at price ratio 0.5 per best-response strategy.

    The exhaustive baseline is the first row.  Each strategy gets a
    fresh params cache, so its model-evaluation count is its own.
    """
    scenario = fig7_scenario("spread").with_price_ratio(0.5)
    rows = []
    for method, tabu in (
        ("exhaustive", None),
        ("tabu_d2", TabuSearch(distance=2, tenure=4, max_moves=30)),
        ("tabu_d4", TabuSearch(distance=4, tenure=4, max_moves=30)),
    ):
        runner = SCShare(
            scenario, model=PooledModel(), gamma=0.0, strategy_step=strategy_step,
            best_response="exhaustive" if tabu is None else "tabu", tabu=tabu,
        )
        result = runner.game.run()
        welfare = runner.evaluator.welfare(result.equilibrium, 0.0)
        rows.append(GameRow(method, result.equilibrium, welfare, result.iterations,
                            result.model_evaluations, result.converged))
    return rows


#: The queue-truncation tolerances :func:`run_truncation` sweeps.
_EPSILONS = (1e-6, 1e-9, 1e-12)


def run_truncation() -> list[TruncationRow]:
    """Sweep ``tail_epsilon`` through a lone SC's forwarding model and the approximate model."""
    rows = []
    for eps in _EPSILONS:
        model = NoSharingModel(
            servers=10, arrival_rate=9.0, service_rate=1.0, sla_bound=0.2, tail_epsilon=eps
        )
        rows.append(TruncationRow("no-sharing", eps, model.q_max, model.forward_probability))
    scenario = FederationScenario((
        SmallCloud(name="a", vms=5, arrival_rate=3.5, shared_vms=2),
        SmallCloud(name="b", vms=5, arrival_rate=4.2, shared_vms=2),
    ))
    for eps in _EPSILONS:
        params = ApproximateModel(tail_epsilon=eps).evaluate_target(scenario)
        rows.append(TruncationRow("approximate", eps, None, params.net_borrowed))
    return rows


#: Mean arrival rates of the two SCs in :func:`run_workloads`.
_WORKLOAD_RATES = (7.0, 8.0)
#: The workload settings :func:`run_workloads` simulates: (knob, value,
#: MMPP burst factor, service SCV).
_WORKLOAD_SETTINGS = [("burst", f, f, 1.0) for f in (1.0, 2.0, 4.0)] + [
    ("scv", v, 1.0, v) for v in (0.25, 1.0, 4.0)
]


def _mmpp(mean_rate: float, factor: float, seed: int) -> MMPPProcess:
    """Two equally likely phases at ``mean_rate / factor`` and the rate that keeps the mean."""
    return MMPPProcess(
        rates=[mean_rate / factor, mean_rate * (2.0 - 1.0 / factor)],
        generator=[[-0.05, 0.05], [0.05, -0.05]],
        rng=np.random.default_rng(seed),
    )


def _forwarding(sharing: tuple[int, int], factor: float, scv: float, horizon: float) -> float:
    """Total simulated forward rate of two 10-VM SCs sharing ``sharing``."""
    scenario = FederationScenario(tuple(
        SmallCloud(name=name, vms=10, arrival_rate=rate, shared_vms=share)
        for name, rate, share in zip("ab", _WORKLOAD_RATES, sharing)
    ))
    arrivals = None
    if factor != 1.0:
        arrivals = [_mmpp(rate, factor, seed) for seed, rate in enumerate(_WORKLOAD_RATES, 1)]
    service = None if scv == 1.0 else [fit_two_moment(mean=1.0, scv=scv)] * 2
    simulator = FederationSimulator(
        scenario, seed=3, arrival_processes=arrivals, service_distributions=service
    )
    return sum(m.forward_rate for m in simulator.run(horizon=horizon, warmup=horizon * 0.05))


def run_workloads(horizon: float = 20_000.0) -> list[WorkloadRow]:
    """Simulate isolated (0, 0) vs federated (5, 5) forwarding per burstiness and SCV."""
    return [
        WorkloadRow(
            knob, value,
            _forwarding((0, 0), factor, scv, horizon),
            _forwarding((5, 5), factor, scv, horizon),
        )
        for knob, value, factor, scv in _WORKLOAD_SETTINGS
    ]


def render_models(rows: Sequence[ModelRow]) -> str:
    """Render the model ablation table."""
    return render_table(
        ["model", "sc", "seconds", "Ibar", "Obar", "abs err(O-I)"],
        [(r.model, f"sc{r.sc}", r.seconds, r.lent_mean, r.borrowed_mean, r.error) for r in rows],
        title="Ablation — accuracy/cost across performance models",
    )


def check_models(rows: Sequence[ModelRow]) -> list[str]:
    """Each model (exact -> approximate -> pooled) is faster than the one above it,
    and the approximate and simulated ``Obar - Ibar`` stay within 0.35 and 0.1
    of the exact chain's."""
    problems = []
    seconds = {r.model: r.seconds for r in rows}
    for faster, slower in (("approximate", "detailed"), ("pooled", "approximate")):
        if not seconds[faster] < seconds[slower]:
            problems.append(f"{faster} ({seconds[faster]:.3f} s) not faster than {slower}")
    for model, bound in (("approximate", 0.35), ("simulation", 0.1)):
        for r in rows:
            if r.model == model and r.error >= bound:
                problems.append(f"{model} sc{r.sc}: abs err(O-I) {r.error:.4f} >= {bound}")
    return problems


def render_game(rows: Sequence[GameRow]) -> str:
    """Render the search-strategy ablation table."""
    return render_table(
        ["method", "equilibrium", "welfare", "rounds", "model evals"],
        [(r.method, str(r.equilibrium), r.welfare, r.rounds, r.evaluations) for r in rows],
        title="Ablation — best-response search strategies",
    )


def check_game(rows: Sequence[GameRow]) -> list[str]:
    """Every game converges; Tabu keeps half the exhaustive welfare for no more evaluations."""
    problems = [f"{r.method}: not converged" for r in rows if not r.converged]
    exhaustive, *tabu = rows
    for r in tabu:
        # Tabu may stop at a different (local) equilibrium, but it must
        # retain most of the welfare and must not cost more evaluations.
        if r.welfare < 0.5 * exhaustive.welfare:
            problems.append(f"{r.method}: welfare below half the exhaustive welfare")
        if r.evaluations > exhaustive.evaluations:
            problems.append(f"{r.method}: more model evals than exhaustive")
    return problems


def render_truncation(rows: Sequence[TruncationRow]) -> str:
    """Render the truncation ablation table."""
    # The tolerance prints as ``:g`` (1e-06, 1e-09, 1e-12): the table's
    # default four decimals would print all three as 0.0000.
    return render_table(
        ["model", "tail_epsilon", "q_max", "metric"],
        [
            (r.model, f"{r.tail_epsilon:g}", "-" if r.q_max is None else r.q_max, r.metric)
            for r in rows
        ],
        title="Ablation — queue truncation tolerance",
    )


def check_truncation(rows: Sequence[TruncationRow]) -> list[str]:
    """Across six orders of magnitude of tolerance the metrics stay put while the queue grows."""
    problems = []
    for model, bound in (("no-sharing", 1e-6), ("approximate", 0.01)):
        metrics = [r.metric for r in rows if r.model == model]
        if max(metrics) - min(metrics) >= bound:
            problems.append(f"{model}: metric moves by {bound:g} or more")
    # Tighter tolerance means a longer retained queue.
    tightening = sorted(rows, key=lambda r: -r.tail_epsilon)
    q_levels = [r.q_max for r in tightening if r.model == "no-sharing"]
    if q_levels != sorted(q_levels):
        problems.append("no-sharing: q_max shrinks as the tolerance tightens")
    return problems


def render_workloads(rows: Sequence[WorkloadRow]) -> str:
    """Render the workload-extension table."""
    return render_table(
        ["knob", "value", "isolated fwd", "federated fwd", "saved"],
        [(r.knob, r.value, r.isolated, r.federated, r.saved) for r in rows],
        title="Extension — federation value under bursty workloads",
    )


def check_workloads(rows: Sequence[WorkloadRow]) -> list[str]:
    """Burstier (MMPP) or more variable (phase-type) demand forwards more in
    isolation, and sharing saves forwarding at every burstiness level."""
    problems = []
    burst = sorted((r for r in rows if r.knob == "burst"), key=lambda r: r.value)
    isolated = [r.isolated for r in burst]
    if isolated != sorted(isolated):
        problems.append("isolated forwarding does not grow with burstiness")
    for r in burst:
        if not r.saved > 0.0:
            problems.append(f"burst {r.value}: the federation saves no forwarding")
    scv = sorted((r for r in rows if r.knob == "scv"), key=lambda r: r.value)
    if scv and not scv[-1].isolated > scv[0].isolated:
        problems.append("isolated forwarding does not grow with service SCV")
    return problems
