"""The ablation harness: claim checks on hand-built rows, runs on small inputs."""

import pytest

from repro.bench import ablations
from repro.bench.ablations import GameRow, ModelRow, TruncationRow, WorkloadRow
from repro.perf.params import PerformanceParams

SECONDS = {"detailed": 3.0, "approximate": 0.5, "pooled": 0.01, "simulation": 2.0}
ERRORS = {"detailed": 0.0, "approximate": 0.1, "pooled": 0.2, "simulation": 0.05}


def model_rows(**overrides):
    seconds = {m: overrides.get(f"{m}_s", s) for m, s in SECONDS.items()}
    errors = {m: overrides.get(f"{m}_err", e) for m, e in ERRORS.items()}
    return [ModelRow(m, sc, seconds[m], 1.0, 1.0, errors[m]) for m in SECONDS for sc in (0, 1)]


def game_rows(welfare=500.0, evaluations=100, converged=True):
    return [
        GameRow("exhaustive", (5, 5, 5), 600.0, 3, 120, True),
        GameRow("tabu_d2", (4, 5, 5), welfare, 3, evaluations, converged),
    ]


def truncation_rows(q_levels=(23, 26, 29), step=0.0):
    epsilons = (1e-6, 1e-9, 1e-12)
    return [
        TruncationRow("no-sharing", eps, q, 0.117 + i * step)
        for i, (eps, q) in enumerate(zip(epsilons, q_levels))
    ] + [TruncationRow("approximate", eps, None, 0.3885) for eps in epsilons]


def workload_rows(isolated=(1.0, 2.0, 3.0), federated=0.5, scv_isolated=(0.9, 1.0)):
    burst = [WorkloadRow("burst", f, i, federated) for f, i in zip((1.0, 2.0, 4.0), isolated)]
    return burst + [WorkloadRow("scv", v, i, 0.4) for v, i in zip((0.25, 4.0), scv_isolated)]


@pytest.mark.parametrize(
    "check, rows, expected",
    [
        (ablations.check_models, model_rows(), []),
        (ablations.check_game, game_rows(), []),
        (ablations.check_truncation, truncation_rows(), []),
        (ablations.check_workloads, workload_rows(), []),
        (ablations.check_models, model_rows(pooled_s=0.9),
         ["pooled (0.900 s) not faster than approximate"]),
        (ablations.check_models, model_rows(approximate_err=0.35, simulation_err=0.2), [
            "approximate sc0: abs err(O-I) 0.3500 >= 0.35",
            "approximate sc1: abs err(O-I) 0.3500 >= 0.35",
            "simulation sc0: abs err(O-I) 0.2000 >= 0.1",
            "simulation sc1: abs err(O-I) 0.2000 >= 0.1",
        ]),
        (ablations.check_game, game_rows(welfare=299.0),
         ["tabu_d2: welfare below half the exhaustive welfare"]),
        (ablations.check_game, game_rows(evaluations=121),
         ["tabu_d2: more model evals than exhaustive"]),
        (ablations.check_game, game_rows(converged=False), ["tabu_d2: not converged"]),
        (ablations.check_truncation, truncation_rows(step=1e-6),
         ["no-sharing: metric moves by 1e-06 or more"]),
        (ablations.check_truncation, truncation_rows(q_levels=(23, 22, 29)),
         ["no-sharing: q_max shrinks as the tolerance tightens"]),
        (ablations.check_workloads, workload_rows(isolated=(1.0, 3.0, 2.0)),
         ["isolated forwarding does not grow with burstiness"]),
        (ablations.check_workloads, workload_rows(federated=1.0),
         ["burst 1.0: the federation saves no forwarding"]),
        (ablations.check_workloads, workload_rows(scv_isolated=(1.0, 0.9)),
         ["isolated forwarding does not grow with service SCV"]),
    ],
)
def test_checks_flag_violations_only(check, rows, expected):
    assert check(rows) == expected


def test_render_keeps_tolerances_apart():
    lines = ablations.render_truncation(truncation_rows()).splitlines()[3:]
    assert [line.split()[1] for line in lines] == ["1e-06", "1e-09", "1e-12"] * 2


def test_run_models_times_fastest_of_fresh_cold_calls(monkeypatch):
    """Each analytic model is timed as the minimum of three cold calls, each
    on a fresh model; the simulation runs once."""
    # Multiples of 1/8, so the fake clock's differences are exact.
    durations = {
        "detailed": [4.0, 1.0, 2.0],
        "approximate": [0.5, 0.75, 0.25],
        "pooled": [0.375, 0.125, 0.25],
        "simulation": [8.0],
    }
    clock = [0.0]
    made = {name: [] for name in durations}

    def stub(name):
        class Stub:
            def __init__(self, **_config):
                self.calls = 0
                made[name].append(self)

            def evaluate(self, scenario):
                self.calls += 1
                clock[0] += durations[name][len(made[name]) - 1]
                return [PerformanceParams(1.0, 1.0, 0.1, 0.5) for _ in scenario]

        return Stub

    for name, attr in [
        ("detailed", "DetailedModel"),
        ("approximate", "ApproximateModel"),
        ("pooled", "PooledModel"),
        ("simulation", "SimulationModel"),
    ]:
        monkeypatch.setattr(ablations, attr, stub(name))
    monkeypatch.setattr(ablations.time, "perf_counter", lambda: clock[0])
    rows = ablations.run_models(horizon=10.0)
    assert {r.model: r.seconds for r in rows} == {
        "detailed": 1.0, "approximate": 0.25, "pooled": 0.125, "simulation": 8.0,
    }
    assert {name: len(models) for name, models in made.items()} == {
        "detailed": 3, "approximate": 3, "pooled": 3, "simulation": 1,
    }
    assert all(model.calls == 1 for models in made.values() for model in models)


@pytest.mark.slow
class TestRuns:
    """Each run on inputs small enough for the tier-1 budget."""

    def test_run_models(self):
        rows = ablations.run_models(horizon=3_000.0)
        assert [(r.model, r.sc) for r in rows] == [(m, sc) for m in SECONDS for sc in (0, 1)]
        assert all(r.error == 0.0 for r in rows if r.model == "detailed")

    def test_run_game(self):
        rows = ablations.run_game(strategy_step=5)
        assert [r.method for r in rows] == ["exhaustive", "tabu_d2", "tabu_d4"]
        assert ablations.check_game(rows) == []

    def test_run_truncation(self):
        rows = ablations.run_truncation()
        assert [(r.model, r.tail_epsilon) for r in rows] == [
            (m, eps) for m in ("no-sharing", "approximate") for eps in (1e-6, 1e-9, 1e-12)
        ]
        assert ablations.check_truncation(rows) == []

    def test_run_workloads(self):
        rows = ablations.run_workloads(horizon=2_000.0)
        assert [(r.knob, r.value) for r in rows] == [("burst", f) for f in (1.0, 2.0, 4.0)] + [
            ("scv", v) for v in (0.25, 1.0, 4.0)]
        assert all(r.isolated > r.federated for r in rows)
