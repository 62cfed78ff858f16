"""Benchmark harness: regenerates every figure of the paper's evaluation.

One module per figure (5–8), each exposing a ``run_*`` function returning
structured rows, a ``render`` helper that prints the same series the
paper plots, and checks (``check_shape`` or one ``check_*`` per table)
that list the rows' violations of the paper's claims;
:mod:`repro.bench.ablations` does the same for the ablation and
workload-extension runs.  ``python -m repro.bench.runner
<figure>`` is the one driver: it runs the harnesses and prints each
table with its violations.  The harness modules are not imported here,
so importing the scenario constants stays cheap.

Scenario constants (the paper's parameter choices) live in
:mod:`repro.bench.scenarios` so tests, benches, and examples agree on
them.
"""

from repro.bench.scenarios import (
    fig5_configurations,
    fig6_2sc_scenario,
    fig6_10sc_scenario,
    fig6_100vm_scenario,
    fig7_scenario,
    fig8_game_scenario,
    fig8_perf_scenario,
)

__all__ = [
    "fig5_configurations",
    "fig6_2sc_scenario",
    "fig6_10sc_scenario",
    "fig6_100vm_scenario",
    "fig7_scenario",
    "fig8_game_scenario",
    "fig8_perf_scenario",
]
