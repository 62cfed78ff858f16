"""SC-Share benchmark: ``python3 perfbench/run.py --workload NAME``.

Runs one workload (see ``workloads.py`` and ``README.md``) from the root
of a source checkout, checks every operation's output, and prints a
human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, with
times rescaled to the reference host speed of ``speed.py``; ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics,
the uncovered ``other`` time and the tracing overhead, as measured.
The exit code is 0 only when every output check and determinism check
passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

from speed import REFERENCE_S, Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: One BLAS thread: the serial configuration, and on 2 shared cores the
#: default two threads spread the cold K=20 evaluate over 5.4-7.6 s
#: against 4.5-5.9 s with one.  Set before NumPy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

#: Fresh-interpreter set-ups per run; their median is ``setup_s``.
SETUPS = 5

#: Output tolerance against a reference of the same seed: model outputs
#: within this relative distance (the solver tolerance contract),
#: simulator outputs bit for bit.
MODEL_RTOL = 1e-9
#: Looser tolerance against the seed-0 reference for other seeds, whose
#: inputs differ from it by a relative 1e-6.
NEARBY_RTOL = 1e-3

#: Program counters that must repeat exactly for the same code and seed.
CANARY_COUNTERS = (
    "markov.solve.direct",
    "markov.solve.gmres",
    "markov.solve.power",
    "markov.power.iterations",
    "market.params.solve",
    "market.target.solve",
    "sim.engine.events",
    "game.rounds",
)


class Pass:
    """One pass over a workload's operations: latencies, outputs, counts."""

    def __init__(self) -> None:
        #: ``time.perf_counter`` stamps of each operation's start and end.
        self.spans: list[tuple[float, float]] = []
        #: ``latencies`` at the reference host speed, once known.
        self.scaled: list[float] = []
        self.outputs: list[Any] = []
        self.errors: list[str] = []
        self.counts: dict[str, int] = {}
        self.timer: Any = None
        self.setup_timer: Any = None

    @property
    def latencies(self) -> list[float]:
        return [end - start for start, end in self.spans]

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    @property
    def scaled_wall_s(self) -> float:
        return sum(self.scaled)


def run_pass(workload: Any, seed: int, traced: bool) -> Pass:
    """Set up a fresh state and run every operation once, in order."""
    from contextlib import nullcontext

    from layers import LayerTimer, Patched
    from repro import obs

    result = Pass()
    if traced:
        result.setup_timer = LayerTimer()
        result.timer = LayerTimer()
    with Patched(result.setup_timer) if traced else nullcontext():
        state = workload.setup(seed)
    ops = workload.ops(state)
    raw: list[Any] = []
    with obs.capture(tracing=False, metrics=True) as cap:
        with Patched(result.timer) if traced else nullcontext():
            for label, thunk in ops:
                began = time.perf_counter()
                try:
                    raw.append(thunk())
                except Exception:  # an operation that raises counts as failed
                    raw.append(None)
                    trace = traceback.format_exc()
                    result.errors.append(f"{label}: {trace.strip().splitlines()[-1]}")
                    print(f"operation {label} raised:\n{trace}", file=sys.stderr)
                result.spans.append((began, time.perf_counter()))
    view = cap.snapshot().counter_view()
    result.counts = {name: int(view.get(name, 0)) for name in CANARY_COUNTERS}
    result.counts.update(workload.counts(state))
    result.outputs = [None if r is None else workload.output(r) for r in raw]
    return result


# --------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------- #


def same(a: Any, b: Any, rtol: float) -> bool:
    """Structural equality with floats compared at relative ``rtol``
    (``rtol=0`` is bitwise; NaN equals NaN)."""
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k], rtol) for k in a)
    return a == b


def sane(value: Any) -> bool:
    """No NaN or infinite float anywhere in an output."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (list, tuple)):
        return all(sane(v) for v in value)
    if isinstance(value, dict):
        return all(sane(v) for v in value.values())
    return True


def load_outputs(path: Path) -> list[Any]:
    return json.loads(path.read_text())["outputs"]


def check_outputs(
    workload: Any, seed: int, outputs: list[Any], against: Path | None
) -> tuple[list[bool], str]:
    """Per-operation verdicts and a description of what they were checked against."""
    from workloads import DEFAULT_SEED

    strict = 0.0 if workload.kind == "sim" else MODEL_RTOL
    reference_path = HERE / "reference" / f"{workload.name}.json"
    if against is not None:
        expected, rtol, what = load_outputs(against), strict, f"{against} (rtol {strict:g})"
    elif seed == DEFAULT_SEED:
        expected, rtol, what = load_outputs(reference_path), strict, f"pinned reference (rtol {strict:g})"
    elif workload.kind == "model":
        expected, rtol = load_outputs(reference_path), NEARBY_RTOL
        what = f"seed-0 reference at rtol {NEARBY_RTOL:g} (inputs differ by 1e-6)"
    else:
        return [out is not None and sane(out) for out in outputs], "finite outputs (no reference for this seed)"
    if len(expected) != len(outputs):
        return [False] * len(outputs), f"{what}: {len(expected)} reference outputs"
    verdicts = [
        out is not None and sane(out) and same(out, ref, rtol)
        for out, ref in zip(outputs, expected)
    ]
    return verdicts, what


# --------------------------------------------------------------------- #
# provenance and records
# --------------------------------------------------------------------- #


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def provenance(workload: str, seed: int) -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "reference_loop_s": REFERENCE_S,
    }


def canary(workload: str, seed: int, prov: dict[str, Any], passes: list[Pass]) -> list[str]:
    """Exact counts and outputs must repeat for the same code and seed:
    across the passes of this run and against an earlier run's record."""
    problems = [
        f"pass {i}: counts {p.counts} != pass 0 counts {passes[0].counts}"
        for i, p in enumerate(passes[1:], start=1)
        if p.counts != passes[0].counts
    ]
    problems += [
        f"pass {i}: outputs differ from pass 0"
        for i, p in enumerate(passes[1:], start=1)
        if not same(p.outputs, passes[0].outputs, 0.0)
    ]
    record = OUT / f"{workload}-seed{seed}.json"
    previous = json.loads(record.read_text()) if record.exists() else None
    if previous is not None and previous["provenance"]["source_digest"] == prov["source_digest"]:
        if previous["counts"] != passes[0].counts:
            problems.append(f"counts {passes[0].counts} != earlier run's {previous['counts']}")
        if not same(previous["outputs"], passes[0].outputs, 0.0):
            problems.append("outputs differ from an earlier run of the same code")
        return problems
    OUT.mkdir(exist_ok=True)
    tmp = record.with_suffix(".tmp")
    tmp.write_text(
        json.dumps({"provenance": prov, "counts": passes[0].counts, "outputs": passes[0].outputs})
    )
    os.replace(tmp, record)
    return problems


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float, float]]:
    """Set-up time of ``SETUPS`` fresh interpreters, run one at a time,
    each with the ``time.perf_counter`` stamps around its process."""
    samples = []
    for _ in range(SETUPS):
        began = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append((float(done.stdout.strip().splitlines()[-1]), began, time.perf_counter()))
    return samples


def tail(latencies: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile above the median with at least ten
    operations beyond it, and the latency there (nearest rank)."""
    n = len(latencies)
    percentile = math.floor(100 * (1 - 10 / n)) if n else 0
    if percentile <= 50:
        return None
    rank = math.ceil(percentile / 100 * n)
    return percentile, sorted(latencies)[rank - 1]


def end_to_end(
    passes: list[Pass], setup_samples: list[tuple[float, float, float]], speed: Speedometer
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """The BENCHMARK.json end-to-end metrics, and the table-only extras."""
    latencies = [t for p in passes for t in p.scaled]
    setups = [speed.rescale(*sample) for sample in setup_samples]
    raw_setups = [seconds for seconds, _, _ in setup_samples]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p.scaled_wall_s for p in passes), "s"),
        "first_op_s": (statistics.median(p.scaled[0] for p in passes), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    loops = speed.summary()
    extras = [
        f"times are at the reference host speed (loop {REFERENCE_S * 1e3:g} ms); loop samples: "
        f"n={loops['n']}, min {loops['min_s'] * 1e3:.3f}, median {loops['median_s'] * 1e3:.3f}, "
        f"max {loops['max_s'] * 1e3:.3f} ms",
        "raw setup_s {:.6f}  raw wall_s {:.6f}  raw first_op_s {:.6f}  raw op_p50_s {:.6f}".format(
            statistics.median(raw_setups),
            statistics.median(p.wall_s for p in passes),
            statistics.median(p.latencies[0] for p in passes),
            statistics.median(t for p in passes for t in p.latencies),
        ),
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
        f"op_p50_s over n={len(latencies)} operations in {len(passes)} pass(es)",
    ]
    high = tail(latencies)
    if high is None:
        extras.append(f"op_tail_s  absent: n={len(latencies)} leaves no percentile above p50 with 10 beyond")
    else:
        extras.append(f"op_tail_s  {high[1]:.6f} s  (p{high[0]}, n={len(latencies)})")
    events = statistics.median(p.counts["sim.engine.events"] for p in passes)
    if events:
        rate = statistics.median(p.counts["sim.engine.events"] / p.scaled_wall_s for p in passes)
        extras.append(f"sim_events_per_s  {rate:.1f} 1/s  ({int(events)} engine events per pass)")
    else:
        extras.append("sim_events_per_s  absent: no simulator events in this workload")
    return metrics, extras


def per_layer(untraced: Pass, traced: Pass) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics of the traced pass, and the layer table."""
    from layers import LAYERS

    timer = traced.timer
    counts = traced.counts
    hits, misses = counts.get("level_cache.hits", 0), counts.get("level_cache.misses", 0)
    solves = counts["market.params.solve"] + counts["market.target.solve"]
    other = traced.wall_s - sum(timer.self_s.values())
    metrics: dict[str, tuple[float, str]] = {
        "markov.steady_state.calls": (timer.calls["markov.steady_state"], "count"),
        "markov.steady_state.self_s": (timer.self_s["markov.steady_state"], "s"),
        "markov.steady_state.states": (timer.states, "count"),
        "markov.solve.direct": (counts["markov.solve.direct"], "count"),
        "markov.solve.power": (counts["markov.solve.power"], "count"),
        "markov.power.iterations": (counts["markov.power.iterations"], "count"),
        "markov.transient.calls": (timer.calls["markov.transient"], "count"),
        "markov.transient.self_s": (timer.self_s["markov.transient"], "s"),
        "perf.interaction.calls": (timer.calls["perf.interaction"], "count"),
        "perf.interaction.self_s": (timer.self_s["perf.interaction"], "s"),
        "perf.approximate.calls": (timer.calls["perf.approximate"], "count"),
        "perf.approximate.self_s": (timer.self_s["perf.approximate"], "s"),
        "perf.level_cache.hits": (hits, "count"),
        "perf.level_cache.misses": (misses, "count"),
        "perf.level_cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "perf.pooled.calls": (timer.calls["perf.pooled"], "count"),
        "perf.pooled.self_s": (timer.self_s["perf.pooled"], "s"),
        "market.queries": (
            timer.fn_calls["repro.market.evaluator:UtilityEvaluator.params"]
            + timer.fn_calls["repro.market.evaluator:UtilityEvaluator.params_target"],
            "count",
        ),
        "market.model_solves": (solves, "count"),
        "market.distinct_vectors": (len(timer.vectors), "count"),
        "market.useful_solve_ratio": (len(timer.vectors) / solves if solves else 0.0, "ratio"),
        "market.self_s": (timer.self_s["market"], "s"),
        "game.rounds": (counts["game.rounds"], "count"),
        "game.respond_calls": (timer.fn_calls["repro.game.best_response:BestResponder.respond"], "count"),
        "game.self_s": (timer.self_s["game"], "s"),
        "game.social_optimum_s": (timer.inclusive_s["game.social_optimum"], "s"),
        "sim.run.calls": (timer.calls["sim"], "count"),
        "sim.run.self_s": (timer.self_s["sim"], "s"),
        "sim.engine.events": (counts["sim.engine.events"], "count"),
        "scenarios.resolve_s": (traced.setup_timer.inclusive_s["scenarios.resolve"], "s"),
        "scenarios.runner.self_s": (timer.self_s["scenarios.runner"], "s"),
        "other_s": (other, "s"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.overhead_s": (traced.wall_s - untraced.wall_s, "s"),
    }
    table = [f"{'layer':<24}{'calls':>9}{'self_s':>12}{'share':>8}"]
    for layer in LAYERS:
        self_s = timer.self_s[layer]
        table.append(
            f"{layer:<24}{timer.calls[layer]:>9}{self_s:>12.4f}{self_s / traced.wall_s:>8.1%}"
        )
    table.append(f"{'other':<24}{'':>9}{other:>12.4f}{other / traced.wall_s:>8.1%}")
    setup = traced.setup_timer
    table.append(
        f"set-up, outside the pass: scenarios.resolve {setup.calls['scenarios.resolve']} calls, "
        f"{setup.inclusive_s['scenarios.resolve']:.4f} s"
    )
    table.append(
        f"traced wall {traced.wall_s:.4f} s, untraced wall {untraced.wall_s:.4f} s, "
        f"tracing overhead {traced.wall_s - untraced.wall_s:+.4f} s"
    )
    return metrics, table


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("tabu-fig7", "market-fig7", "sim-corpus")
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed; 0 is the pinned configuration")
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="measuring time: passes repeat while the next one is expected to fit (at least one)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--against", type=Path, default=None,
        help="check outputs against this earlier record (.perfbench_out/*.json) at the strict tolerance",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'repro'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    prov = provenance(args.workload, args.seed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))

    passes: list[Pass] = []
    setup_samples: list[tuple[float, float, float]] = []
    with Speedometer() as speed:
        started = time.perf_counter()
        while True:
            began = time.perf_counter()
            passes.append(run_pass(workload, args.seed, traced=False))
            last = time.perf_counter() - began
            if args.trace or time.perf_counter() - started + last > args.seconds:
                break
        if args.trace:
            traced = run_pass(workload, args.seed, traced=True)
        else:
            setup_samples = setup_seconds(args.workload, args.seed)
    for p in passes:
        p.scaled = [speed.rescale(t, *span) for t, span in zip(p.latencies, p.spans)]
    checked = passes + [traced] if args.trace else list(passes)

    verdicts: list[bool] = []
    for p in checked:
        ok, what = check_outputs(workload, args.seed, p.outputs, args.against)
        verdicts += ok
    problems = canary(args.workload, args.seed, prov, checked)
    attempted, failed = len(verdicts), verdicts.count(False)
    print(f"outputs checked against {what}: {attempted - failed}/{attempted} ok")
    for p in checked:
        for error in p.errors:
            print(f"FAILED {error}")
    for problem in problems:
        print(f"INVALID RUN (nondeterministic): {problem}")
    print("counts: " + " ".join(f"{k}={v}" for k, v in passes[0].counts.items()))

    if args.trace:
        metrics, lines = per_layer(passes[0], traced)
    else:
        metrics, lines = end_to_end(passes, setup_samples, speed)
    print(f"{'metric':<28}{'value':>16}  unit")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28}{value:>16.6g}  {unit}")
    for line in lines:
        print(line)
    print(f"failed_ops_frac  {failed / attempted:.4f}  ({failed} of {attempted} operations)")

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
