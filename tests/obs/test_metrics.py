"""Tests for the metrics registry, snapshots, and the worker merge."""

from __future__ import annotations

import json
import pickle

import pytest

from repro import obs
from repro.obs import export
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, MetricsTask
from repro.runtime.executor import ProcessExecutor, SerialExecutor
from repro.sim.replications import replicate


def _square(x: int) -> int:
    return x * x


class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        snapshot = registry.snapshot()
        assert dict(snapshot.counters) == {"a": 5}

    def test_snapshot_is_deterministic_and_picklable(self):
        registry = MetricsRegistry()
        registry.inc("b")
        registry.inc("a")
        snapshot = registry.snapshot()
        assert [name for name, _ in snapshot.counters] == ["a", "b"]
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone == snapshot

    def test_counter_view_is_the_counters(self):
        registry = MetricsRegistry()
        registry.inc("n", 2)
        registry.inc("m")
        assert registry.snapshot().counter_view() == {"m": 1, "n": 2}

    def test_recordings_counts_hook_crossings(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 3)
        registry.inc("b")
        assert registry.recordings() == 3

    def test_to_dict_round_trips_the_content(self):
        registry = MetricsRegistry()
        registry.inc("a", 2)
        assert registry.snapshot().to_dict() == {"counters": {"a": 2}}


class TestWriteMetrics:
    def test_payload_keys(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("a", 2)
        path = export.write_metrics(registry.snapshot(), tmp_path / "m.json")
        payload = json.loads(path.read_text())
        assert payload == {
            "format": "repro.obs.metrics",
            "version": 2,
            "counters": {"a": 2},
        }


class TestHooks:
    def test_hooks_record_into_ambient_registry(self):
        with obs.capture(tracing=False) as cap:
            obs.inc("calls")
            obs.inc("calls", 2)
        snapshot = cap.snapshot()
        assert dict(snapshot.counters) == {"calls": 3}

    def test_metrics_task_returns_result_and_snapshot(self):
        task = MetricsTask(lambda x: x * 2)
        with obs.capture(tracing=False):
            result, snapshot = task(21)
        assert result == 42
        assert isinstance(snapshot, MetricsSnapshot)


class TestExecutorMapMetrics:
    """``Executor.map`` with metrics on carries worker metrics back: merged
    totals are backend-independent."""

    @staticmethod
    def _counts(executor) -> dict[str, int]:
        from repro.analysis.differential import SCENARIOS

        scenario = SCENARIOS["quick"].scenario
        with obs.capture(tracing=False) as cap:
            replicate(
                scenario,
                replications=3,
                horizon=200.0,
                warmup=20.0,
                executor=executor,
            )
        return dict(cap.snapshot().counter_view())

    def test_metrics_off_is_plain_map(self):
        calls = []
        executor = SerialExecutor()
        assert executor.map(lambda x: calls.append(x) or x, [1, 2]) == [1, 2]
        assert calls == [1, 2]

    @pytest.mark.slow
    def test_process_merge_equals_serial(self):
        serial = self._counts(SerialExecutor())
        assert serial["sim.replications"] == 3
        process = self._counts(ProcessExecutor(workers=2))
        assert process == serial

    def test_results_stay_in_input_order(self):
        executor = ProcessExecutor(workers=2)
        with obs.capture(tracing=False) as cap:
            results = executor.map(_square, list(range(10)))
        assert dict(cap.snapshot().counter_view())["runtime.executor.tasks"] == 10
        assert results == [x * x for x in range(10)]


class TestHarnessWorkerMetrics:
    """The figure harnesses' process batches carry worker counters back:
    apart from the executor's own ``runtime.*`` bookkeeping, a process
    run counts exactly what a serial run counts."""

    @staticmethod
    def _counts(run, executor) -> dict[str, int]:
        with obs.capture(tracing=False, metrics=True) as cap:
            run(executor)
        return {
            name: value
            for name, value in cap.snapshot().counter_view().items()
            if not name.startswith("runtime.")
        }

    def _assert_backends_agree(self, run, expected):
        serial = self._counts(run, SerialExecutor())
        for name in expected:
            assert serial[name] > 0
        assert self._counts(run, ProcessExecutor(2)) == serial

    def test_fig5_simulation_counters(self):
        from repro.bench.fig5 import run_fig5

        self._assert_backends_agree(
            lambda executor: run_fig5(
                utilizations=(0.6,), horizon=300, executor=executor
            ),
            ("sim.arrivals", "sim.engine.events"),
        )

    @pytest.mark.slow
    def test_fig6_solver_counters(self):
        from repro.bench.fig6 import run_fig6_2sc

        self._assert_backends_agree(
            lambda executor: run_fig6_2sc(target_rates=(6.0,), executor=executor),
            ("markov.solve.direct", "markov.solve.bicgstab", "perf.level_cache.miss"),
        )
