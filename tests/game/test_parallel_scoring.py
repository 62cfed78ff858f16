"""Process-safe neighborhood scoring in the best responder.

The batch scorer scores Tabu neighborhoods and exhaustive scans through
a picklable module-level task, so process pools genuinely score them in
parallel (a closure would not pickle, and the pool would raise).  The
contract: same responses, same utilities, same evaluation
counts on every backend — parallel scoring is a performance knob, never
a semantics knob.
"""

from __future__ import annotations

import pickle

import pytest

from repro import obs
from repro.bench.scenarios import kscale_scenario
from repro.game.best_response import BestResponder, _score_trial_task
from repro.market.evaluator import UtilityEvaluator
from repro.perf.approximate import ApproximateModel
from repro.perf.pooled import PooledModel
from repro.runtime.executor import ProcessExecutor, SerialExecutor


def make_responder(executor=None, method="tabu", model=None):
    scenario = kscale_scenario(5, sharers=3, vms=2)
    if model is None:
        model = ApproximateModel(executor=executor)
    evaluator = UtilityEvaluator(scenario, model, gamma=0.5)
    spaces = [[0, 1, 2] if i < 3 else [0] for i in range(5)]
    responder = BestResponder(
        evaluator, spaces, method=method, executor=executor
    )
    return responder, evaluator


def respond_all(responder):
    profile = [1, 1, 1, 0, 0]
    return [responder.respond(profile, index) for index in range(3)]


class TestCrossBackendEquivalence:
    @pytest.mark.slow
    def test_process_matches_serial(self):
        serial_responder, serial_eval = make_responder(SerialExecutor())
        process_responder, process_eval = make_responder(ProcessExecutor(workers=2))
        assert respond_all(process_responder) == respond_all(serial_responder)
        assert process_eval.total_evaluations == serial_eval.total_evaluations

    def test_exhaustive_method_matches_too(self):
        serial_responder, _ = make_responder(SerialExecutor(), method="exhaustive")
        process_responder, _ = make_responder(
            ProcessExecutor(workers=2), method="exhaustive"
        )
        assert respond_all(process_responder) == respond_all(serial_responder)


class TestFullVectorModel:
    """A model without a target path: workers ship full vectors back and
    the parent seeds its params cache, so counts stay serial-equal."""

    @pytest.mark.parametrize("method", ["exhaustive", "tabu"])
    def test_process_matches_serial(self, method):
        serial_responder, serial_eval = make_responder(
            SerialExecutor(), method=method, model=PooledModel()
        )
        process_responder, process_eval = make_responder(
            ProcessExecutor(workers=2), method=method, model=PooledModel()
        )
        assert respond_all(process_responder) == respond_all(serial_responder)
        assert process_eval.total_evaluations == serial_eval.total_evaluations
        assert process_eval.target_evaluations == serial_eval.target_evaluations == 0

    def test_task_returns_the_full_vector(self):
        _, evaluator = make_responder(model=PooledModel())
        utility, params = _score_trial_task((evaluator, (1, 1, 1, 0, 0), 0))
        assert utility == evaluator.utility([1, 1, 1, 0, 0], 0)
        assert params == evaluator.params([1, 1, 1, 0, 0])
        assert evaluator.total_evaluations == 1


class TestScoreTask:
    def test_task_is_picklable(self):
        _, evaluator = make_responder()
        task = (evaluator, (1, 1, 1, 0, 0), 0)
        clone_fn, clone_task = pickle.loads(
            pickle.dumps((_score_trial_task, task))
        )
        utility, params = clone_fn(clone_task)
        assert utility == evaluator.utility([1, 1, 1, 0, 0], 0)
        assert params is not None

    def test_zero_share_trial_returns_no_params(self):
        _, evaluator = make_responder()
        utility, params = _score_trial_task((evaluator, (0, 1, 1, 0, 0), 0))
        assert params is None
        assert utility == evaluator.utility([0, 1, 1, 0, 0], 0)

    def test_no_pickle_fallback_on_process_pool(self):
        # The tasks solve in the workers, on shipped evaluator copies, and
        # the workers' counts come back merged: one solve per trial, none
        # of them in the parent.
        _, evaluator = make_responder()
        tasks = [
            (evaluator, (1, 1, 1, 0, 0), 0),
            (evaluator, (2, 1, 1, 0, 0), 0),
        ]
        with obs.capture(tracing=False, metrics=True) as cap:
            ProcessExecutor(workers=2).map(_score_trial_task, tasks)
        counters = dict(cap.snapshot().counter_view())
        assert counters["market.target.solve"] == 2
        assert evaluator.total_evaluations == 0
