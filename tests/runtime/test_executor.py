"""Tests for the executor abstraction."""

import threading

import pytest

from repro.runtime.executor import (
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)


def _square(x):
    return x * x


ALL_EXECUTORS = [SerialExecutor(), ProcessExecutor(2)]


class TestMapContract:
    @pytest.mark.parametrize("executor", ALL_EXECUTORS, ids=lambda e: type(e).__name__)
    def test_map_preserves_input_order(self, executor):
        items = list(range(20))
        assert executor.map(_square, items) == [x * x for x in items]

    @pytest.mark.parametrize("executor", ALL_EXECUTORS, ids=lambda e: type(e).__name__)
    def test_map_empty(self, executor):
        assert executor.map(_square, []) == []

    def test_executors_agree(self):
        items = list(range(7))
        serial = SerialExecutor().map(_square, items)
        assert ProcessExecutor(3).map(_square, items) == serial


class TestFallbacks:
    """There is no in-parent fallback: a process batch leaves the process
    or raises."""

    # These two tests keep the names they had when an unpicklable batch
    # fell back to running serially in the parent; they now assert the
    # opposite: the pool raises the pickling error and nothing runs here.

    def test_process_executor_falls_back_on_closures(self):
        captured = []

        def closure(x):
            captured.append(x)
            return -x

        with pytest.raises(Exception, match="pickle"):
            ProcessExecutor(2).map(closure, [1, 2, 3])
        assert captured == []

    def test_process_executor_falls_back_on_unpicklable_items(self):
        with pytest.raises(Exception, match="pickle"):
            ProcessExecutor(2).map(_square, [1, threading.Lock(), 3])

    def test_single_item_runs_inline(self):
        assert ProcessExecutor(4).map(_square, [7]) == [49]
        assert SerialExecutor().map(_square, [7]) == [49]


class TestMakeExecutor:
    def test_one_worker_is_serial(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(0), SerialExecutor)
        assert isinstance(make_executor(None), SerialExecutor)

    def test_kinds(self):
        # The width alone picks the backend: more than one worker means a
        # process pool.
        assert isinstance(make_executor(2), ProcessExecutor)
        assert isinstance(make_executor(4), ProcessExecutor)

    def test_workers_recorded(self):
        assert make_executor(4).workers == 4
        assert make_executor(1).workers == 1

    def test_unknown_kind_rejected(self):
        # There is no executor-kind argument any more.
        with pytest.raises(TypeError):
            make_executor(4, kind="thread")

    def test_chunksize_positive(self):
        executor = ProcessExecutor(4)
        assert executor.chunksize(0) == 1
        assert executor.chunksize(1) == 1
        assert executor.chunksize(1000) >= 1
