"""Executor abstraction: serial and process map with one interface.

Both executors satisfy the same small contract:

- ``map(fn, items)`` returns ``[fn(x) for x in items]`` *in input order*,
  so a parallel run is result-identical to a serial one;
- ``workers`` reports the parallel width (1 for serial).

There is no thread backend: the parallel work in this code base is
independent, CPU-bound model solves, and a thread pool measured slower
than serial on the figure harness (DESIGN §11).

Pools are created per call rather than held on the executor.  That keeps
executor objects trivially picklable (they can ride inside task payloads
or model configs), and makes nested parallelism safe: an inner ``map``
issued from a worker gets a fresh pool instead of deadlocking on the
outer one.

``map`` is the only way a batch runs, and it carries worker metrics
back: with metrics on, :class:`ProcessExecutor` wraps every task in a
:class:`~repro.obs.metrics.MetricsTask` and merges the per-task
snapshots in input order, so merged counter totals equal a serial run's.

A process batch really leaves the process or fails loudly: a function or
item that cannot be pickled (a closure over live caches, a lambda) makes
``map`` raise the pickling error.  Nothing falls back to running in the
parent.  (A batch of at most one item is no batch: every backend runs it
inline and counts nothing.)
"""

from __future__ import annotations

import concurrent.futures
import os
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from typing import TypeVar

from repro import obs
from repro._validation import check_positive_int
from repro.analysis import sanitize
from repro.obs.metrics import MetricsSnapshot, MetricsTask, current_registry

T = TypeVar("T")
R = TypeVar("R")


def _worker_bootstrap(sanitize_active: bool, metrics_active: bool = False) -> None:
    """Per-process initializer run once in every spawned pool worker.

    The sanitizer switch is module-level state, so a worker spawned after
    a programmatic :func:`repro.analysis.sanitize.sanitize_enable` (the
    ``--sanitize`` CLI path) would start with it *off* and silently skip
    every invariant check.  The parent captures its switch at pool
    creation and replays it here; the environment variable is also set so
    any grandchild processes inherit the setting.

    The observability *metrics* switch gets the same replay: a worker
    whose hooks stayed off would return empty snapshots and the merged
    totals would silently undercount.  Tracing is deliberately NOT
    replayed — spans are per-process and workers contribute metrics
    snapshots, not span trees (see :mod:`repro.obs`).
    """
    if sanitize_active:
        os.environ[sanitize.SANITIZE_ENV_VAR] = "1"
        sanitize.sanitize_enable()
    if metrics_active:
        obs.obs_enable(tracing=False, metrics=True)


def _count_batch(n_items: int) -> None:
    """Record one dispatched batch.

    Deliberately identical on every backend (the serial executor counts
    the same batches a pool would), so merged counter totals are
    backend-independent — the property the differential checker's
    metrics-merge section asserts.
    """
    obs.inc("runtime.executor.batches")
    obs.inc("runtime.executor.tasks", n_items)


def _merge_worker_metrics(pairs: list[tuple[R, MetricsSnapshot]]) -> list[R]:
    """Merge ``(result, snapshot)`` pairs into the ambient registry in
    input order and return the bare results.

    The ordered map that makes parallel results bit-identical to serial
    ones makes the merged counter totals exactly equal a serial run's.
    """
    registry = current_registry()
    results: list[R] = []
    for result, snapshot in pairs:
        registry.merge_snapshot(snapshot)
        results.append(result)
    return results


def default_workers() -> int:
    """A sensible parallel width for this machine (``os.cpu_count()``)."""
    return max(os.cpu_count() or 1, 1)


class Executor(ABC):
    """Common interface of all executors."""

    #: Parallel width; 1 means the executor runs tasks inline.
    workers: int = 1

    @abstractmethod
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item, returning results in input order."""

    def chunksize(self, n_items: int) -> int:
        """Chunk size used when shipping ``n_items`` tasks to a pool.

        Four chunks per worker amortizes dispatch overhead while keeping
        the pool load-balanced when task durations vary.
        """
        return max(1, n_items // (self.workers * 4))


class SerialExecutor(Executor):
    """Runs every task inline, in order.  The reference semantics."""

    workers = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        with obs.span("runtime.map", backend="serial", tasks=len(items)):
            _count_batch(len(items))
            return [fn(item) for item in items]


class ProcessExecutor(Executor):
    """Process-pool executor.

    Processes sidestep the GIL, so this is the executor for pure
    CPU-bound tasks built from picklable pieces (model + scenario
    payloads, simulator replications).  Results flow back by value; any
    in-memory cache a worker fills stays in the worker, so callers that
    need worker solves in the parent ship them back with the result (see
    :func:`repro.game.best_response._score_trial_task`).  ``fn`` and every
    item must pickle: a batch that cannot leave the process raises.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = check_positive_int(
            workers if workers is not None else default_workers(), "workers"
        )

    def _pool(self) -> concurrent.futures.ProcessPoolExecutor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_worker_bootstrap,
            initargs=(sanitize.sanitize_enabled(), obs.metrics_active()),
        )

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        with obs.span("runtime.map", backend="process", tasks=len(items)):
            _count_batch(len(items))
            metrics = obs.metrics_active()
            task = MetricsTask(fn) if metrics else fn
            with self._pool() as pool:
                outputs = list(
                    pool.map(task, items, chunksize=self.chunksize(len(items)))
                )
            if metrics:
                outputs = _merge_worker_metrics(outputs)
            return outputs


def make_executor(workers: int | None) -> Executor:
    """Build an executor from a ``--workers`` style setting.

    ``None``, 0 or 1 yields the serial executor; a larger width yields a
    process pool of that width.
    """
    if workers is None or workers <= 1:
        return SerialExecutor()
    return ProcessExecutor(workers)
