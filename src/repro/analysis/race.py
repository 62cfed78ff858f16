"""Dynamic race harness for the parallel runtime's shared state.

The static rules (RPR201–RPR205, :mod:`repro.analysis.concurrency`) check
lock *discipline*; this module checks lock *behavior*.  It drives the
runtime's shared-state classes — :class:`repro.runtime.memo.LRUCache`,
the :class:`repro.runtime.cache.DiskParamsCache` memory tier, and the
:class:`repro.market.evaluator.UtilityEvaluator` pending tables — under
controlled thread schedules, records ``(thread, op, key, generation)``
events, and compares the observable outcomes against serial oracles:

- **Serialized schedules** (seeded interleavings enforced step-by-step
  with :class:`threading.Event` gates) replay the exact same global op
  order on a fresh cache in one thread; any divergence in contents or
  counters is a lost update or a torn statistic.  Only non-blocking ops
  run serialized — a blocking op whose wake-up partner is later in the
  schedule would deadlock the gate chain.
- **Storm schedules** (barrier-aligned free-running threads) exercise
  the blocking single-flight paths (``get_or_create``, ``params``) and
  assert the invariants that hold under *any* interleaving: zero
  duplicate builds, one factory/model solve per distinct key, identical
  payloads for every caller of one key, internally consistent stats.

Run it from the command line::

    python -m repro.analysis.race --quick
    python -m repro.analysis.race --seeds 5 --threads 8 --output report.json

Exit status is 0 when every check passes, 1 otherwise; ``--output``
writes the machine-readable report consumed by CI.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from repro._validation import check_non_negative_int, check_positive_int, require
from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.market.evaluator import UtilityEvaluator
from repro.perf.base import PerformanceModel
from repro.perf.params import PerformanceParams
from repro.runtime.cache import DiskParamsCache
from repro.runtime.memo import LRUCache

__all__ = [
    "AccessEvent",
    "AccessLog",
    "InstrumentedLRUCache",
    "RaceCheck",
    "ScheduleFuzzer",
    "main",
    "run_harness",
]

#: Join timeout (seconds) after which a schedule is declared deadlocked.
_JOIN_TIMEOUT = 30.0

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass(frozen=True)
class AccessEvent:
    """One recorded shared-state access.

    Attributes:
        thread: harness thread index (not the OS thread id).
        op: operation label (``"get"``, ``"put"``, ``"build"``, ...).
        key: string form of the touched key.
        generation: global sequence number assigned under the log lock.
    """

    thread: int
    op: str
    key: str
    generation: int


class AccessLog:
    """Thread-safe append-only event recorder.

    The generation counter gives every event a global order even when
    two threads record "simultaneously" — whoever takes the log lock
    first is earlier.  Harness-only object: it never crosses a process
    boundary, so it deliberately carries no pickle support.
    """

    def __init__(self) -> None:
        self._events: list[AccessEvent] = []  # guarded-by: _lock
        self._generation = 0  # guarded-by: _lock
        self._lock = threading.Lock()  # repro: noqa[RPR204]

    def record(self, thread: int, op: str, key: object) -> AccessEvent:
        """Append one event, assigning it the next generation number."""
        with self._lock:
            event = AccessEvent(
                thread=thread, op=op, key=repr(key), generation=self._generation
            )
            self._generation += 1
            self._events.append(event)
            return event

    def events(self) -> list[AccessEvent]:
        """A snapshot of all events in generation order."""
        with self._lock:
            return list(self._events)

    def count(self, op: str) -> int:
        """Number of recorded events with operation label ``op``."""
        with self._lock:
            return sum(1 for event in self._events if event.op == op)


class InstrumentedLRUCache(LRUCache[K, V]):
    """An :class:`LRUCache` that records every public operation.

    The recording happens *around* the delegated call (the cache's own
    lock stays private), so the log shows each op's start order — enough
    to reconstruct which accesses overlapped.
    """

    def __init__(self, log: AccessLog, maxsize: int | None = 128) -> None:
        require(
            isinstance(log, AccessLog),
            f"log must be an AccessLog, got {type(log).__name__}",
        )
        super().__init__(maxsize=maxsize)
        self.access_log = log

    def _thread_index(self) -> int:
        ident = getattr(threading.current_thread(), "harness_index", None)
        return ident if isinstance(ident, int) else -1

    def get(self, key: K) -> V | None:
        self.access_log.record(self._thread_index(), "get", key)
        return super().get(key)

    def put(self, key: K, value: V) -> None:
        self.access_log.record(self._thread_index(), "put", key)
        super().put(key, value)

    def pop(self, key: K) -> V | None:
        self.access_log.record(self._thread_index(), "pop", key)
        return super().pop(key)

    def get_or_create(self, key: K, factory: Callable[[], V]) -> V:
        thread = self._thread_index()
        self.access_log.record(thread, "get_or_create", key)

        def logged_factory() -> V:
            self.access_log.record(thread, "build", key)
            return factory()

        return super().get_or_create(key, logged_factory)


class ScheduleFuzzer:
    """Seeded scheduler driving per-thread op programs.

    Args:
        seed: master seed; every interleaving is a pure function of it.

    Two modes:

    - :meth:`run_serialized` — ops execute one at a time in a seeded
      global interleaving (per-thread program order preserved), enforced
      with one :class:`threading.Event` gate per step.  Deterministic,
      so a serial replay of the same order is an exact oracle.
    - :meth:`run_storm` — threads align on a barrier, then free-run
      their programs.  Nondeterministic by design; used for blocking
      ops where a serialized schedule could deadlock.
    """

    def __init__(self, seed: int) -> None:
        self.seed = check_non_negative_int(seed, "seed")
        self._rng = np.random.default_rng(seed)

    def interleaving(self, program_lengths: Sequence[int]) -> list[int]:
        """A seeded global order over per-thread programs.

        Returns a list of thread indices: thread ``t`` appears exactly
        ``program_lengths[t]`` times, and occurrences of each thread are
        in program order.  Shuffling the multiset of thread ids yields a
        uniform random interleaving that preserves per-thread order.
        """
        order = [
            tid for tid, length in enumerate(program_lengths) for _ in range(length)
        ]
        self._rng.shuffle(order)
        return order

    def run_serialized(
        self, programs: Sequence[Sequence[Callable[[], object]]]
    ) -> tuple[list[int], list[str]]:
        """Execute ``programs`` under one seeded serialized interleaving.

        Returns ``(order, errors)`` where ``order`` is the global
        schedule (thread index per step) and ``errors`` collects
        formatted exceptions from worker threads (empty on success, and
        containing ``"deadlock"`` if the gate chain stalled).
        """
        order = self.interleaving([len(program) for program in programs])
        gates = [threading.Event() for _ in order]
        steps_of: dict[int, list[int]] = {tid: [] for tid in range(len(programs))}
        for step, tid in enumerate(order):
            steps_of[tid].append(step)
        errors: list[str] = []
        errors_lock = threading.Lock()

        def worker(tid: int) -> None:
            setattr(threading.current_thread(), "harness_index", tid)
            try:
                for op, step in zip(programs[tid], steps_of[tid]):
                    if not gates[step].wait(timeout=_JOIN_TIMEOUT):
                        raise TimeoutError(f"gate {step} never opened")
                    try:
                        op()
                    finally:
                        if step + 1 < len(gates):
                            gates[step + 1].set()
            except Exception as exc:  # propagate into the report
                with errors_lock:
                    errors.append(f"thread {tid}: {type(exc).__name__}: {exc}")
                # Open every remaining gate so the other threads drain
                # instead of hanging on a step that will never run.
                for gate in gates:
                    gate.set()

        threads = [
            threading.Thread(target=worker, args=(tid,), daemon=True)
            for tid in range(len(programs))
        ]
        if gates:
            gates[0].set()
        for thread in threads:
            thread.start()
        deadlocked = _join_all(threads)
        if deadlocked:
            errors.append("deadlock: serialized schedule did not complete")
        return order, errors

    def run_storm(
        self, programs: Sequence[Sequence[Callable[[], object]]]
    ) -> list[str]:
        """Execute ``programs`` concurrently from a barrier-aligned start."""
        barrier = threading.Barrier(len(programs))
        errors: list[str] = []
        errors_lock = threading.Lock()

        def worker(tid: int) -> None:
            setattr(threading.current_thread(), "harness_index", tid)
            try:
                barrier.wait(timeout=_JOIN_TIMEOUT)
                for op in programs[tid]:
                    op()
            except Exception as exc:
                with errors_lock:
                    errors.append(f"thread {tid}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=worker, args=(tid,), daemon=True)
            for tid in range(len(programs))
        ]
        for thread in threads:
            thread.start()
        if _join_all(threads):
            errors.append("deadlock: storm schedule did not complete")
        return errors


def _join_all(threads: Sequence[threading.Thread]) -> bool:
    """Join every thread; ``True`` when any is still alive (deadlock)."""
    deadline = time.monotonic() + _JOIN_TIMEOUT
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    return any(thread.is_alive() for thread in threads)


class _ToyModel(PerformanceModel):
    """Deterministic analytic stand-in model with a tunable solve delay.

    Parameters are a pure closed-form function of the scenario (no
    solver), so every evaluation of one sharing vector is bit-identical;
    the optional delay widens race windows in the evaluator's
    single-flight path.  Call counters let checks assert that each
    distinct vector was solved exactly once.
    """

    def __init__(self, delay: float = 0.0) -> None:
        if delay < 0.0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.delay = delay
        self.calls = 0  # guarded-by: _calls_lock
        self.target_calls = 0  # guarded-by: _calls_lock
        self._calls_lock = threading.Lock()

    def evaluate(self, scenario: FederationScenario) -> list[PerformanceParams]:
        with self._calls_lock:
            self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        return [self._params(scenario, i) for i in range(len(scenario))]

    def evaluate_target(
        self,
        scenario: FederationScenario,
        target: int,
    ) -> PerformanceParams:
        with self._calls_lock:
            self.target_calls += 1
        if self.delay:
            time.sleep(self.delay)
        return self._params(scenario, int(target))

    @staticmethod
    def _params(scenario: FederationScenario, index: int) -> PerformanceParams:
        cloud = scenario[index]
        others = scenario.shared_by_others(index)
        return PerformanceParams(
            lent_mean=0.5 * cloud.shared_vms,
            borrowed_mean=0.25 * others,
            forward_rate=0.05 * cloud.arrival_rate,
            utilization=min(0.95, cloud.offered_load / cloud.vms),
        )

    # Ship configuration only, like the real models' caches: counters
    # and the lock are per-process diagnostics.
    def __getstate__(self) -> dict[str, float]:
        return {"delay": self.delay}

    def __setstate__(self, state: dict[str, float]) -> None:
        self.delay = state["delay"]
        self.calls = 0
        self.target_calls = 0
        self._calls_lock = threading.Lock()


def _toy_scenario() -> FederationScenario:
    return FederationScenario(
        clouds=(
            SmallCloud(name="sc1", vms=4, arrival_rate=2.0),
            SmallCloud(name="sc2", vms=5, arrival_rate=2.5),
            SmallCloud(name="sc3", vms=6, arrival_rate=3.0),
        )
    )


def _stat(stats: dict[str, int | None], name: str) -> int:
    """A counter from a stats snapshot (``maxsize`` alone may be None)."""
    value = stats[name]
    return value if value is not None else 0


def _params_fingerprint(params: Sequence[PerformanceParams]) -> tuple[str, ...]:
    """Bit-exact value key of a parameter list (``float.hex`` per field)."""
    fields = ("lent_mean", "borrowed_mean", "forward_rate", "utilization")
    return tuple(
        float(getattr(entry, name)).hex() for entry in params for name in fields
    )


@dataclass(frozen=True)
class RaceCheck:
    """Outcome of one harness check."""

    name: str
    seed: int
    ok: bool
    details: dict

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "ok": self.ok,
            "details": self.details,
        }


# --------------------------------------------------------------------- #
# Check 1: serialized LRU schedules vs. a serial-replay oracle.
# --------------------------------------------------------------------- #


def check_lru_serialized(seed: int, threads: int, ops_per_thread: int = 24) -> RaceCheck:
    """Lost-update / torn-stats check for :class:`LRUCache` get/put/pop.

    A seeded serialized interleaving of non-blocking ops is executed by
    real threads (one at a time, gate-enforced), then the *same* global
    op order is replayed on a fresh cache in a single thread.  Because
    every op is atomic under the cache lock, the two executions must
    agree exactly — keys, LRU order, values, and hit/miss counters.  A
    divergence means an op's effect was lost or a counter was torn.
    """
    rng = np.random.default_rng(seed)
    keys = [f"k{i}" for i in range(4)]
    # Programs as data so the replay oracle can re-execute them.
    programs: list[list[tuple[str, str, object]]] = []
    for tid in range(threads):
        program: list[tuple[str, str, object]] = []
        for step in range(ops_per_thread):
            key = keys[int(rng.integers(len(keys)))]
            roll = float(rng.random())
            if roll < 0.45:
                program.append(("put", key, (tid, step)))
            elif roll < 0.9:
                program.append(("get", key, None))
            else:
                program.append(("pop", key, None))
        programs.append(program)

    log = AccessLog()
    cache: InstrumentedLRUCache = InstrumentedLRUCache(log, maxsize=3)

    def bind(op: tuple[str, str, object]) -> Callable[[], object]:
        kind, key, value = op
        if kind == "put":
            return lambda: cache.put(key, value)
        if kind == "get":
            return lambda: cache.get(key)
        return lambda: cache.pop(key)

    fuzzer = ScheduleFuzzer(seed)
    order, errors = fuzzer.run_serialized(
        [[bind(op) for op in program] for program in programs]
    )

    # Serial-replay oracle: the same global order on a fresh cache.
    oracle: LRUCache = LRUCache(maxsize=3)
    cursors = [0] * threads
    for tid in order:
        kind, key, value = programs[tid][cursors[tid]]
        cursors[tid] += 1
        if kind == "put":
            oracle.put(key, value)
        elif kind == "get":
            oracle.get(key)
        else:
            oracle.pop(key)

    live_stats = cache.stats()
    oracle_stats = oracle.stats()
    mismatches: list[str] = []
    if live_stats != oracle_stats:
        mismatches.append(f"stats diverged: live={live_stats} oracle={oracle_stats}")
    if cache.keys() != oracle.keys():
        mismatches.append(
            f"contents diverged: live={cache.keys()} oracle={oracle.keys()}"
        )
    for key in oracle.keys():
        if cache.pop(key) != oracle.pop(key):
            mismatches.append(f"value diverged for {key!r}")
    ok = not errors and not mismatches
    return RaceCheck(
        name="lru-serialized-replay",
        seed=seed,
        ok=ok,
        details={
            "threads": threads,
            "ops": sum(len(p) for p in programs),
            "events": log.count("get") + log.count("put") + log.count("pop"),
            "errors": errors,
            "mismatches": mismatches,
        },
    )


# --------------------------------------------------------------------- #
# Check 2: get_or_create single-flight under a storm.
# --------------------------------------------------------------------- #


def check_lru_single_flight(
    seed: int, threads: int, keys: int = 6, rounds: int = 3
) -> RaceCheck:
    """Duplicate-build / payload-identity check for ``get_or_create``.

    Every thread requests every key (seeded permutation per round) with
    a slow factory producing a *distinguishable* payload (a fresh list
    carrying a build serial).  Under single-flight discipline the
    factory runs exactly once per key, every caller gets the *same*
    object, and ``duplicate_builds`` stays zero.  A stats poller runs
    alongside the storm asserting every snapshot is internally
    consistent (no torn counters).
    """
    rng = np.random.default_rng(seed)
    key_names = [f"k{i}" for i in range(keys)]
    log = AccessLog()
    cache: InstrumentedLRUCache = InstrumentedLRUCache(log, maxsize=None)

    build_serial = [0]
    build_lock = threading.Lock()
    results: dict[int, list[tuple[str, int]]] = {tid: [] for tid in range(threads)}

    def factory_for(key: str) -> Callable[[], list]:
        def factory() -> list:
            time.sleep(0.002)
            with build_lock:
                build_serial[0] += 1
                serial = build_serial[0]
            return [key, serial]

        return factory

    def program_for(tid: int) -> list[Callable[[], object]]:
        ops: list[Callable[[], object]] = []
        for _ in range(rounds):
            for key in rng.permutation(key_names):
                key = str(key)

                def op(key: str = key, tid: int = tid) -> object:
                    value = cache.get_or_create(key, factory_for(key))
                    results[tid].append((key, id(value)))
                    return value

                ops.append(op)
        return ops

    programs = [program_for(tid) for tid in range(threads)]

    # Torn-stats poller: every snapshot must be internally consistent.
    stop = threading.Event()
    snapshot_errors: list[str] = []

    def poll_stats() -> None:
        previous_total = 0
        while not stop.is_set():
            stats = cache.stats()
            total = _stat(stats, "hits") + _stat(stats, "misses")
            if total < previous_total:
                snapshot_errors.append(
                    f"hits+misses went backwards: {previous_total} -> {total}"
                )
            if stats["duplicate_builds"] != 0:
                snapshot_errors.append(f"duplicate_builds={stats['duplicate_builds']}")
            previous_total = total
            time.sleep(0.0005)

    poller = threading.Thread(target=poll_stats, daemon=True)
    poller.start()
    errors = ScheduleFuzzer(seed).run_storm(programs)
    stop.set()
    poller.join(timeout=_JOIN_TIMEOUT)

    stats = cache.stats()
    mismatches: list[str] = list(snapshot_errors)
    if stats["duplicate_builds"] != 0:
        mismatches.append(f"duplicate_builds={stats['duplicate_builds']} (expected 0)")
    if log.count("build") != len(key_names):
        mismatches.append(
            f"factory ran {log.count('build')} times for {len(key_names)} keys"
        )
    if stats["misses"] != len(key_names):
        mismatches.append(f"misses={stats['misses']} (expected {len(key_names)})")
    expected_ops = threads * rounds * len(key_names)
    if _stat(stats, "hits") + _stat(stats, "misses") != expected_ops:
        mismatches.append(
            f"hits+misses={_stat(stats, 'hits') + _stat(stats, 'misses')} "
            f"(expected {expected_ops})"
        )
    # Payload identity: every caller of one key saw the same object.
    identities: dict[str, set[int]] = {}
    for returned in results.values():
        for key, ident in returned:
            identities.setdefault(key, set()).add(ident)
    for key, idents in sorted(identities.items()):
        if len(idents) != 1:
            mismatches.append(f"key {key!r} returned {len(idents)} distinct payloads")
    ok = not errors and not mismatches
    return RaceCheck(
        name="lru-single-flight",
        seed=seed,
        ok=ok,
        details={
            "threads": threads,
            "keys": len(key_names),
            "builds": log.count("build"),
            "stats": stats,
            "errors": errors,
            "mismatches": mismatches,
        },
    )


# --------------------------------------------------------------------- #
# Check 3: DiskParamsCache memory tier under concurrent readers/writers.
# --------------------------------------------------------------------- #


def check_disk_cache_memory_tier(seed: int, threads: int) -> RaceCheck:
    """Payload-identity check for the persistent cache's memory front.

    The cache is pre-populated with deterministic parameters for a small
    vector set, then a storm of readers (plus writers re-storing the
    same deterministic values) hammers it with a deliberately tiny
    memory tier so reads constantly evict and reload from disk.  Every
    read must return the exact stored floats, and the memory tier's
    counters must add up to the number of lookups issued.
    """
    rng = np.random.default_rng(seed)
    scenario = _toy_scenario()
    model = _ToyModel()
    vectors = [(0, 0, 0), (1, 0, 2), (2, 1, 0), (3, 2, 4), (1, 1, 1)]
    expected = {
        vector: model.evaluate(scenario.with_sharing(vector)) for vector in vectors
    }
    fingerprints = {
        vector: _params_fingerprint(params) for vector, params in expected.items()
    }

    with tempfile.TemporaryDirectory(prefix="repro-race-") as root:
        cache = DiskParamsCache(root, scenario, model, memory_size=2)
        for vector, params in expected.items():
            cache[vector] = params

        reads = [0]
        reads_lock = threading.Lock()
        mismatches: list[str] = []
        mismatch_lock = threading.Lock()

        def program_for(tid: int) -> list[Callable[[], object]]:
            ops: list[Callable[[], object]] = []
            sequence = [
                vectors[int(i)] for i in rng.integers(len(vectors), size=30)
            ]
            for vector in sequence:
                write = bool(rng.random() < 0.2)

                def op(vector: tuple[int, ...] = vector, write: bool = write) -> None:
                    if write:
                        cache[vector] = expected[vector]
                        return
                    with reads_lock:
                        reads[0] += 1
                    got = _params_fingerprint(cache[vector])
                    if got != fingerprints[vector]:
                        with mismatch_lock:
                            mismatches.append(
                                f"thread {tid} read torn params for {vector}"
                            )

                ops.append(op)
            return ops

        programs = [program_for(tid) for tid in range(threads)]
        errors = ScheduleFuzzer(seed).run_storm(programs)

        memory_stats = cache._memory.stats()
        lookups = _stat(memory_stats, "hits") + _stat(memory_stats, "misses")
        if lookups != reads[0]:
            mismatches.append(
                f"memory tier counted {lookups} lookups for {reads[0]} reads"
            )
        if len(cache) != len(vectors):
            mismatches.append(f"cache holds {len(cache)} vectors, expected {len(vectors)}")
        size = _stat(memory_stats, "size")
        if size > 2:
            mismatches.append(f"memory tier exceeded its bound: size={size}")
    ok = not errors and not mismatches
    return RaceCheck(
        name="disk-cache-memory-tier",
        seed=seed,
        ok=ok,
        details={
            "threads": threads,
            "vectors": len(vectors),
            "reads": reads[0],
            "memory_stats": memory_stats,
            "errors": errors,
            "mismatches": mismatches,
        },
    )


# --------------------------------------------------------------------- #
# Check 4: UtilityEvaluator pending tables under a storm.
# --------------------------------------------------------------------- #


def check_evaluator_pending(seed: int, threads: int) -> RaceCheck:
    """Duplicate-solve / result-identity check for the evaluator.

    A storm of ``params`` and ``params_target`` calls over overlapping
    sharing vectors must solve each distinct full vector exactly once
    (the pending-table single-flight), return the identical cached list
    to every caller, and satisfy the target contract
    ``params_target(s, i) == params(s)[i]`` bit-for-bit.
    """
    rng = np.random.default_rng(seed)
    scenario = _toy_scenario()
    model = _ToyModel(delay=0.002)
    evaluator = UtilityEvaluator(scenario, model, gamma=0.5)
    vectors = [(0, 0, 0), (1, 0, 2), (2, 1, 0), (3, 2, 4)]
    reference = {
        vector: _params_fingerprint(_ToyModel().evaluate(scenario.with_sharing(vector)))
        for vector in vectors
    }

    full_results: dict[int, list[tuple[tuple[int, ...], int]]] = {
        tid: [] for tid in range(threads)
    }
    mismatches: list[str] = []
    mismatch_lock = threading.Lock()

    def program_for(tid: int) -> list[Callable[[], object]]:
        ops: list[Callable[[], object]] = []
        for vector_index in rng.permutation(len(vectors)):
            vector = vectors[int(vector_index)]
            target = int(rng.integers(len(scenario)))

            def full_op(vector: tuple[int, ...] = vector, tid: int = tid) -> None:
                params = evaluator.params(vector)
                full_results[tid].append((vector, id(params)))
                if _params_fingerprint(params) != reference[vector]:
                    with mismatch_lock:
                        mismatches.append(f"params({vector}) diverged from reference")

            def target_op(
                vector: tuple[int, ...] = vector, target: int = target
            ) -> None:
                entry = evaluator.params_target(vector, target)
                full = evaluator.params(vector)[target]
                if _params_fingerprint([entry]) != _params_fingerprint([full]):
                    with mismatch_lock:
                        mismatches.append(
                            f"params_target({vector}, {target}) != params[{target}]"
                        )

            ops.extend([full_op, target_op])
        return ops

    programs = [program_for(tid) for tid in range(threads)]
    errors = ScheduleFuzzer(seed).run_storm(programs)

    if evaluator.evaluations != len(vectors):
        mismatches.append(
            f"evaluations={evaluator.evaluations} for {len(vectors)} distinct vectors"
        )
    if model.calls != evaluator.evaluations:
        mismatches.append(
            f"model solved {model.calls} times but evaluator counted "
            f"{evaluator.evaluations}"
        )
    if model.target_calls != evaluator.target_evaluations:
        mismatches.append(
            f"model target-solved {model.target_calls} times but evaluator "
            f"counted {evaluator.target_evaluations}"
        )
    # Result identity: every caller of one vector got the same list object.
    identities: dict[tuple[int, ...], set[int]] = {}
    for returned in full_results.values():
        for vector, ident in returned:
            identities.setdefault(vector, set()).add(ident)
    for vector, idents in sorted(identities.items()):
        if len(idents) != 1:
            mismatches.append(
                f"vector {vector} returned {len(idents)} distinct param lists"
            )
    ok = not errors and not mismatches
    return RaceCheck(
        name="evaluator-pending-tables",
        seed=seed,
        ok=ok,
        details={
            "threads": threads,
            "vectors": len(vectors),
            "evaluations": evaluator.evaluations,
            "target_evaluations": evaluator.target_evaluations,
            "errors": errors,
            "mismatches": mismatches,
        },
    )


# --------------------------------------------------------------------- #
# Harness driver and CLI.
# --------------------------------------------------------------------- #

_CHECKS: tuple[Callable[[int, int], RaceCheck], ...] = (
    check_lru_serialized,
    check_lru_single_flight,
    check_disk_cache_memory_tier,
    check_evaluator_pending,
)


def run_harness(seeds: Sequence[int], threads: int) -> dict:
    """Run every check under every seed; returns the JSON-able report."""
    threads = check_positive_int(threads, "threads")
    checks = [check(int(seed), threads) for seed in seeds for check in _CHECKS]
    return {
        "harness": "repro.analysis.race",
        "format_version": 1,
        "seeds": [int(seed) for seed in seeds],
        "threads": threads,
        "checks": [check.as_dict() for check in checks],
        "passed": sum(1 for check in checks if check.ok),
        "failed": sum(1 for check in checks if not check.ok),
        "ok": all(check.ok for check in checks),
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.race",
        description="dynamic race harness for the parallel runtime",
    )
    parser.add_argument(
        "--seeds", type=int, default=3, help="number of schedule seeds (default 3)"
    )
    parser.add_argument(
        "--master-seed",
        type=int,
        default=20240,
        help="base seed; schedule seeds are master-seed + i",
    )
    parser.add_argument(
        "--threads", type=int, default=4, help="worker threads per schedule"
    )
    parser.add_argument(
        "--quick", action="store_true", help="single seed (the CI configuration)"
    )
    parser.add_argument(
        "--output", type=str, default=None, help="write the JSON report here"
    )
    args = parser.parse_args(argv)

    count = 1 if args.quick else max(1, args.seeds)
    seeds = [args.master_seed + i for i in range(count)]
    report = run_harness(seeds, threads=args.threads)

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    for check in report["checks"]:
        status = "ok" if check["ok"] else "FAIL"
        line = f"{status:4s} {check['name']} (seed {check['seed']})"
        if not check["ok"]:
            line += f" -- {check['details'].get('mismatches') or check['details'].get('errors')}"
        print(line)
    print(
        f"{report['passed']} passed, {report['failed']} failed "
        f"({len(report['seeds'])} seeds x {len(_CHECKS)} checks)"
    )
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
