"""The hierarchical approximate performance model ``M^1 .. M^K`` (Sect. III-C).

Each level ``M^i`` is a CTMC over ``(q_i, s_i, o_i, a_i)``:

- ``q_i`` — requests of SC i queued or in service at SC i,
- ``s_i`` — SC i's VMs serving the group ``{1..i-1}``,
- ``o_i`` — VMs SC i borrows from the shared pool,
- ``a_i`` — shared VMs (not SC i's) held by the group.

``M^1`` is solved directly (the first SC sees an uncontended pool).  Every
later level refreshes ``(s, a)`` at each event from the *interaction
outcome distributions* of the previous level (see
:mod:`repro.perf.interaction`): the group's allocation after the mean
inter-event period, conditioned on the current allocation, split between
the target's pool and the rest.  Transition cases C1–C5 follow the paper;
the group-backlog flag needed by C4/C5 is carried in the outcomes.

The chain is linear in K — evaluating the target SC builds K chains whose
individual sizes do not depend on K (only on the pool size ``B_i``).
Evaluating *all* SCs rotates each one into the target slot (the paper's
decentralized usage: each SC runs the chain with itself last).

Two layers make repeated evaluation cheap — the paper's market game calls
this model hundreds of times per equilibrium search:

- **Vectorized transition assembly.**  The generator of one level is
  emitted one event type at a time, each as one NumPy pass over its
  ``(state, outcome)`` pairs, instead of a per-state Python loop.  Every
  row receives its entries in the per-state loop's order, so the
  assembled sparse generator is *bit-identical* to that loop.  The
  per-state loop lives in the test suite
  (``tests/perf/assembly_oracle.py``) as the bitwise oracle.
- **Level-prefix memoization.**  A solved level depends only on the model
  configuration, the ordered prefix of per-SC performance specs
  ``(N, lambda, mu, Q, S)``, and its pool size ``B_i``; an in-memory LRU
  (:class:`repro.runtime.memo.LRUCache`) keyed on exactly that content
  lets target rotations and repeated scenario sweeps rebuild only the
  levels whose prefix actually changed.  Cache hits return the very
  arrays a cold build would produce, so memoized runs stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:
    from repro.runtime.executor import Executor

from repro import obs
from repro._validation import check_positive, check_positive_int
from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.markov.ctmc import CTMC
from repro.markov.solvers import steady_state
from repro.markov.state_space import StateSpace
from repro.perf.base import PerformanceModel
from repro.perf.interaction import (
    conditional_initials,
    reduction_matrix,
    transient_outcomes,
)
from repro.perf.params import PerformanceParams
from repro.queueing.forwarding import queue_truncation_level
from repro.queueing.sla import prob_no_forward
from repro.runtime.memo import LRUCache

def _evaluate_target_task(
    task: "tuple[ApproximateModel, FederationScenario, int]",
) -> PerformanceParams:
    """Process-pool-friendly wrapper around one target rotation."""
    model, scenario, target = task
    return model.evaluate_target(scenario, target=target)


#: Capacity floor of the level cache, which grows to ``6 K + 16`` entries
#: with the largest federation evaluated.
_CACHE_FLOOR = 64


class _StateIndexer:
    """Closed-form index of a ``(q, s, o, a)`` state in enumeration order.

    The level state spaces enumerate ``q``, then ``s``, then the
    triangular ``(o, a)`` block with ``o + a <= pool``; this mirrors that
    enumeration arithmetically so transition assembly avoids per-lookup
    dict hashing of tuples.
    """

    __slots__ = ("_tri", "_per_s", "_block")

    def __init__(self, shares: int, pool: int) -> None:
        row_sizes = np.arange(pool + 1, 0, -1, dtype=np.int64)  # pool - o + 1
        # _tri[o] = first index of row o inside the (o, a) triangle.
        self._tri = np.concatenate(([0], np.cumsum(row_sizes)[:-1]))
        self._per_s = int(row_sizes.sum())  # total (o, a) pairs
        self._block = (shares + 1) * self._per_s  # states per q level

    def index_arrays(
        self,
        q: "np.ndarray | int",
        s: "np.ndarray | int",
        o: "np.ndarray | int",
        a: "np.ndarray | int",
    ) -> np.ndarray:
        """State indices of (broadcastable) coordinate arrays."""
        return q * self._block + s * self._per_s + self._tri[o] + a


def _state_arrays(
    q_max: int, shares: int, pool: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``(q, s, o, a)`` coordinates of every level state, enumeration
    order, as four int64 arrays (the vectorized twin of the state list)."""
    o_row = np.repeat(
        np.arange(pool + 1, dtype=np.int64),
        np.arange(pool + 1, 0, -1, dtype=np.int64),
    )
    a_row = np.concatenate(
        [np.arange(pool - o + 1, dtype=np.int64) for o in range(pool + 1)]
    )
    tri = o_row.size
    blocks = (q_max + 1) * (shares + 1)
    q_arr = np.repeat(np.arange(q_max + 1, dtype=np.int64), (shares + 1) * tri)
    s_arr = np.tile(np.repeat(np.arange(shares + 1, dtype=np.int64), tri), q_max + 1)
    o_arr = np.tile(o_row, blocks)
    a_arr = np.tile(a_row, blocks)
    return q_arr, s_arr, o_arr, a_arr


class _EntrySink:
    """Accumulates generator entries, batch by batch, for ``coo_matrix``.

    ``coo_matrix(...).tocsr()`` buckets entries into rows stably and then
    sorts and sums each row on its own, so the CSR result depends only on
    the order of the entries *within* each row
    (``tests/perf/test_vectorized_assembly.py::TestCooToCsr``).  The
    assemblers emit one event type after another, each state-major with
    outcomes in list order, so every row sees its entries in the per-state
    loop's ``(event, outcome)`` order, and the duplicate sums come out bit
    for bit the same without a global sort.
    """

    __slots__ = ("_rows", "_cols", "_vals")

    def __init__(self) -> None:
        self._rows: list[np.ndarray] = []
        self._cols: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []

    def emit(self, src: np.ndarray, dst: np.ndarray, val: np.ndarray) -> None:
        """Queue a batch of entries; self-loops are dropped (the diagonal
        is derived from row sums afterwards)."""
        val = np.broadcast_to(val, src.shape)
        keep = dst != src
        if not keep.all():
            src, dst, val = src[keep], dst[keep], val[keep]
        self._rows.append(src.astype(np.int32))
        self._cols.append(dst.astype(np.int32))
        self._vals.append(val)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All entries in emission order, as int32 rows and columns."""
        if not self._rows:
            return np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0)
        return (
            np.concatenate(self._rows),
            np.concatenate(self._cols),
            np.concatenate(self._vals),
        )


#: Most ``(state, outcome)`` pairs one assembly batch materializes, which
#: bounds the transient arrays of a level build.
_PAIR_BATCH = 1 << 17


class _OutcomeGrid:
    """The outcome lists one event's states draw from, as padded arrays.

    States sharing a group key (an interaction level, or a departure
    count and level) share one outcome list; row ``g`` of ``a_loc``,
    ``a_rem``, ``backlog`` and ``p`` holds group ``g``'s list in order,
    padded to the longest list.
    """

    __slots__ = ("a_loc", "a_rem", "backlog", "p", "_states", "_groups", "_count")

    def __init__(
        self,
        states: np.ndarray,
        keys: np.ndarray,
        outcomes_of: Callable[[int], list],
    ) -> None:
        uniques, self._groups = np.unique(keys, return_inverse=True)
        lists = [outcomes_of(key) for key in uniques.tolist()]
        self._states = states
        self._count = np.array([len(item) for item in lists], dtype=np.int64)
        shape = (len(lists), max(int(self._count.max(initial=0)), 1))
        self.a_loc = np.zeros(shape, dtype=np.int64)
        self.a_rem = np.zeros(shape, dtype=np.int64)
        self.backlog = np.zeros(shape, dtype=bool)
        self.p = np.zeros(shape)
        for g, outcomes in enumerate(lists):
            if outcomes:
                width = len(outcomes)
                a_loc, a_rem, backlog, p = zip(*outcomes)
                self.a_loc[g, :width] = a_loc
                self.a_rem[g, :width] = a_rem
                self.backlog[g, :width] = backlog
                self.p[g, :width] = p

    def pairs(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(state, group, outcome position)`` of every pair, state-major
        (the per-state loop's order), in batches of consecutive states."""
        per_state = self._count[self._groups]
        step = max(1, _PAIR_BATCH // self.p.shape[1])
        for lo in range(0, per_state.size, step):
            counts = per_state[lo : lo + step]
            pos = np.repeat(np.arange(lo, lo + counts.size), counts)
            starts = np.cumsum(counts) - counts
            outcome = np.arange(pos.size) - np.repeat(starts, counts)
            yield self._states[pos], self._groups[pos], outcome


@dataclass
class _Level:
    """One solved chain of the hierarchy plus the arrays the next level needs."""

    space: StateSpace
    steady: np.ndarray
    ctmc: CTMC
    queue: np.ndarray  # q (requests of this SC queued or in service)
    borrowed: np.ndarray  # o (pool VMs this SC borrows)
    usage: np.ndarray  # U = o + a (non-own shared VMs used by the group+self)
    own_lent: np.ndarray  # s (this SC's VMs lent to the group)
    backlog: np.ndarray  # queued requests of this SC
    totals: np.ndarray  # T = s + o + a (total group {1..i} shared usage)
    pool_size: int  # B_i
    forward_flow: np.ndarray  # per-state public-cloud forwarding rate
    cloud: SmallCloud


class ApproximateModel(PerformanceModel):
    """Hierarchical approximate model (Sect. III-C).

    Args:
        tail_epsilon: queue truncation tolerance.
        transient_epsilon: Fox–Glynn truncation mass for the interaction
            transients.
        outcome_threshold: interaction outcomes with probability below
            this are dropped (and the rest renormalized) to bound the
            transition fan-out.
        max_outcomes: hard cap on the retained outcomes per interaction
            distribution (highest-probability outcomes win).  The cap
            bounds the generator at ``3 * max_outcomes`` transitions per
            state, which keeps the largest paper scenarios (10-SC pools,
            full sharing) within laptop memory; the discarded mass is
            below 1% in all benchmarked settings.
        executor: optional :class:`repro.runtime.executor.Executor` used
            by :meth:`evaluate` to rotate the K independent per-target
            chains in parallel.  Each rotation is a pure function of the
            scenario, so any executor (including process pools) returns
            results bit-identical to a serial run.
        level_cache: keep the level-prefix LRU (default) or solve every
            level cold.  The LRU starts at 64 entries and grows
            monotonically with the largest federation evaluated
            (``6 K + 16``) — a fixed capacity that is generous at
            ``K=10`` thrashes at ``K=50``, where one chain already needs
            ``K`` live entries and a Tabu neighborhood several chains'
            worth.  Cached levels are exactly the objects a cold build
            produces, so the switch never changes results, only
            wall-clock; it is stored privately so that both settings
            share one disk-cache namespace.
    """

    def __init__(
        self,
        tail_epsilon: float = 1e-9,
        transient_epsilon: float = 1e-8,
        outcome_threshold: float = 1e-7,
        max_outcomes: int = 48,
        executor: "Executor | None" = None,
        level_cache: bool = True,
    ) -> None:
        self.tail_epsilon = check_positive(tail_epsilon, "tail_epsilon")
        self.transient_epsilon = check_positive(transient_epsilon, "transient_epsilon")
        self.outcome_threshold = check_positive(outcome_threshold, "outcome_threshold")
        self.max_outcomes = check_positive_int(max_outcomes, "max_outcomes")
        self.executor = executor
        # Private (underscored) so it stays out of the cache fingerprint:
        # memoized and cold levels are bit-identical.
        self._level_cache: LRUCache | None = (
            LRUCache(maxsize=_CACHE_FLOOR, name="perf.level_cache")
            if level_cache
            else None
        )

    # ------------------------------------------------------------------ #
    # public interface
    # ------------------------------------------------------------------ #

    @property
    def has_target_path(self) -> bool:
        """One SC costs one chain rotation instead of all ``K``."""
        return True

    def evaluate_target(
        self,
        scenario: FederationScenario,
        target: int | None = None,
    ) -> PerformanceParams:
        """Evaluate one SC accurately by running the chain with it last.

        Args:
            scenario: the federation (sharing vector included).
            target: index of the SC of interest; defaults to the last.
        """
        if target is not None and target != len(scenario) - 1:
            scenario = scenario.rotated_to_target(target)
        with obs.span(
            "perf.solve", k=len(scenario), target=len(scenario) - 1
        ):
            level = self._build_chain(scenario)
            return self._params_from_level(level)

    def evaluate(self, scenario: FederationScenario) -> list[PerformanceParams]:
        """Evaluate every SC by rotating each into the target slot.

        The K rotations are independent chains; with an executor they run
        in parallel (process pools ship a copy of the model configured
        without an executor, so workers never nest pools).  The serial
        path shares the level-prefix cache across rotations: rotation
        ``t`` reuses the first ``t`` levels of the deepest chain built so
        far instead of resolving them.
        """
        k = len(scenario)
        executor = self.executor
        if executor is None or executor.workers <= 1 or k == 1:
            with obs.span("perf.evaluate", k=k, backend="inline"):
                return [self.evaluate_target(scenario, target=i) for i in range(k)]
        worker = self._worker_clone()
        with obs.span("perf.evaluate", k=k, backend="executor"):
            return executor.map(
                _evaluate_target_task, [(worker, scenario, i) for i in range(k)]
            )

    def _worker_clone(self) -> "ApproximateModel":
        """A copy with identical solve configuration but no executor (so
        workers never nest pools)."""
        return ApproximateModel(
            tail_epsilon=self.tail_epsilon,
            transient_epsilon=self.transient_epsilon,
            outcome_threshold=self.outcome_threshold,
            max_outcomes=self.max_outcomes,
            level_cache=self._level_cache is not None,
        )

    def level_cache_stats(self) -> dict[str, int]:
        """Hit/miss counters of the level-prefix cache (all zero when
        memoization is disabled)."""
        if self._level_cache is None:
            return {
                "size": 0,
                "maxsize": 0,
                "hits": 0,
                "misses": 0,
            }
        return self._level_cache.stats()

    # ------------------------------------------------------------------ #
    # chain construction and level memoization
    # ------------------------------------------------------------------ #

    def _config_key(self) -> tuple:
        return (
            self.tail_epsilon,
            self.transient_epsilon,
            self.outcome_threshold,
            self.max_outcomes,
        )

    @staticmethod
    def _spec_key(cloud: SmallCloud) -> tuple:
        """The performance-relevant content of one SC (prices and names
        cannot influence a chain, so they are excluded — the same rule
        the disk cache applies)."""
        return (
            cloud.vms,
            cloud.arrival_rate,
            cloud.service_rate,
            cloud.sla_bound,
            cloud.shared_vms,
        )

    def _chain_keys(self, scenario: FederationScenario) -> list[tuple]:
        """The content keys of levels ``M^1 .. M^K`` for ``scenario``.

        The key of level ``i`` is ``(config, spec_1..spec_i, B_i)``: the
        ordered prefix of SC specs plus the level's pool size.  All
        earlier pools are derivable from that content (``B_{j} = B_i +
        S_i - S_j``), so equal keys imply bit-identical levels.
        """
        keys: list[tuple] = []
        prefix: tuple = (self._config_key(),)
        for i in range(len(scenario)):
            prefix = prefix + (self._spec_key(scenario[i]),)
            keys.append((prefix, scenario.shared_by_others(i)))
        return keys

    def _ensure_capacity(self, k: int) -> None:
        """Grow the level cache to fit federations of ``k`` SCs (one
        chain is ``k`` entries; a Tabu neighborhood scored across
        same-total moves touches several chains' worth)."""
        if self._level_cache is not None:
            self._level_cache.ensure_capacity(max(_CACHE_FLOOR, 6 * k + 16))

    def _build_chain(self, scenario: FederationScenario) -> _Level:
        """Build (or recall) levels ``M^1 .. M^K`` for ``scenario``.

        Walking the chain front-to-back, only the suffix below the
        deepest cached prefix is rebuilt.  A change at chain position
        ``p`` that leaves the federation total ``sum(S)`` alone (a rate
        or SLA drift, a compensated share move) keeps keys ``0..p-1``
        equal, so only the ``K - p`` levels from ``p`` on are rebuilt;
        a move of ``sum(S)`` changes every level's pool and rebuilds all
        ``K``.
        """
        keys = self._chain_keys(scenario)
        self._ensure_capacity(len(keys))
        cache = self._level_cache
        level: _Level | None = None
        for i, key in enumerate(keys):
            cached = cache.get(key) if cache is not None else None
            if cached is None:
                with obs.span("perf.level_build", level=i):
                    if i == 0:
                        cached = self._build_first(scenario)
                    else:
                        assert level is not None
                        cached = self._build_level(scenario, i, level)
                if cache is not None:
                    cache.put(key, cached)
            level = cached
        assert level is not None
        return level

    def _q_max(self, scenario: FederationScenario, index: int) -> int:
        cloud = scenario[index]
        capacity = cloud.vms + scenario.shared_by_others(index)
        return queue_truncation_level(
            capacity, cloud.service_rate, cloud.sla_bound, self.tail_epsilon
        )

    # ------------------------------------------------------------------ #
    # level 1
    # ------------------------------------------------------------------ #

    def _build_first(self, scenario: FederationScenario) -> _Level:
        """``M^1``: the first SC has uncontended access to the pool."""
        cloud = scenario[0]
        pool = scenario.shared_by_others(0)
        q_max = self._q_max(scenario, 0)
        n = cloud.vms
        mu = cloud.service_rate
        lam = cloud.arrival_rate
        states = [(q, 0, o, 0) for q in range(q_max + 1) for o in range(pool + 1)]
        space = StateSpace(states)
        rows, cols, vals, forward = self._assemble_first(
            n, mu, lam, pool, q_max, cloud.sla_bound
        )
        ctmc = CTMC(space, self._generator(len(space), rows, cols, vals))
        pi = steady_state(ctmc.generator)
        q_arr = np.repeat(np.arange(q_max + 1, dtype=np.int64), pool + 1)
        o_arr = np.tile(np.arange(pool + 1, dtype=np.int64), q_max + 1)
        return _Level(
            space=space,
            steady=pi,
            ctmc=ctmc,
            queue=q_arr,
            borrowed=o_arr,
            usage=o_arr,
            own_lent=np.zeros(len(space), dtype=int),
            backlog=np.maximum(q_arr - n, 0),
            totals=o_arr,
            pool_size=pool,
            forward_flow=forward,
            cloud=cloud,
        )

    def _assemble_first(
        self, n: int, mu: float, lam: float, pool: int, q_max: int, sla: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batch assembly of ``M^1``: COO entries in per-state order plus
        the per-state forwarding rates."""
        width = pool + 1
        n_states = (q_max + 1) * width
        q_arr = np.repeat(np.arange(q_max + 1, dtype=np.int64), width)
        o_arr = np.tile(np.arange(width, dtype=np.int64), q_max + 1)
        idx = np.arange(n_states, dtype=np.int64)
        forward = np.zeros(n_states)
        sink = _EntrySink()

        # Arrivals: free own VM / free pool VM / SLA race.
        m1 = q_arr < n
        sink.emit(idx[m1], idx[m1] + width, np.array([lam]))
        m2 = ~m1 & (o_arr < pool)
        sink.emit(idx[m2], idx[m2] + 1, np.array([lam]))
        m3 = ~m1 & ~m2
        if m3.any():
            # m3 non-empty implies q_max >= n (it needs q >= n, o == pool).
            q3 = q_arr[m3]
            pq_table = np.array(
                [prob_no_forward(w, n + pool, mu, sla) for w in range(q_max - n + 1)]
            )
            p_queue = pq_table[q3 - n]
            queue_ok = (q3 + 1 <= q_max) & (p_queue > 0.0)
            st3 = idx[m3]
            sink.emit(st3[queue_ok], st3[queue_ok] + width, lam * p_queue[queue_ok])
            forward[st3[queue_ok]] = lam * (1.0 - p_queue[queue_ok])
            forward[st3[~queue_ok]] = lam
        # Local departures, then pool departures.
        running = np.minimum(q_arr, n)
        m4 = running > 0
        sink.emit(idx[m4], idx[m4] - width, running[m4] * mu)
        m5 = o_arr > 0
        sink.emit(idx[m5], idx[m5] - 1, o_arr[m5] * mu)
        rows, cols, vals = sink.entries()
        return rows, cols, vals, forward

    # ------------------------------------------------------------------ #
    # levels 2..K
    # ------------------------------------------------------------------ #

    # Per-level CTMC assembly: the model's dominant cost at K>2.
    def _build_level(
        self, scenario: FederationScenario, index: int, prev: _Level
    ) -> _Level:
        cloud = scenario[index]
        n = cloud.vms
        mu = cloud.service_rate
        lam = cloud.arrival_rate
        shares = cloud.shared_vms
        pool = scenario.shared_by_others(index)
        q_max = self._q_max(scenario, index)

        states = [
            (q, s, o, a)
            for q in range(q_max + 1)
            for s in range(shares + 1)
            for o in range(pool + 1)
            for a in range(pool - o + 1)
        ]
        space = StateSpace(states)

        # --- interaction outcomes from the previous level ---------------
        cap_loc = shares
        cap_rem = prev.pool_size - shares
        reduction, table = reduction_matrix(
            prev.usage, prev.own_lent, prev.backlog, cap_loc, cap_rem
        )
        levels = range(0, shares + pool + 1)
        initials = conditional_initials(prev.steady, prev.totals, levels)

        horizons: list[float] = [1.0 / lam]
        horizon_index: dict[float, int] = {horizons[0]: 0}
        for count in range(1, max(n, pool) + 1):
            tau = 1.0 / (count * mu)
            if tau not in horizon_index:
                horizon_index[tau] = len(horizons)
                horizons.append(tau)
        outcome_dists = transient_outcomes(
            prev.ctmc,
            initials,
            reduction,
            horizons,
            epsilon=self.transient_epsilon,
        )

        def significant(tau: float, level: int) -> list[tuple[int, int, bool, float]]:
            dist = outcome_dists[horizon_index[tau]][level]
            kept = [
                (table.outcomes[j][0], table.outcomes[j][1], table.outcomes[j][2], p)
                for j, p in enumerate(dist)
                if p > self.outcome_threshold
            ]
            if len(kept) > self.max_outcomes:
                kept.sort(key=lambda item: -item[3])
                kept = kept[: self.max_outcomes]
            total = sum(item[3] for item in kept)
            if total <= 0.0:
                return []
            return [(al, ar, bk, p / total) for al, ar, bk, p in kept]

        outcome_cache: dict[tuple[float, int], list[tuple[int, int, bool, float]]] = {}

        def outcomes_for(tau: float, level: int) -> list[tuple[int, int, bool, float]]:
            key = (tau, level)
            if key not in outcome_cache:
                outcome_cache[key] = significant(tau, level)
            return outcome_cache[key]

        # --- transition assembly -----------------------------------------
        rows, cols, vals, forward = self._assemble_level(
            n, mu, lam, shares, pool, q_max, cloud.sla_bound, outcomes_for
        )
        ctmc = CTMC(space, self._generator(len(space), rows, cols, vals))
        pi = steady_state(ctmc.generator)
        q_arr, s_arr, o_arr, a_arr = _state_arrays(q_max, shares, pool)
        return _Level(
            space=space,
            steady=pi,
            ctmc=ctmc,
            queue=q_arr,
            borrowed=o_arr,
            usage=o_arr + a_arr,
            own_lent=s_arr,
            backlog=np.maximum(q_arr - (n - s_arr), 0),
            totals=s_arr + o_arr + a_arr,
            pool_size=pool,
            forward_flow=forward,
            cloud=cloud,
        )

    @staticmethod
    def _generator(
        n_states: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> sp.csr_matrix:
        """COO entries (per-state emission order) -> zero-row-sum CSR."""
        q_matrix = sp.coo_matrix(
            (vals, (rows, cols)), shape=(n_states, n_states)
        ).tocsr()
        return q_matrix - sp.diags(
            np.asarray(q_matrix.sum(axis=1)).ravel(), format="csr"
        )

    def _assemble_level(
        self,
        n: int,
        mu: float,
        lam: float,
        shares: int,
        pool: int,
        q_max: int,
        sla: float,
        outcomes_for: Callable[[float, int], list],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batch assembly of one level's generator.

        Each event type is one NumPy pass over all of its ``(state,
        outcome)`` pairs, expanded state-major from an :class:`_OutcomeGrid`
        of the outcome lists the event's states need: arrivals (C1–C3)
        group states by interaction level ``s + a``, local departures
        (C4) by ``(running, level)`` and remote departures (C5) by ``(o,
        level)``.  Every rate keeps the per-state loop's operand order
        (``lam * p``, ``(running * mu) * p``, ``(o * mu) * p``), and the
        SLA race probabilities come from a ``(waiting, busy)`` table of
        the same scalar :func:`prob_no_forward`, so every float matches
        the loop bit for bit.
        """
        index_of = _StateIndexer(shares, pool)
        q_arr, s_arr, o_arr, a_arr = _state_arrays(q_max, shares, pool)
        n_states = q_arr.size
        level_arr = s_arr + a_arr
        n_levels = shares + pool + 1
        forward = np.zeros(n_states)
        sink = _EntrySink()
        all_idx = np.arange(n_states, dtype=np.int64)

        # P^NF as a dense (waiting, busy) lookup — a few hundred scalar
        # calls replace one call per (state, outcome) pair.
        pq_table = np.array(
            [
                [prob_no_forward(w, c, mu, sla) for c in range(n + pool + 1)]
                for w in range(q_max + 1)
            ]
        )

        # --- arrivals (cases C1-C3) -------------------------------------
        tau_arrival = 1.0 / lam
        grid = _OutcomeGrid(
            all_idx, level_arr, lambda lvl: outcomes_for(tau_arrival, lvl)
        )
        for src, g, j in grid.pairs():
            qv, ov = q_arr[src], o_arr[src]
            a_loc, a_rem_raw = grid.a_loc[g, j], grid.a_rem[g, j]
            rate = lam * grid.p[g, j]
            c1 = qv + a_loc < n
            c2 = ~c1 & (ov + a_rem_raw + 1 <= pool)
            # C1 starts on a free own VM (q + 1), C2 on a borrowed pool VM
            # (o + 1); C3 races the SLA and either queues (q + 1) or is
            # forwarded (q stays).
            q_dst = qv + c1
            o_dst = ov + c2
            c3 = np.flatnonzero(~c1 & ~c2)
            if c3.size:
                q3, o3, loc3, rate3 = qv[c3], ov[c3], a_loc[c3], rate[c3]
                p_queue = pq_table[q3 - (n - loc3), (n - loc3) + o3]
                queue_ok = (q3 + 1 <= q_max) & (p_queue > 0.0)
                q_dst[c3] += queue_ok
                rate[c3] = np.where(queue_ok, rate3 * p_queue, rate3)
                np.add.at(
                    forward,
                    src[c3],
                    np.where(queue_ok, rate3 * (1.0 - p_queue), rate3),
                )
            dst = index_of.index_arrays(
                q_dst, a_loc, o_dst, np.minimum(a_rem_raw, pool - o_dst)
            )
            sink.emit(src, dst, rate)

        def departure_outcomes(key: int) -> list:
            """Outcomes after one of ``key // n_levels`` busy VMs finishes,
            at interaction level ``key % n_levels``."""
            return outcomes_for(1.0 / (key // n_levels * mu), key % n_levels)

        # --- local departures (case C4) ---------------------------------
        running_arr = np.minimum(q_arr, n - s_arr)
        busy = running_arr > 0
        grid = _OutcomeGrid(
            all_idx[busy],
            running_arr[busy] * n_levels + level_arr[busy],
            departure_outcomes,
        )
        for src, g, j in grid.pairs():
            qv, ov = q_arr[src], o_arr[src]
            a_loc = grid.a_loc[g, j]
            rate = running_arr[src] * mu * grid.p[g, j]
            # A freed own VM goes to the group when it has a backlog.
            promote = grid.backlog[g, j] & (a_loc < shares) & (qv + a_loc <= n)
            dst = index_of.index_arrays(
                qv - 1,
                a_loc + promote,
                ov,
                np.minimum(grid.a_rem[g, j], pool - ov),
            )
            sink.emit(src, dst, rate)

        # --- remote departures (case C5) --------------------------------
        lending = o_arr > 0
        grid = _OutcomeGrid(
            all_idx[lending],
            o_arr[lending] * n_levels + level_arr[lending],
            departure_outcomes,
        )
        for src, g, j in grid.pairs():
            qv, ov = q_arr[src], o_arr[src]
            a_loc, bk = grid.a_loc[g, j], grid.backlog[g, j]
            rate = ov * mu * grid.p[g, j]
            # The freed pool VM goes to the group on a backlog; otherwise
            # it takes the head of this SC's queue (over capacity) or
            # returns to the pool.
            over = ~bk & (qv + a_loc > n)
            o_dst = ov - ~over
            dst = index_of.index_arrays(
                qv - over,
                a_loc,
                o_dst,
                np.minimum(grid.a_rem[g, j] + bk, pool - o_dst),
            )
            sink.emit(src, dst, rate)

        rows, cols, vals = sink.entries()
        return rows, cols, vals, forward

    # ------------------------------------------------------------------ #
    # parameter extraction
    # ------------------------------------------------------------------ #

    def _params_from_level(self, level: _Level) -> PerformanceParams:
        pi = level.steady
        cloud = level.cloud
        s_arr = level.own_lent
        running = np.minimum(level.queue, cloud.vms - s_arr)
        busy = running + s_arr
        return PerformanceParams(
            lent_mean=float(s_arr @ pi),
            borrowed_mean=float(level.borrowed @ pi),
            forward_rate=float(level.forward_flow @ pi),
            utilization=float(busy @ pi) / cloud.vms,
        )
