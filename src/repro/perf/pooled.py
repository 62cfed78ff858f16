"""Fast fixed-point ("pooled") performance approximation.

This is an addition of the reproduction (not in the paper): a cheap
estimator of ``(Ibar, Obar, Pbar, rho)`` used where the full hierarchical
model of Sect. III-C is too expensive (large market sweeps) and as an
ablation baseline against it.

Construction.  Each SC i is modeled by a two-dimensional birth–death-like
chain over ``(q, o)`` — own requests in the local system and VMs borrowed
from the shared pool — exactly the shape of the paper's ``M^1``.  The
federation coupling is collapsed into three scalars per SC, solved by
damped fixed-point iteration:

- ``ell_i``  — the expected number of VMs SC i lends (reduces its local
  capacity to ``N_i - ell_i``; fractional values are allowed, entering
  through the service/availability rates),
- ``beta_i`` — the probability that some other SC can lend a VM at an
  arrival epoch of SC i (thins the borrow transition),
- supply weights — expected idle-and-sharable VMs of each SC, used to
  split the total borrowing demand into per-SC lending ``ell``.

Each sweep of the fixed point solves all k chains in one array pass
(:class:`_Sweep`), bit for bit what a per-state loop over each chain gives.
The fixed point conserves flow: ``sum_i Obar_i = sum_j Ibar_j`` up to the
iteration tolerance.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import obs
from repro._validation import check_in_range, check_positive, check_positive_int
from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.exceptions import ConvergenceError
from repro.markov.solvers import BandGenerator, steady_state
from repro.perf.base import PerformanceModel
from repro.perf.params import PerformanceParams
from repro.queueing.forwarding import queue_truncation_level
from repro.queueing.sla import prob_no_forward

if TYPE_CHECKING:
    from numpy.typing import ArrayLike


@lru_cache(maxsize=256)
def _pnf_table(
    max_waiting: int, max_busy: int, service_rate: float, sla_bound: float
) -> np.ndarray:
    """``T[w, b] = prob_no_forward(w, b, service_rate, sla_bound)`` for
    ``0 <= w <= max_waiting`` and ``0 <= b <= max_busy``.

    Memoized on its arguments, which are all the table depends on: every
    chain of a cloud with the same truncation and capacity reads one
    table, so it is returned read-only.
    """
    table = np.empty((max_waiting + 1, max_busy + 1))
    for w in range(max_waiting + 1):
        for b in range(max_busy + 1):
            table[w, b] = prob_no_forward(w, b, service_rate, sla_bound)
    table.flags.writeable = False
    return table


def _fractional_prob_no_forward(
    waiting: ArrayLike,
    busy: ArrayLike,
    service_rate: float | None = None,
    sla_bound: float | None = None,
    table: np.ndarray | None = None,
    base: ArrayLike = 0,
    stride: ArrayLike | None = None,
) -> Any:
    """``P^NF`` allowing fractional waiting and busy-server counts.

    Bilinear interpolation of the integer-argument tail, elementwise over
    arrays; a scalar pair returns a float.  Continuity in both arguments
    matters: the fixed point perturbs the effective capacity continuously,
    and any jump in the chain's rates as capacity crosses an integer turns
    the coupling map discontinuous (producing limit cycles instead of a
    fixed point).  An integer argument takes the tabulated value itself:
    its weights are exactly 1 and 0, and ``1 * lo + 0 * hi`` is ``lo``.

    ``table`` is a :func:`_pnf_table` of the same rate and bound with a
    row and a column beyond the floor of every argument; without one, a
    large enough table is built.  Several tables may be read at once from
    their flat concatenation: an argument pair then reads its own table,
    which starts at ``base`` and has rows of ``stride`` (both per element).
    """
    waiting = np.asarray(waiting, dtype=float)
    busy = np.asarray(busy, dtype=float)
    w_lo = np.floor(waiting)
    b_lo = np.floor(busy)
    # Negative arguments are answered by the guards at the end; clamp their
    # indices so that the lookups stay inside the table.
    w_i = np.maximum(w_lo, 0.0).astype(np.intp)
    b_i = np.maximum(b_lo, 0.0).astype(np.intp)
    if table is None:
        table = _pnf_table(
            int(w_i.max(initial=0)) + 1, int(b_i.max(initial=0)) + 1, service_rate, sla_bound
        )
    if stride is None:
        stride = table.shape[1]
    # ``take`` reads the table flat: (w, b) is at base + w * stride + b.
    corner = base + w_i * stride + b_i
    frac_w = waiting - w_lo
    frac_b = busy - b_lo
    keep_w = 1.0 - frac_w
    low_val = keep_w * table.take(corner) + frac_w * table.take(corner + stride)
    corner += 1
    high_val = keep_w * table.take(corner) + frac_w * table.take(corner + stride)
    value = (1.0 - frac_b) * low_val + frac_b * high_val
    value = np.where(busy <= 0.0, 0.0, value)
    value = np.where(waiting < 0.0, 1.0, value)
    return float(value) if value.ndim == 0 else value


class _CloudChain:
    """The per-SC (q, o) chain of the fixed point, and its read-only grid.

    The (q, o) grid is rectangular: state ``(q, o)`` has index
    ``q * (pool_size + 1) + o``.  Everything that does not depend on the
    lending level and the pool availability (the ``q`` column, the ``o``
    row, their masks and the ``P^NF`` table) is built once and read-only;
    :class:`_Sweep` solves the chains of one sweep together.
    """

    def __init__(self, cloud: SmallCloud, pool_size: int, tail_epsilon: float) -> None:
        self.cloud = cloud
        self.pool_size = pool_size
        capacity = cloud.vms + pool_size
        self.q_max = queue_truncation_level(
            max(capacity, 1), cloud.service_rate, cloud.sla_bound, tail_epsilon
        )
        #: Own requests down the grid (a column) and borrowed VMs across it.
        self.q = np.arange(self.q_max + 1, dtype=float)[:, None]
        self.o = np.arange(pool_size + 1, dtype=float)
        self.arrives = self.q < self.q_max  # at q_max every arrival is forwarded
        self.at_max = self.q == self.q_max
        self.can_borrow = self.o < pool_size
        self.has_remote = self.o > 0.0
        self.remote_rate = self.o * cloud.service_rate
        # Every solve reads these, so none may write to them.
        for name in _Sweep.GRIDS:
            getattr(self, name).flags.writeable = False
        #: Waiting stays within ``q_max`` and busy within ``capacity``; the
        #: spare row and column cover a lent mean a rounding error below 0.
        self.pnf_table = _pnf_table(
            self.q_max + 1, capacity + 1, cloud.service_rate, cloud.sla_bound
        )


class _Sweep:
    """The k chains of one fixed-point sweep, solved in one array pass.

    Every chain's grid is laid out flat, one chain after another, with the
    chain's own rates per state; the ``P^NF`` tables are concatenated too,
    and each state reads its chain's table at that table's offset and row
    stride.  All of it is read-only.  A solve evaluates each rate
    expression once over all k chains; only the steady-state solve and the
    forwarded-flow dot run per chain.

    Each band slot is written in the arithmetic of a per-state loop (the
    test suite keeps one as its oracle): a transition stored under the
    loop's guards, its operands multiplied in the loop's order, and two
    transitions into one slot added in emission order, as a COO build
    sums its duplicates.  The diagonal is minus the row's first stored
    entry plus the left-to-right sum of the rest, the order in which
    ``csr_matrix.sum(axis=1)`` adds a row; an entry not stored is a zero,
    which adds nothing.  A chain's generator is a
    :class:`~repro.markov.solvers.BandGenerator` view of its columns of the
    slots (three slots with no pool), whose ``tocsr`` is byte for byte what
    a COO build, ``tocsr`` and a ``sp.diags`` subtraction give.  The
    bandwidth is ``pool_size + 1``, so whenever the queue levels outnumber
    the pool levels (every ``market-fig7`` chain) the band LU reads the
    slots straight into its storage.
    """

    #: The chains' hoisted grids, laid out flat here.
    GRIDS = ("q", "o", "arrives", "at_max", "can_borrow", "has_remote", "remote_rate")

    def __init__(self, chains: list[_CloudChain]) -> None:
        self.chains = chains
        sizes = [c.q.size * c.o.size for c in chains]
        self.bounds = np.cumsum([0, *sizes]).tolist()
        self.chain = np.repeat(np.arange(len(chains)), sizes)  # each state's chain
        grids = [np.broadcast_arrays(*(getattr(c, name) for name in self.GRIDS)) for c in chains]
        for j, name in enumerate(self.GRIDS):
            setattr(self, name, np.concatenate([grid[j].ravel() for grid in grids]))
        clouds = [c.cloud for c in chains]
        self.vms = np.array([c.vms for c in clouds], dtype=float)
        self.shared = np.array([c.shared_vms for c in clouds], dtype=float)
        self.lam = np.repeat(np.array([c.arrival_rate for c in clouds], dtype=float), sizes)
        self.mu = np.repeat(np.array([c.service_rate for c in clouds], dtype=float), sizes)
        tables = [c.pnf_table for c in chains]
        self.pnf_table = np.concatenate([t.ravel() for t in tables])
        self.pnf_base = np.repeat(np.cumsum([0, *(t.size for t in tables[:-1])]), sizes)
        self.pnf_stride = np.repeat([t.shape[1] for t in tables], sizes)
        self.last = np.array(sizes) - 1  # each chain's last state
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    def solve(self, ell: np.ndarray, beta: np.ndarray) -> list[dict[str, float]]:
        """One stat dict per chain i, solved at lending level ``ell[i]`` and
        pool availability ``beta[i]``.

        This runs once per fixed-point sweep and dominates the pooled
        model's cost.
        """
        k = len(self.chains)
        with obs.span("perf.sweep", k=k, n=self.q.size):
            ell = np.asarray(ell, dtype=float)
            slots, factors, forward_flow = self._rates(ell, np.asarray(beta, dtype=float))
            forward_rate = []
            moments = np.zeros((4, k, int(self.last.max()) + 1))
            for i, chain in enumerate(self.chains):
                lo, hi = self.bounds[i : i + 2]
                width = chain.o.size
                if width > 1:
                    generator = BandGenerator(slots[:, lo:hi].T, (-width, -1, 0, 1, width))
                else:
                    generator = BandGenerator(slots[::2, lo:hi].T, (-1, 0, 1))
                pi = steady_state(generator)
                forward_rate.append(float(forward_flow[lo:hi] @ pi))
                np.multiply(factors[:, lo:hi], pi, out=moments[:, i, : hi - lo])
            # Every moment is a left-to-right sum in state order: ``cumsum``
            # adds that way (``np.sum`` and ``dot`` add pairwise and round
            # differently), and a chain's sum is its partial sum at its last
            # state, before the zero padding.
            sums = np.cumsum(moments, axis=2)[:, np.arange(k), self.last]
            sums[3] *= np.minimum(np.maximum(self.shared - ell, 0.0), 1.0)  # the headroom
            borrowed, busy_own, idle_sharable, avail_prob = sums.tolist()
            return [
                {"borrowed": b, "busy_own": u, "idle_sharable": s, "forward_rate": f,
                 "avail_prob": a}
                for b, u, s, f, a in zip(borrowed, busy_own, idle_sharable, forward_rate,
                                         avail_prob)
            ]

    def _rates(
        self, ell: np.ndarray, beta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every state's five band slots, four moment factors and forwarded
        flow; the temporaries are freed before the chains are solved."""
        at = self.chain
        q, o, lam, mu = self.q, self.o, self.lam, self.mu
        capacity = (self.vms - ell)[at]  # fractional effective own capacity

        # The moments' factors: borrowed, own busy, idle sharable and the
        # free fraction of a local VM.
        factors = np.empty((4, q.size))
        factors[0] = o
        own_running = np.minimum(q, capacity, out=factors[1])
        waiting = np.maximum(q - capacity, 0.0)
        idle = np.maximum(capacity - q, 0.0)
        np.minimum(idle, np.maximum(self.shared - ell, 0.0)[at], out=factors[2])
        w_local = np.minimum(idle, 1.0, out=factors[3])
        saturated = 1.0 - w_local
        w_keep = np.minimum(waiting, 1.0)
        spills = self.arrives & (saturated > 0.0)

        # Arrivals (split continuously at the fractional capacity): the
        # blocked share queues or is forwarded.
        blocked = saturated * np.where(self.can_borrow, (1.0 - beta)[at], 1.0)
        blocked_flow = lam * blocked
        p_queue = _fractional_prob_no_forward(
            waiting, own_running + o, table=self.pnf_table, base=self.pnf_base,
            stride=self.pnf_stride,
        )
        queue_or_forward = spills & (blocked > 0.0)
        forward_flow = np.where(
            self.at_max, lam, np.where(queue_or_forward, blocked_flow * (1.0 - p_queue), 0.0)
        )
        local = self.arrives & (w_local > 0.0)
        queued = queue_or_forward & (p_queue > 0.0)
        borrows = spills & self.can_borrow & (beta > 0.0)[at]
        # Local departures, and remote ones (continuous keep/return split).
        keeps = (w_keep > 0.0) & self.has_remote
        returns = (w_keep < 1.0) & self.has_remote
        departs = (own_running > 0.0) | keeps

        # One slot per band of the generator: -width, -1, the diagonal, +1
        # and +width, in column order (at width 1 the +-1 slots stay empty:
        # with no pool nothing is borrowed or returned).
        slots = np.empty((5, q.size))
        down, back, diagonal, borrow, up = slots
        up[...] = np.where(local, lam * w_local, 0.0) + np.where(
            queued, blocked_flow * p_queue, 0.0
        )
        borrow[...] = np.where(borrows, (lam * saturated) * beta[at], 0.0)
        down[...] = np.where(own_running > 0.0, own_running * mu, 0.0) + np.where(
            keeps, self.remote_rate * w_keep, 0.0
        )
        back[...] = np.where(returns, self.remote_rate * (1.0 - w_keep), 0.0)
        # The diagonal is minus the row's exit rate, added as
        # ``csr_matrix.sum(axis=1)`` adds a row: its first stored entry
        # plus the left-to-right sum of the rest.  An entry not stored is
        # a zero and adds nothing, so only whether the first stored entry
        # is in slot 0 or further right changes the order.
        diagonal[...] = -np.where(departs, down + ((back + borrow) + up), back + (borrow + up))
        return slots, factors, forward_flow


class PooledModel(PerformanceModel):
    """Fixed-point overflow approximation of the federation.

    Args:
        damping: fixed-point damping factor in (0, 1]; smaller is safer.
        tolerance: convergence threshold on the lending vector.
        max_iterations: iteration budget.
        tail_epsilon: queue truncation tolerance.
    """

    def __init__(
        self,
        damping: float = 0.8,
        tolerance: float = 1e-5,
        max_iterations: int = 300,
        tail_epsilon: float = 1e-9,
    ) -> None:
        self.damping = check_in_range(damping, "damping", 1e-6, 1.0)
        self.tolerance = check_positive(tolerance, "tolerance")
        self.max_iterations = check_positive_int(max_iterations, "max_iterations")
        self.tail_epsilon = check_positive(tail_epsilon, "tail_epsilon")

    def evaluate(self, scenario: FederationScenario) -> list[PerformanceParams]:
        """Solve the coupling fixed point and project per-SC parameters."""
        k = len(scenario)
        with obs.span("perf.evaluate", model="pooled", k=k):
            shares = np.array([c.shared_vms for c in scenario], dtype=float)
            if shares.sum() == 0.0 or k == 1:
                return self._no_sharing(scenario)
            sweep = _Sweep(
                [_CloudChain(c, scenario.shared_by_others(i), self.tail_epsilon)
                 for i, c in enumerate(scenario)]
            )
            ell, beta = self._fixed_point(sweep, shares)
            stats = sweep.solve(ell, beta)
            results = []
            for i, cloud in enumerate(scenario):
                busy = stats[i]["busy_own"] + ell[i]
                results.append(
                    PerformanceParams(
                        lent_mean=float(ell[i]),
                        borrowed_mean=float(stats[i]["borrowed"]),
                        forward_rate=float(stats[i]["forward_rate"]),
                        utilization=min(busy / cloud.vms, 1.0),
                    )
                )
            return results

    def _apply_map(
        self, sweep: _Sweep, shares: np.ndarray, ell: np.ndarray, beta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One sweep of the coupling map ``(ell, beta) -> (ell', beta')``."""
        k = len(sweep.chains)
        stats = sweep.solve(ell, beta)
        borrowed = np.array([s["borrowed"] for s in stats])
        supply = np.array([s["idle_sharable"] for s in stats])
        # Split total borrowing demand into per-SC lending proportional to
        # each lender's expected idle-and-sharable capacity, capped at the
        # share limits.
        new_ell = np.zeros(k)
        for i in range(k):
            other = np.array([supply[j] if j != i else 0.0 for j in range(k)])
            total_other = other.sum()
            if total_other <= 0.0:
                continue
            new_ell += borrowed[i] * other / total_other
        new_ell = np.minimum(new_ell, shares)
        new_beta = np.array(
            [
                1.0
                - np.prod(
                    [1.0 - stats[j]["avail_prob"] for j in range(k) if j != i]
                )
                for i in range(k)
            ]
        )
        return new_ell, new_beta

    def _fixed_point(
        self, sweep: _Sweep, shares: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve the coupling fixed point.

        Damped Picard iteration handles the common case; when the raw map
        cycles (which happens for a few asymmetric share vectors), the
        final iterate seeds a Newton-Krylov root solve of the residual
        ``map(x) - x``, which lands on the fixed point at the cycle's
        center.
        """
        k = len(sweep.chains)
        ell = np.zeros(k)
        beta = np.ones(k) * np.where(shares.sum() - shares > 0, 1.0, 0.0)
        damping = self.damping
        best_step = np.inf
        stalled = 0
        for _ in range(self.max_iterations):
            new_ell, new_beta = self._apply_map(sweep, shares, ell, beta)
            step = np.abs(new_ell - ell).max(initial=0.0) + np.abs(
                new_beta - beta
            ).max(initial=0.0)
            ell = (1.0 - damping) * ell + damping * new_ell
            beta = (1.0 - damping) * beta + damping * new_beta
            if step < self.tolerance:
                return ell, beta
            # The raw map can enter small limit cycles; shrinking the step
            # turns the cycle into a spiral toward its center.
            if step < best_step * 0.95:
                best_step = min(step, best_step)
                stalled = 0
            else:
                stalled += 1
                if stalled >= 5:
                    damping = max(damping * 0.5, 0.05)
                    stalled = 0
        return self._root_solve(sweep, shares, ell, beta)

    def _root_solve(
        self,
        sweep: _Sweep,
        shares: np.ndarray,
        ell: np.ndarray,
        beta: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fallback: solve ``map(x) = x`` with a quasi-Newton root finder."""
        import scipy.optimize

        k = len(sweep.chains)

        def clip(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            e = np.clip(x[:k], 0.0, shares)
            b = np.clip(x[k:], 0.0, 1.0)
            return e, b

        def residual(x: np.ndarray) -> np.ndarray:
            e, b = clip(x)
            new_e, new_b = self._apply_map(sweep, shares, e, b)
            return np.concatenate([new_e - e, new_b - b])

        start = np.concatenate([ell, beta])
        solution = scipy.optimize.root(
            residual, start, method="df-sane", options={"maxfev": 400, "fatol": self.tolerance}
        )
        res_norm = float(np.abs(residual(solution.x)).max())
        if res_norm > max(self.tolerance * 100, 1e-4):
            raise ConvergenceError(
                "pooled model fixed point did not converge "
                f"(residual {res_norm:.2e} after root fallback)"
            )
        return clip(solution.x)

    def _no_sharing(self, scenario: FederationScenario) -> list[PerformanceParams]:
        from repro.queueing.forwarding import NoSharingModel

        results = []
        for cloud in scenario:
            model = NoSharingModel(
                cloud.vms,
                cloud.arrival_rate,
                cloud.service_rate,
                cloud.sla_bound,
                tail_epsilon=self.tail_epsilon,
            )
            results.append(
                PerformanceParams(
                    lent_mean=0.0,
                    borrowed_mean=0.0,
                    forward_rate=model.forward_rate,
                    utilization=model.utilization,
                )
            )
        return results
