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
    service_rate: float,
    sla_bound: float,
    table: np.ndarray | None = None,
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
    large enough table is built.
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
    # ``take`` reads the table flat: (w, b) is at w * stride + b.
    stride = table.shape[1]
    corner = w_i * stride + b_i
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
    """The per-SC (q, o) chain solved inside each fixed-point sweep.

    The (q, o) grid is rectangular: state ``(q, o)`` has index
    ``q * (pool_size + 1) + o``.  Everything that does not depend on the
    lending level and the pool availability (the ``q`` column, the ``o``
    row and their masks) is built once, read-only, and every rate of a
    solve is a whole-array expression over the grid.  :meth:`solve` gives
    the bits of a per-state loop (the test suite keeps one as its oracle).
    The generator goes to the solver as a
    :class:`~repro.markov.solvers.BandGenerator` of five band slots per
    state (three with no pool), whose ``tocsr`` is byte for byte what a
    COO build, ``tocsr`` and a ``sp.diags`` subtraction give; the oracle
    test compares those bytes.  The bandwidth is ``pool_size + 1``, so
    whenever the queue levels outnumber the pool levels (every
    ``market-fig7`` chain) the solver's band LU reads the slots straight
    into its storage and no sparse matrix is built; a wider chain, or a
    failed band LU, is solved on the ``tocsr`` matrix.
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
        self.can_borrow = self.o < pool_size
        self.has_remote = self.o > 0.0
        self.remote_rate = self.o * cloud.service_rate
        # Every solve reads these, so none may write to them.
        grids = (self.q, self.o, self.arrives, self.can_borrow, self.has_remote, self.remote_rate)
        for grid in grids:
            grid.flags.writeable = False
        #: Waiting stays within ``q_max`` and busy within ``capacity``; the
        #: spare row and column cover a lent mean a rounding error below 0.
        self.pnf_table = _pnf_table(
            self.q_max + 1, capacity + 1, cloud.service_rate, cloud.sla_bound
        )

    def solve(self, ell: float, beta: float) -> dict[str, float]:
        """Solve the chain for given lending level and pool availability.

        This runs once per SC per fixed-point iteration and dominates the
        pooled model's cost.  Each band slot is written once, in the
        loop's arithmetic: a transition stored under the loop's guards,
        its operands multiplied in the loop's order, and two transitions
        into one slot added in emission order, as a COO build sums its
        duplicates.  The diagonal is minus the row's first stored entry
        plus the left-to-right sum of the rest, the order in which
        ``csr_matrix.sum(axis=1)`` adds a row; an entry not stored is a
        zero, which adds nothing.  Every moment is a left-to-right sum in
        state order.
        """
        cloud = self.cloud
        q, o = self.q, self.o
        n_states = q.size * o.size
        with obs.span("perf.chain", n=n_states, width=o.size):
            mu = cloud.service_rate
            lam = cloud.arrival_rate
            shape = (q.size, o.size)
            capacity = cloud.vms - ell  # fractional effective own capacity

            # Columns: each depends on q only and broadcasts across o.
            own_running = np.minimum(q, capacity)
            waiting = np.maximum(q - capacity, 0.0)
            idle = np.maximum(capacity - q, 0.0)
            w_local = np.minimum(idle, 1.0)  # the free fraction of a local VM
            saturated = 1.0 - w_local
            w_keep = np.minimum(waiting, 1.0)
            spills = self.arrives & (saturated > 0.0)

            # Arrivals (split continuously at the fractional capacity): the
            # blocked share queues or is forwarded.
            blocked = saturated * np.where(self.can_borrow, 1.0 - beta, 1.0)
            blocked_flow = lam * blocked
            p_queue = _fractional_prob_no_forward(
                waiting, own_running + o, mu, cloud.sla_bound, table=self.pnf_table
            )
            queue_or_forward = spills & (blocked > 0.0)
            forward_flow = np.where(queue_or_forward, blocked_flow * (1.0 - p_queue), 0.0)
            forward_flow[-1] = lam
            local = self.arrives & (w_local > 0.0)
            queued = queue_or_forward & (p_queue > 0.0)
            borrows = spills & self.can_borrow & (beta > 0.0)
            # Local departures, and remote ones (continuous keep/return split).
            keeps = (w_keep > 0.0) & self.has_remote
            returns = (w_keep < 1.0) & self.has_remote
            departs = (own_running > 0.0) | keeps

            # One slot per band of the generator: -width, -1, the diagonal, +1
            # and +width, in column order (at width 1 the +-1 slots stay empty:
            # with no pool nothing is borrowed or returned).
            slots = np.empty((5,) + shape)
            down, back, diagonal, borrow, up = slots
            up[...] = np.where(local, lam * w_local, 0.0) + np.where(
                queued, blocked_flow * p_queue, 0.0
            )
            borrow[...] = np.where(borrows, (lam * saturated) * beta, 0.0)
            down[...] = np.where(own_running > 0.0, own_running * mu, 0.0) + np.where(
                keeps, self.remote_rate * w_keep, 0.0
            )
            back[...] = np.where(returns, self.remote_rate * (1.0 - w_keep), 0.0)
            # The diagonal is minus the row's exit rate, added as
            # ``csr_matrix.sum(axis=1)`` adds a row: its first stored entry
            # plus the left-to-right sum of the rest.  An entry not stored
            # is a zero and adds nothing, so only whether the first stored
            # entry is in slot 0 or further right changes the order.
            diagonal[...] = -np.where(
                departs, down + ((back + borrow) + up), back + (borrow + up)
            )
            if o.size > 1:
                offsets = (-o.size, -1, 0, 1, o.size)
                generator = BandGenerator(slots.reshape(5, n_states).T, offsets)
            else:
                generator = BandGenerator(slots[::2].reshape(3, n_states).T, (-1, 0, 1))
            pi = steady_state(generator)

            forward_rate = float(forward_flow.ravel() @ pi)
            share_room = max(cloud.shared_vms - ell, 0.0)
            headroom = min(share_room, 1.0)
            grid_pi = pi.reshape(shape)
            moments = np.empty((4,) + shape)
            np.multiply(o, grid_pi, out=moments[0])
            np.multiply(own_running, grid_pi, out=moments[1])
            np.multiply(np.minimum(idle, share_room), grid_pi, out=moments[2])
            np.multiply(w_local, grid_pi, out=moments[3])
            # ``cumsum`` adds left to right (``np.sum`` and ``dot`` add
            # pairwise and round differently).
            borrowed, busy_own, idle_sharable, free_prob = np.cumsum(
                moments.reshape(4, n_states), axis=1
            )[:, -1].tolist()
            return {
                "borrowed": borrowed,
                "busy_own": busy_own,
                "idle_sharable": idle_sharable,
                "forward_rate": forward_rate,
                "avail_prob": free_prob * headroom,
            }


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
            chains = [
                _CloudChain(
                    scenario[i],
                    pool_size=scenario.shared_by_others(i),
                    tail_epsilon=self.tail_epsilon,
                )
                for i in range(k)
            ]
            ell, beta = self._fixed_point(chains, shares)
            stats = [chains[i].solve(ell[i], beta[i]) for i in range(k)]
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
        self, chains: list[_CloudChain], shares: np.ndarray, ell: np.ndarray, beta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One sweep of the coupling map ``(ell, beta) -> (ell', beta')``."""
        k = len(chains)
        stats = [chains[i].solve(ell[i], beta[i]) for i in range(k)]
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
        self, chains: list[_CloudChain], shares: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve the coupling fixed point.

        Damped Picard iteration handles the common case; when the raw map
        cycles (which happens for a few asymmetric share vectors), the
        final iterate seeds a Newton-Krylov root solve of the residual
        ``map(x) - x``, which lands on the fixed point at the cycle's
        center.
        """
        k = len(chains)
        ell = np.zeros(k)
        beta = np.ones(k) * np.where(shares.sum() - shares > 0, 1.0, 0.0)
        damping = self.damping
        best_step = np.inf
        stalled = 0
        for _ in range(self.max_iterations):
            new_ell, new_beta = self._apply_map(chains, shares, ell, beta)
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
        return self._root_solve(chains, shares, ell, beta)

    def _root_solve(
        self,
        chains: list[_CloudChain],
        shares: np.ndarray,
        ell: np.ndarray,
        beta: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fallback: solve ``map(x) = x`` with a quasi-Newton root finder."""
        import scipy.optimize

        k = len(chains)

        def clip(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            e = np.clip(x[:k], 0.0, shares)
            b = np.clip(x[k:], 0.0, 1.0)
            return e, b

        def residual(x: np.ndarray) -> np.ndarray:
            e, b = clip(x)
            new_e, new_b = self._apply_map(chains, shares, e, b)
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
