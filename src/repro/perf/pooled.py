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

from typing import TYPE_CHECKING, Any

import numpy as np

from repro._validation import check_in_range, check_positive, check_positive_int
from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.exceptions import ConvergenceError
from repro.perf.base import PerformanceModel
from repro.perf.params import PerformanceParams
from repro.queueing.forwarding import queue_truncation_level
from repro.queueing.sla import prob_no_forward

if TYPE_CHECKING:
    from numpy.typing import ArrayLike


def _pnf_table(
    max_waiting: int, max_busy: int, service_rate: float, sla_bound: float
) -> np.ndarray:
    """``T[w, b] = prob_no_forward(w, b, service_rate, sla_bound)`` for
    ``0 <= w <= max_waiting`` and ``0 <= b <= max_busy``."""
    table = np.empty((max_waiting + 1, max_busy + 1))
    for w in range(max_waiting + 1):
        for b in range(max_busy + 1):
            table[w, b] = prob_no_forward(w, b, service_rate, sla_bound)
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
    fixed point).  An integer argument takes the tabulated value itself,
    not an interpolation that could round differently.

    ``table`` is a :func:`_pnf_table` of the same rate and bound covering
    the ceiling of every argument; without one, a large enough table is
    built.
    """
    waiting = np.asarray(waiting, dtype=float)
    busy = np.asarray(busy, dtype=float)
    w_lo = np.floor(waiting)
    w_hi = np.ceil(waiting)
    b_lo = np.floor(busy)
    b_hi = np.ceil(busy)
    # Negative arguments are answered by the guards at the end; clamp their
    # indices so that the lookups stay inside the table.
    w_lo_i, w_hi_i, b_lo_i, b_hi_i = (
        np.maximum(x, 0.0).astype(np.intp) for x in (w_lo, w_hi, b_lo, b_hi)
    )
    if table is None:
        table = _pnf_table(
            int(w_hi_i.max(initial=0)), int(b_hi_i.max(initial=0)), service_rate, sla_bound
        )
    frac_w = waiting - w_lo
    whole_w = w_hi == w_lo

    def at_busy(b: np.ndarray) -> np.ndarray:
        lo = table[w_lo_i, b]
        hi = table[w_hi_i, b]
        return np.where(whole_w, lo, (1.0 - frac_w) * lo + frac_w * hi)

    low_val = at_busy(b_lo_i)
    high_val = at_busy(b_hi_i)
    frac_b = busy - b_lo
    value = np.where(b_hi == b_lo, low_val, (1.0 - frac_b) * low_val + frac_b * high_val)
    value = np.where(busy <= 0.0, 0.0, value)
    value = np.where(waiting < 0.0, 1.0, value)
    return float(value) if value.ndim == 0 else value


def _running_sum(terms: np.ndarray) -> float:
    """``0.0 + t[0] + t[1] + ...`` summed left to right, as a loop would.

    ``np.sum`` and ``dot`` add pairwise and round differently.
    """
    return float(np.cumsum(np.concatenate(([0.0], terms.ravel())))[-1])


class _CloudChain:
    """The per-SC (q, o) chain solved inside each fixed-point sweep.

    The (q, o) grid is rectangular: state ``(q, o)`` has index
    ``q * (pool_size + 1) + o`` and every rate is a whole-array expression
    over the grid.  :meth:`solve` gives the bits of a per-state loop (the
    test suite keeps one as its oracle): it emits each transition under the
    loop's guards, since a stored zero would change the sparsity pattern
    and with it the LU ordering; it multiplies each rate's operands in the
    loop's order; and it sums each moment left to right in state order.
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
        self.index = np.arange(self.q.size * self.o.size).reshape(self.q.size, self.o.size)
        #: Waiting stays within ``q_max`` and busy within ``capacity``; the
        #: spare row and column cover a lent mean a rounding error below 0.
        self.pnf_table = _pnf_table(
            self.q_max + 1, capacity + 1, cloud.service_rate, cloud.sla_bound
        )

    def solve(self, ell: float, beta: float) -> dict[str, float]:
        """Solve the chain for given lending level and pool availability.

        This runs once per SC per fixed-point iteration and dominates the
        pooled model's cost.
        """
        cloud = self.cloud
        mu = cloud.service_rate
        lam = cloud.arrival_rate
        pool = self.pool_size
        q, o, index = self.q, self.o, self.index
        width = o.size
        n_states = index.size
        capacity = cloud.vms - ell  # fractional effective own capacity

        # Columns: each depends on q only and broadcasts across o.
        own_running = np.where(q < capacity, q, capacity)
        waiting = q - capacity
        waiting = np.where(waiting < 0.0, 0.0, waiting)
        w_local = capacity - q
        w_local = np.where(w_local > 1.0, 1.0, np.where(w_local < 0.0, 0.0, w_local))
        saturated = 1.0 - w_local
        w_keep = np.where(waiting < 1.0, waiting, 1.0)
        arrives = q < self.q_max  # at q_max every arrival is forwarded
        spills = arrives & (saturated > 0.0)

        sources: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        rates: list[np.ndarray] = []

        def add(mask: np.ndarray, step: int, grid_rates: np.ndarray) -> None:
            mask = np.broadcast_to(mask, index.shape)
            sources.append(index[mask])
            targets.append(sources[-1] + step)
            rates.append(np.broadcast_to(grid_rates, index.shape)[mask])

        # Arrivals (split continuously at the fractional capacity).
        add(arrives & (w_local > 0.0), width, lam * w_local)
        if beta > 0.0:
            add(spills & (o < pool), 1, (lam * saturated) * beta)
        blocked = saturated * np.where(o < pool, 1.0 - beta, 1.0)
        blocked_flow = lam * blocked
        p_queue = _fractional_prob_no_forward(
            waiting, own_running + o, mu, cloud.sla_bound, table=self.pnf_table
        )
        queue_or_forward = spills & (blocked > 0.0)
        add(queue_or_forward & (p_queue > 0.0), width, blocked_flow * p_queue)
        forward_flow = np.where(queue_or_forward, blocked_flow * (1.0 - p_queue), 0.0)
        forward_flow[-1] = lam
        # Local departures.
        add(own_running > 0.0, -width, own_running * mu)
        # Remote departures (continuous keep/return split).
        add((w_keep > 0.0) & (o > 0.0), -width, (o * mu) * w_keep)
        add((w_keep < 1.0) & (o > 0.0), -1, (o * mu) * (1.0 - w_keep))

        import scipy.sparse as sp

        q_matrix = sp.coo_matrix(
            (np.concatenate(rates), (np.concatenate(sources), np.concatenate(targets))),
            shape=(n_states, n_states),
        ).tocsr()
        q_matrix = q_matrix - sp.diags(
            np.asarray(q_matrix.sum(axis=1)).ravel(), format="csr"
        )
        from repro.markov.solvers import steady_state

        pi = steady_state(q_matrix)

        forward_rate = float(forward_flow.ravel() @ pi)
        share_room = cloud.shared_vms - ell
        if share_room < 0.0:
            share_room = 0.0
        idle = capacity - q
        idle = np.where(idle < 0.0, 0.0, idle)
        sharable = np.where(idle < share_room, idle, share_room)
        free_frac = np.where(idle < 1.0, idle, 1.0)
        grid_pi = pi.reshape(index.shape)
        headroom = share_room if share_room < 1.0 else 1.0
        return {
            "borrowed": _running_sum(o * grid_pi),
            "busy_own": _running_sum(own_running * grid_pi),
            "idle_sharable": _running_sum(sharable * grid_pi),
            "forward_rate": forward_rate,
            "avail_prob": _running_sum(free_frac * grid_pi) * headroom,
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
