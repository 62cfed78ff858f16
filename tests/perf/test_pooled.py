"""Tests for the pooled fixed-point model."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro.bench.scenarios import fig7_scenario
from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.markov.solvers import steady_state
from repro.perf.pooled import PooledModel, _CloudChain, _fractional_prob_no_forward
from repro.queueing.forwarding import NoSharingModel
from repro.queueing.sla import prob_no_forward


def scenario_3sc(shares=(3, 3, 3), rates=(5.8, 7.3, 8.4)):
    return FederationScenario(
        tuple(
            SmallCloud(name=f"sc{i}", vms=10, arrival_rate=r, shared_vms=s)
            for i, (r, s) in enumerate(zip(rates, shares))
        )
    )


class TestFractionalPnf:
    def test_matches_integer_arguments(self):
        assert _fractional_prob_no_forward(3.0, 8.0, 1.0, 0.2) == pytest.approx(
            prob_no_forward(3, 8, 1.0, 0.2)
        )

    def test_interpolates_busy(self):
        lo = prob_no_forward(2, 5, 1.0, 0.2)
        hi = prob_no_forward(2, 6, 1.0, 0.2)
        mid = _fractional_prob_no_forward(2.0, 5.5, 1.0, 0.2)
        assert lo <= mid <= hi

    def test_interpolates_waiting(self):
        lo = prob_no_forward(3, 8, 1.0, 0.2)
        hi = prob_no_forward(2, 8, 1.0, 0.2)
        mid = _fractional_prob_no_forward(2.5, 8.0, 1.0, 0.2)
        assert lo <= mid <= hi

    def test_continuity_near_integers(self):
        eps = 1e-6
        below = _fractional_prob_no_forward(2.0, 8.0 - eps, 1.0, 0.2)
        above = _fractional_prob_no_forward(2.0, 8.0 + eps, 1.0, 0.2)
        assert below == pytest.approx(above, abs=1e-4)

    def test_edge_cases(self):
        assert _fractional_prob_no_forward(-0.5, 5.0, 1.0, 0.2) == 1.0
        assert _fractional_prob_no_forward(1.0, 0.0, 1.0, 0.2) == 0.0


class TestDegenerateCases:
    def test_no_sharing_matches_analytic(self):
        scenario = scenario_3sc(shares=(0, 0, 0))
        params = PooledModel().evaluate(scenario)
        for p, cloud in zip(params, scenario):
            reference = NoSharingModel(
                cloud.vms, cloud.arrival_rate, cloud.service_rate, cloud.sla_bound
            )
            assert p.lent_mean == 0.0
            assert p.borrowed_mean == 0.0
            assert p.forward_rate == pytest.approx(reference.forward_rate, rel=1e-6)

    def test_single_sc(self):
        scenario = FederationScenario((
            SmallCloud(name="solo", vms=10, arrival_rate=7.0, shared_vms=5),
        ))
        params = PooledModel().evaluate(scenario)[0]
        assert params.lent_mean == 0.0
        assert params.borrowed_mean == 0.0


class TestFixedPoint:
    def test_flow_conservation(self):
        params = PooledModel().evaluate(scenario_3sc())
        total_lent = sum(p.lent_mean for p in params)
        total_borrowed = sum(p.borrowed_mean for p in params)
        assert total_lent == pytest.approx(total_borrowed, rel=0.02)

    def test_share_limits_respected(self):
        scenario = scenario_3sc(shares=(1, 2, 3))
        for p, cloud in zip(PooledModel().evaluate(scenario), scenario):
            assert p.lent_mean <= cloud.shared_vms + 1e-6

    def test_cool_sc_lends_hot_sc_borrows(self):
        params = PooledModel().evaluate(scenario_3sc())
        assert params[0].net_borrowed < params[2].net_borrowed
        assert params[2].net_borrowed > 0.0

    def test_known_cycling_vector_converges(self):
        # (0, 3, 0)-style asymmetric vectors used to cycle; must converge.
        scenario = scenario_3sc(shares=(0, 3, 0))
        params = PooledModel().evaluate(scenario)
        assert params[1].lent_mean > 0.0
        assert params[1].borrowed_mean == pytest.approx(0.0, abs=1e-6)

    def test_sharing_reduces_forwarding(self):
        closed = PooledModel().evaluate(scenario_3sc(shares=(0, 0, 0)))
        open_ = PooledModel().evaluate(scenario_3sc(shares=(5, 5, 5)))
        assert sum(p.forward_rate for p in open_) < sum(
            p.forward_rate for p in closed
        )

    def test_utilization_bounds(self):
        for p in PooledModel().evaluate(scenario_3sc(shares=(10, 10, 10))):
            assert 0.0 <= p.utilization <= 1.0


def _scalar_prob_no_forward(waiting, busy, service_rate, sla_bound):
    """The per-argument-pair ``P^NF`` interpolation the oracle below uses."""
    if waiting < 0.0:
        return 1.0
    if busy <= 0.0:
        return 0.0

    def at_busy(b):
        w_lo = int(np.floor(waiting))
        w_hi = int(np.ceil(waiting))
        lo = prob_no_forward(w_lo, b, service_rate, sla_bound)
        if w_hi == w_lo:
            return lo
        hi = prob_no_forward(w_hi, b, service_rate, sla_bound)
        frac = waiting - w_lo
        return (1.0 - frac) * lo + frac * hi

    b_lo = int(np.floor(busy))
    b_hi = int(np.ceil(busy))
    low_val = at_busy(b_lo)
    if b_hi == b_lo:
        return low_val
    high_val = at_busy(b_hi)
    frac = busy - b_lo
    return (1.0 - frac) * low_val + frac * high_val


def scalar_chain_solve(chain, ell, beta):
    """Bitwise oracle for ``_CloudChain.solve``: the chain assembled and
    reduced one state at a time."""
    cloud = chain.cloud
    mu = cloud.service_rate
    lam = cloud.arrival_rate
    pool = chain.pool_size
    width = pool + 1
    n_states = (chain.q_max + 1) * width
    capacity = cloud.vms - ell
    rows, cols, vals = [], [], []
    forward_flow = np.zeros(n_states)

    def add(src_idx, dst_idx, rate):
        rows.append(src_idx)
        cols.append(dst_idx)
        vals.append(rate)

    for q in range(chain.q_max + 1):
        own_running = q if q < capacity else capacity
        waiting = q - capacity
        if waiting < 0.0:
            waiting = 0.0
        w_local = capacity - q
        if w_local > 1.0:
            w_local = 1.0
        elif w_local < 0.0:
            w_local = 0.0
        saturated = 1.0 - w_local
        for o in range(width):
            idx = q * width + o
            if q + 1 <= chain.q_max:
                if w_local > 0.0:
                    add(idx, idx + width, lam * w_local)
                if saturated > 0.0:
                    if o < pool and beta > 0.0:
                        add(idx, idx + 1, lam * saturated * beta)
                    blocked = saturated * (1.0 if o >= pool else 1.0 - beta)
                    if blocked > 0.0:
                        busy = own_running + o
                        p_queue = _scalar_prob_no_forward(waiting, busy, mu, cloud.sla_bound)
                        if p_queue > 0.0:
                            add(idx, idx + width, lam * blocked * p_queue)
                        forward_flow[idx] = lam * blocked * (1.0 - p_queue)
            else:
                forward_flow[idx] = lam
            if own_running > 0:
                add(idx, idx - width, own_running * mu)
            if o > 0:
                w_keep = waiting if waiting < 1.0 else 1.0
                if w_keep > 0.0:
                    add(idx, idx - width, o * mu * w_keep)
                if w_keep < 1.0:
                    add(idx, idx - 1, o * mu * (1.0 - w_keep))

    q_matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n_states, n_states)).tocsr()
    q_matrix = q_matrix - sp.diags(np.asarray(q_matrix.sum(axis=1)).ravel(), format="csr")
    pi = steady_state(q_matrix)

    borrowed = busy_own = idle_sharable = free_prob = 0.0
    forward_rate = float(forward_flow @ pi)
    share_room = cloud.shared_vms - ell
    if share_room < 0.0:
        share_room = 0.0
    for q in range(chain.q_max + 1):
        own_running = q if q < capacity else capacity
        idle = capacity - q
        if idle < 0.0:
            idle = 0.0
        sharable = idle if idle < share_room else share_room
        free_frac = idle if idle < 1.0 else 1.0
        for o in range(width):
            p = pi[q * width + o]
            borrowed += o * p
            busy_own += own_running * p
            idle_sharable += sharable * p
            free_prob += free_frac * p
    headroom = share_room if share_room < 1.0 else 1.0
    return {
        "borrowed": borrowed,
        "busy_own": busy_own,
        "idle_sharable": idle_sharable,
        "forward_rate": forward_rate,
        "avail_prob": free_prob * headroom,
    }


def _hex(stats):
    return {key: float(value).hex() for key, value in stats.items()}


class TestVectorizedChainMatchesOracle:
    """``_CloudChain.solve`` gives the scalar loop's bits on every key."""

    TEN = SmallCloud(name="sc", vms=10, arrival_rate=8.4, service_rate=0.9, shared_vms=3)
    TWO = SmallCloud(name="sc", vms=2, arrival_rate=1.7, service_rate=0.9, shared_vms=2)

    @pytest.mark.parametrize("pool_size", [0, 6])
    @pytest.mark.parametrize("beta", [0.0, 0.42, 1.0])
    # A fractional ell leaves a fractional capacity (8.7 or 0.63): its row
    # splits arrivals between a free local VM and the blocked
    # (queue-or-forward) branch, and at 0.63 the blocked branch meets a
    # state with no busy VM.  ell = shared_vms leaves no room to lend.
    @pytest.mark.parametrize(
        "cloud, ell",
        [(TEN, 0.0), (TEN, 1.3), (TEN, 3.0), (TWO, 1.37)],
        ids=["10vm-none", "10vm-fractional", "10vm-shared", "2vm-fractional"],
    )
    def test_bitwise(self, cloud, ell, beta, pool_size):
        chain = _CloudChain(cloud, pool_size=pool_size, tail_epsilon=1e-9)
        expected = scalar_chain_solve(chain, ell, beta)
        assert _hex(chain.solve(ell, beta)) == _hex(expected)

    @pytest.mark.parametrize(
        "scenario",
        [
            scenario_3sc(),
            fig7_scenario("spread").with_sharing((5, 5, 5)),
        ],
        ids=["3sc", "fig7-spread-555"],
    )
    def test_evaluate_bitwise(self, scenario, monkeypatch):
        def fields(params):
            return [
                [float(getattr(p, f.name)).hex() for f in dataclasses.fields(p)]
                for p in params
            ]

        fast = fields(PooledModel().evaluate(scenario))
        monkeypatch.setattr(_CloudChain, "solve", scalar_chain_solve)
        assert fields(PooledModel().evaluate(scenario)) == fast
