"""Tests for the pooled fixed-point model."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse._compressed

from repro import obs
from repro.analysis import sanitize
from repro.bench.scenarios import fig7_scenario
from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.markov.solvers import BandGenerator, steady_state
from repro.obs import goldens
from repro.perf import pooled
from repro.perf.pooled import PooledModel, _CloudChain, _fractional_prob_no_forward, _Sweep
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


class TestPnfTable:
    CLOUD = SmallCloud(name="sc", vms=10, arrival_rate=8.4, service_rate=0.9, shared_vms=3)

    def test_chains_of_one_cloud_share_one_read_only_table(self):
        first = _CloudChain(self.CLOUD, pool_size=6, tail_epsilon=1e-9)
        second = _CloudChain(self.CLOUD, pool_size=6, tail_epsilon=1e-9)
        assert second.pnf_table is first.pnf_table
        with pytest.raises(ValueError, match="read-only"):
            first.pnf_table[0, 0] = 0.5

    def test_memoized_bits_are_the_scalar_calls(self):
        chain = _CloudChain(self.CLOUD, pool_size=6, tail_epsilon=1e-9)
        rows, cols = chain.pnf_table.shape
        assert (rows, cols) == (chain.q_max + 2, self.CLOUD.vms + 6 + 2)
        for w in range(rows):
            for b in range(cols):
                assert chain.pnf_table[w, b].hex() == float(
                    prob_no_forward(w, b, self.CLOUD.service_rate, self.CLOUD.sla_bound)
                ).hex()


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


def scalar_generator(chain, ell, beta):
    """The chain's generator assembled one state at a time through a COO
    build, ``tocsr`` and a ``diags`` subtraction, with each state's
    forwarded flow."""
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
    return q_matrix, forward_flow


def scalar_chain_solve(chain, ell, beta):
    """Bitwise oracle for one chain of ``_Sweep.solve``: the chain
    assembled and reduced one state at a time."""
    cloud = chain.cloud
    capacity = cloud.vms - ell
    width = chain.pool_size + 1
    q_matrix, forward_flow = scalar_generator(chain, ell, beta)
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


def solve_one(chain, ell, beta):
    """The stats of ``chain`` solved alone, as a one-chain sweep."""
    (stats,) = _Sweep([chain]).solve(np.array([ell]), np.array([beta]))
    return stats


class TestVectorizedChainMatchesOracle:
    """A chain solved by ``_Sweep.solve`` gives the scalar loop's bits on
    every key."""

    TEN = SmallCloud(name="sc", vms=10, arrival_rate=8.4, service_rate=0.9, shared_vms=3)
    TWO = SmallCloud(name="sc", vms=2, arrival_rate=1.7, service_rate=0.9, shared_vms=2)
    # Pool 1 is the narrowest pooled grid (width 2).
    POOL_SIZES = [0, 1, 6]
    # At 5e-324 a borrow rate below 0.5 ulp of it rounds to 0.0 (in row 0
    # of 2vm-underflow, where lam * saturated = 0.34): the entry is stored
    # but zero.
    BETAS = [0.0, 5e-324, 0.42, 1.0]

    @pytest.mark.parametrize("pool_size", POOL_SIZES)
    @pytest.mark.parametrize("beta", BETAS)
    # A fractional ell leaves a fractional capacity (8.7 or 0.63): its row
    # splits arrivals between a free local VM and the blocked
    # (queue-or-forward) branch, and at 0.63 the blocked branch meets a
    # state with no busy VM.  ell = 2 leaves an integer capacity after
    # partial lending; ell = shared_vms leaves no room to lend.
    @pytest.mark.parametrize(
        "cloud, ell",
        [(TEN, 0.0), (TEN, 1.3), (TEN, 2.0), (TEN, 3.0), (TWO, 1.37), (TWO, 1.2)],
        ids=[
            "10vm-none",
            "10vm-fractional",
            "10vm-integer",
            "10vm-shared",
            "2vm-fractional",
            "2vm-underflow",
        ],
    )
    def test_bitwise(self, cloud, ell, beta, pool_size):
        chain = _CloudChain(cloud, pool_size=pool_size, tail_epsilon=1e-9)
        expected = scalar_chain_solve(chain, ell, beta)
        assert _hex(solve_one(chain, ell, beta)) == _hex(expected)

    @pytest.mark.parametrize("pool_size", POOL_SIZES)
    @pytest.mark.parametrize("beta", BETAS)
    # With every VM lent (2vm-all-lent) no state can serve: at pool 0 every
    # row is empty, and at pool 6 the rows of the states that can neither
    # borrow nor queue are, so their zero diagonals must not be stored.
    @pytest.mark.parametrize(
        "cloud, ell",
        [(TEN, 0.0), (TEN, 1.3), (TEN, 2.0), (TEN, 3.0), (TWO, 1.37), (TWO, 1.2), (TWO, 2.0)],
        ids=[
            "10vm-none",
            "10vm-fractional",
            "10vm-integer",
            "10vm-shared",
            "2vm-fractional",
            "2vm-underflow",
            "2vm-all-lent",
        ],
    )
    def test_generator_bytes(self, cloud, ell, beta, pool_size, monkeypatch):
        """The solver receives a band generator whose ``tocsr`` arrays are
        the COO build's, byte for byte: same duplicate sums, same diagonal
        rounding, same dropped zeros."""
        chain = _CloudChain(cloud, pool_size=pool_size, tail_epsilon=1e-9)
        solved = []
        # The bytes are the point, not the solve (an all-lent chain has
        # absorbing states), so the solver is replaced by a uniform answer.
        monkeypatch.setattr(
            pooled,
            "steady_state",
            lambda q: solved.append(q) or np.full(q.shape[0], 1.0 / q.shape[0]),
        )
        solve_one(chain, ell, beta)
        expected, _ = scalar_generator(chain, ell, beta)
        (generator,) = solved
        assert isinstance(generator, BandGenerator)
        matrix = generator.tocsr()
        assert matrix.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(matrix, name), getattr(expected, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "scenario",
        [
            scenario_3sc(),
            fig7_scenario("spread").with_sharing((5, 5, 5)),
            # Its pool-20 chain (1,218 states) is the widest of market-fig7.
            fig7_scenario("spread").with_sharing((10, 2, 10)),
        ],
        ids=["3sc", "fig7-spread-555", "fig7-spread-10-2-10"],
    )
    def test_evaluate_bitwise(self, scenario, monkeypatch):
        def fields(params):
            return [
                [float(getattr(p, f.name)).hex() for f in dataclasses.fields(p)]
                for p in params
            ]

        def oracle(sweep, ell, beta):
            return [scalar_chain_solve(c, e, b) for c, e, b in zip(sweep.chains, ell, beta)]

        fast = fields(PooledModel().evaluate(scenario))
        monkeypatch.setattr(_Sweep, "solve", oracle)
        assert fields(PooledModel().evaluate(scenario)) == fast


class TestSolvesShareOnlyTheReadOnlyGrid:
    CLOUD = TestVectorizedChainMatchesOracle.TEN

    @pytest.mark.parametrize("name", _Sweep.GRIDS)
    def test_hoisted_grid_is_read_only(self, name):
        chain = _CloudChain(self.CLOUD, pool_size=6, tail_epsilon=1e-9)
        with pytest.raises(ValueError, match="read-only"):
            getattr(chain, name)[0] = 1

    @pytest.mark.parametrize(
        "name",
        [*_Sweep.GRIDS, "chain", "vms", "shared", "lam", "mu", "pnf_table", "pnf_base",
         "pnf_stride", "last"],
    )
    def test_flat_arrays_are_read_only(self, name):
        chains = [_CloudChain(self.CLOUD, pool_size=p, tail_epsilon=1e-9) for p in (6, 0)]
        with pytest.raises(ValueError, match="read-only"):
            getattr(_Sweep(chains), name)[0] = 1

    def test_successive_solves_each_match_the_oracle(self):
        chain = _CloudChain(self.CLOUD, pool_size=6, tail_epsilon=1e-9)
        sweep = _Sweep([chain])
        for ell, beta in [(1.3, 0.42), (0.0, 1.0), (3.0, 0.0), (1.3, 0.42)]:
            expected = scalar_chain_solve(chain, ell, beta)
            (stats,) = sweep.solve(np.array([ell]), np.array([beta]))
            assert _hex(stats) == _hex(expected)


class TestSweepMatchesOracle:
    """Every chain of a k-chain sweep gives the scalar loop's bits, with
    chains of different sizes, widths, clouds and tables side by side."""

    TEN = TestVectorizedChainMatchesOracle.TEN
    TWO = TestVectorizedChainMatchesOracle.TWO
    FOUR = SmallCloud(name="four", vms=4, arrival_rate=3.1, service_rate=1.3, shared_vms=4)

    def chains(self, specs):
        return [_CloudChain(cloud, pool_size=pool, tail_epsilon=1e-9) for cloud, pool in specs]

    SWEEPS = {
        # A pool-0 (width-1) chain beside a pool-20 chain.
        "k2-width1-pool20": [(TEN, 0), (FOUR, 20)],
        "k3-mixed": [(TEN, 6), (TWO, 1), (FOUR, 0)],
        "k4-mixed": [(FOUR, 20), (TEN, 0), (TWO, 6), (TEN, 1)],
    }
    DRAWS = [
        ([1.3, 0.0, 2.0, 4.0], [0.42, 1.0, 0.0, 5e-324]),
        ([0.0, 4.0, 1.37, 0.5], [1.0, 0.0, 0.42, 0.9]),
        ([3.0, 2.5, 1.2, 0.0], [0.0, 0.42, 1.0, 0.3]),
    ]

    @pytest.mark.parametrize("name", list(SWEEPS))
    def test_successive_sweeps_match_the_oracle(self, name):
        chains = self.chains(self.SWEEPS[name])
        k = len(chains)
        sweep = _Sweep(chains)
        for ell, beta in self.DRAWS:
            # Lend no more than a cloud shares.
            ell = np.minimum(ell[:k], [c.cloud.shared_vms for c in chains])
            beta = np.array(beta[:k])
            got = sweep.solve(ell, beta)
            assert len(got) == k
            for chain, e, b, stats in zip(chains, ell, beta, got):
                assert _hex(stats) == _hex(scalar_chain_solve(chain, e, b))


class TestPooledSpans:
    def test_traced_evaluate_tree(self):
        """One ``perf.evaluate`` root; one ``perf.sweep`` per sweep, whose
        k children are the chains' ``markov.steady_state`` solves."""
        scenario = scenario_3sc(shares=(1, 2, 3))
        with obs.capture() as cap:
            traced = PooledModel().evaluate(scenario)
        assert traced == PooledModel().evaluate(scenario)
        solves = cap.registry.snapshot().counter_view()["markov.solve.direct"]
        assert solves % 3 == 0 and solves > 3
        (root,) = cap.tracer.roots
        assert root.attrs == {"model": "pooled", "k": 3}
        assert goldens.span_shape(root) == {
            "name": "perf.evaluate",
            "children": [
                {
                    "name": "perf.sweep",
                    "count": solves // 3,
                    "children": [{"name": "markov.steady_state", "count": 3, "children": []}],
                }
            ],
        }
        widths = [scenario.shared_by_others(i) + 1 for i in range(3)]
        for sweep in root.children:
            ns = [solve.attrs["n"] for solve in sweep.children]
            assert sweep.attrs == {"k": 3, "n": sum(ns)}
            # The chains are solved in SC order.
            assert all(n % width == 0 for n, width in zip(ns, widths))

    def test_no_sharing_evaluate_has_no_sweep(self):
        with obs.capture(metrics=False) as cap:
            PooledModel().evaluate(scenario_3sc(shares=(0, 0, 0)))
        (root,) = cap.tracer.roots
        assert (root.name, root.attrs, root.children) == (
            "perf.evaluate",
            {"model": "pooled", "k": 3},
            [],
        )


class TestNoSparseMatrixOnTheMarketLoop:
    SCENARIO = fig7_scenario("spread").with_sharing((5, 5, 5))

    def test_evaluate_builds_no_sparse_matrix(self, monkeypatch):
        built = []
        real = scipy.sparse._compressed._cs_matrix.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self).__name__)
            real(self, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse._compressed._cs_matrix, "__init__", counting)
        PooledModel().evaluate(self.SCENARIO)
        assert built == []
        # The probe sees a CSR build.
        BandGenerator(np.zeros((2, 1)), (0,)).tocsr()
        assert built == ["csr_matrix"]

    def test_sanitized_evaluate_checks_every_band_solve(self, monkeypatch):
        labels = []
        real = sanitize.check_distribution

        def spy(pi, label="pi", tol=1e-6):
            if sanitize.sanitize_enabled():
                labels.append(label)
            real(pi, label=label, tol=tol)

        monkeypatch.setattr(sanitize, "check_distribution", spy)
        with sanitize.sanitized(False):
            plain = PooledModel().evaluate(self.SCENARIO)
        assert labels == []
        with sanitize.sanitized():
            checked = PooledModel().evaluate(self.SCENARIO)
        assert checked == plain
        # One check per chain solve, every one on the band LU.
        assert len(labels) > 3 and set(labels) == {"steady-state[direct]"}
