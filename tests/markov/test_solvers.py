"""Cross-validation of the three steady-state solvers.

Each solver must reproduce analytic birth–death stationary distributions
and agree with the others on random ergodic generators.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as hyp

from repro.exceptions import SolverError
from repro.markov.birth_death import mmc_chain
from repro.markov.solvers import (
    steady_state,
    steady_state_direct,
    steady_state_gmres,
    steady_state_power,
)

SOLVERS = [steady_state_direct, steady_state_gmres, steady_state_power]


def random_ergodic_generator(n: int, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.1, 2.0, size=(n, n))
    np.fill_diagonal(q, 0.0)
    q -= np.diag(q.sum(axis=1))
    return sp.csr_matrix(q)


class TestAgainstAnalytic:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_mm1_queue(self, solver):
        # M/M/1/50 with rho = 0.5: pi_k ∝ 0.5^k.
        chain = mmc_chain(0.5, 1.0, 1, 50)
        pi = solver(chain.to_ctmc().generator)
        np.testing.assert_allclose(pi, chain.stationary(), atol=1e-9)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_mmc_queue(self, solver):
        chain = mmc_chain(8.0, 1.0, 10, 120)
        pi = solver(chain.to_ctmc().generator)
        np.testing.assert_allclose(pi, chain.stationary(), atol=1e-8)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_single_state(self, solver):
        q = sp.csr_matrix(np.array([[0.0]]))
        np.testing.assert_allclose(solver(q), [1.0])


class TestCrossAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_solvers_agree_on_random_chains(self, seed):
        q = random_ergodic_generator(25, seed)
        results = [solver(q) for solver in SOLVERS]
        for other in results[1:]:
            np.testing.assert_allclose(results[0], other, atol=1e-7)

    @given(seed=hyp.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_direct_solver_properties(self, seed):
        q = random_ergodic_generator(12, seed)
        pi = steady_state_direct(q)
        assert pi.min() >= 0.0
        assert pi.sum() == pytest.approx(1.0)
        assert np.abs(pi @ q).max() < 1e-9


class TestDispatch:
    def test_auto_uses_some_solver(self):
        q = random_ergodic_generator(10, 3)
        pi = steady_state(q, method="auto")
        assert pi.sum() == pytest.approx(1.0)

    def test_explicit_methods(self):
        q = random_ergodic_generator(10, 4)
        for method in ("direct", "gmres", "power"):
            pi = steady_state(q, method=method)
            assert pi.sum() == pytest.approx(1.0)

    def test_unknown_method_rejected(self):
        q = random_ergodic_generator(5, 5)
        with pytest.raises(SolverError):
            steady_state(q, method="magic")

    @pytest.mark.parametrize("method", ["auto", "direct", "gmres", "power"])
    def test_warm_start_keyword_is_gone(self, method):
        # Every solve starts cold: its result depends on the chain alone.
        with pytest.raises(TypeError):
            steady_state(random_ergodic_generator(5, 6), method=method, x0=np.ones(5))
