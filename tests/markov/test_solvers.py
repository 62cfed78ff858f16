"""Cross-validation of the three steady-state solvers.

Each solver must reproduce analytic birth–death stationary distributions
and agree with the others on random ergodic generators.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as hyp

from repro import obs
from repro.bench.scenarios import fig6_2sc_scenario
from repro.exceptions import SolverError
from repro.markov import solvers
from repro.markov.birth_death import mmc_chain
from repro.markov.solvers import (
    steady_state,
    steady_state_direct,
    steady_state_gmres,
    steady_state_power,
)
from repro.perf.detailed import DetailedModel

SOLVERS = [steady_state_direct, steady_state_gmres, steady_state_power]


def random_ergodic_generator(n: int, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.1, 2.0, size=(n, n))
    np.fill_diagonal(q, 0.0)
    q -= np.diag(q.sum(axis=1))
    return sp.csr_matrix(q)


def banded_generator(n: int, half_width: int, seed: int) -> sp.csr_matrix:
    """A random ergodic generator whose rates all lie within
    ``half_width`` of the diagonal.  Rates are symmetric, so the
    stationary distribution is uniform however long the chain."""
    rng = np.random.default_rng(seed)
    rows, cols, rates = [], [], []
    for offset in range(1, half_width + 1):
        idx = np.arange(n - offset)
        edge_rates = rng.uniform(0.1, 2.0, idx.size)
        rows += [idx, idx + offset]
        cols += [idx + offset, idx]
        rates += [edge_rates, edge_rates]
    rows, cols, rates = np.concatenate(rows), np.concatenate(cols), np.concatenate(rates)
    q = sp.coo_matrix((rates, (rows, cols)), shape=(n, n)).tocsr()
    return sp.csr_matrix(q - sp.diags(np.asarray(q.sum(axis=1)).ravel()))


def cyclic_reset_generator(n: int) -> sp.csr_matrix:
    """Every state steps to its successor and resets to state 0, both at
    rate 1: a chain that mixes in a few dozen uniformized steps however
    large it is."""
    idx = np.arange(n)
    rows = np.concatenate([idx, idx[1:]])
    cols = np.concatenate([(idx + 1) % n, np.zeros(n - 1, dtype=int)])
    q = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    return sp.csr_matrix(q - sp.diags(np.asarray(q.sum(axis=1)).ravel()))


def traced_solve(q: sp.spmatrix, method: str = "auto") -> tuple[np.ndarray, dict]:
    """Solve ``q`` under a tracer; return the result and the attributes of
    its ``markov.steady_state`` span."""
    with obs.capture(metrics=False) as cap:
        pi = steady_state(q, method=method)
    (span,) = cap.tracer.roots
    assert span.name == "markov.steady_state"
    return pi, span.attrs


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


class TestOrdering:
    """A banded generator is LU-factored in its natural order, any other
    with COLAMD."""

    def test_banded_generator_takes_natural_and_agrees_with_colamd(self, monkeypatch):
        q = banded_generator(400, 3, seed=1)
        natural, attrs = traced_solve(q, method="direct")
        assert attrs["ordering"] == "NATURAL"
        # Forbid NATURAL for the reference solve.
        monkeypatch.setattr(solvers, "_BANDED_FRACTION", 10**9)
        colamd, attrs = traced_solve(q, method="direct")
        assert attrs["ordering"] == "COLAMD"
        np.testing.assert_allclose(natural, colamd, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(natural, 1.0 / 400, rtol=1e-9)

    def test_bandwidth_rule_boundary(self):
        # Bandwidth n / 8 is still banded; one more is not.
        assert traced_solve(banded_generator(80, 10, seed=2), "direct")[1]["ordering"] == "NATURAL"
        assert traced_solve(banded_generator(80, 11, seed=2), "direct")[1]["ordering"] == "COLAMD"

    def test_fig6_detailed_chain_keeps_colamd(self):
        _space, ctmc = DetailedModel().build(fig6_2sc_scenario(target_share=1, target_rate=6.0))
        assert ctmc.generator.shape[0] == 8885
        pi, attrs = traced_solve(ctmc.generator)
        assert attrs["solver"] == "direct"
        assert attrs["ordering"] == "COLAMD"
        assert pi.sum() == pytest.approx(1.0)

    def test_auto_runs_power_then_direct_above_threshold(self, monkeypatch):
        q = banded_generator(solvers._LARGE_CHAIN_THRESHOLD + 1, 1, seed=3)
        calls: list[str] = []
        real_direct = solvers._direct

        def failing_power(m, **_kw):
            calls.append("power")
            raise SolverError("no convergence")

        def direct(m):
            calls.append("direct")
            return real_direct(m)

        monkeypatch.setattr(solvers, "_power", failing_power)
        monkeypatch.setattr(solvers, "_direct", direct)
        pi, attrs = traced_solve(q)
        assert calls == ["power", "direct"]
        assert attrs["solver"] == "direct"
        assert attrs["ordering"] == "NATURAL"
        assert pi.sum() == pytest.approx(1.0)

    def test_auto_below_threshold_runs_direct_only(self, monkeypatch):
        calls: list[str] = []
        real_direct = solvers._direct

        def direct(m):
            calls.append("direct")
            return real_direct(m)

        monkeypatch.setattr(solvers, "_direct", direct)
        traced_solve(banded_generator(solvers._LARGE_CHAIN_THRESHOLD, 1, seed=4))
        assert calls == ["direct"]


class TestSpanTelemetry:
    def test_direct_solve_attributes(self):
        q = banded_generator(200, 2, seed=5)
        pi, attrs = traced_solve(q)
        assert attrs["n"] == 200
        assert attrs["method"] == "auto"
        assert attrs["solver"] == "direct"
        assert attrs["ordering"] == "NATURAL"
        assert 0.0 <= attrs["residual"] < 1e-12
        assert "iterations" not in attrs
        scale = np.abs(q.diagonal()).max()
        assert attrs["residual"] == float(np.abs(pi @ q).max()) / scale

    def test_power_solve_attributes(self):
        q = cyclic_reset_generator(solvers._LARGE_CHAIN_THRESHOLD + 1)
        with obs.capture() as cap:
            pi = steady_state(q)
        (span,) = cap.tracer.roots
        attrs = span.attrs
        assert attrs["solver"] == "power"
        assert "ordering" not in attrs
        counters = dict(cap.registry.snapshot().counters)
        assert attrs["iterations"] == counters["markov.power.iterations"]
        assert 0 < attrs["iterations"] < 200
        assert 0.0 <= attrs["residual"] < 1e-6
        assert pi[0] == pytest.approx(0.5)

    def test_gmres_solve_attributes(self):
        _pi, attrs = traced_solve(random_ergodic_generator(20, 7), method="gmres")
        assert attrs["solver"] == "gmres"
        assert attrs["residual"] < 1e-6
        assert "ordering" not in attrs and "iterations" not in attrs

    def test_failed_explicit_method_propagates(self, monkeypatch):
        def failing(m):
            raise SolverError("boom")

        monkeypatch.setattr(solvers, "_SOLVERS", {**solvers._SOLVERS, "direct": failing})
        with pytest.raises(SolverError, match="boom"):
            steady_state(random_ergodic_generator(5, 8), method="direct")
