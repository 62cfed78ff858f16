"""Cross-validation of the three steady-state solvers.

Each solver must reproduce analytic birth–death stationary distributions
and agree with the others on random ergodic generators.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as hyp

from repro import obs
from repro.bench.scenarios import fig6_2sc_scenario
from repro.core.small_cloud import SmallCloud
from repro.exceptions import ConvergenceError, SolverError
from repro.markov import solvers
from repro.markov.birth_death import BirthDeathChain, mmc_chain
from repro.markov.solvers import (
    BandGenerator,
    steady_state,
    steady_state_bicgstab,
    steady_state_direct,
    steady_state_power,
)
from repro.perf import pooled
from repro.perf.detailed import DetailedModel

SOLVERS = [steady_state_direct, steady_state_bicgstab, steady_state_power]


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


def cloud_chain_band(
    pool_size: int = 6, vms: int = 10, ell: float = 1.3, beta: float = 0.42
) -> BandGenerator:
    """The band generator of a pooled model's per-SC ``(q, o)`` chain, as
    ``_Sweep.solve`` hands it to the solver."""
    cloud = SmallCloud(
        name="sc", vms=vms, arrival_rate=8.4, service_rate=0.9, shared_vms=min(vms, 3)
    )
    chain = pooled._CloudChain(cloud, pool_size=pool_size, tail_epsilon=1e-9)
    seen = []

    def spy(q):
        seen.append(q)
        return np.full(q.shape[0], 1.0 / q.shape[0])

    real = pooled.steady_state
    pooled.steady_state = spy
    try:
        pooled._Sweep([chain]).solve(np.array([ell]), np.array([beta]))
    finally:
        pooled.steady_state = real
    (q,) = seen
    assert isinstance(q, BandGenerator)
    return q


def random_band_generator(
    n: int, offsets: tuple[int, ...], seed: int, sparsity: float = 0.0
) -> BandGenerator:
    """A random band generator: every rate off the diagonal is uniform in
    [0.1, 2), or zero with probability ``sparsity`` outside the +-1
    diagonals, which keep the chain irreducible.  A slot's rates past the
    edge of the grid are zero."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.1, 2.0, size=(n, len(offsets)))
    rows = np.arange(n)[:, None] + np.array(offsets)
    rates[(rows < 0) | (rows >= n)] = 0.0
    thin = (rng.random(rates.shape) < sparsity) & (np.abs(np.array(offsets)) > 1)
    rates[thin] = 0.0
    diagonal = offsets.index(0)
    rates[:, diagonal] = 0.0
    rates[:, diagonal] = 0.0 - rates.sum(axis=1)
    return BandGenerator(rates, offsets)


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

    def test_bicgstab_on_vanishing_empty_state(self):
        # Strong upward drift: pi_k ∝ 10^k, so the empty state carries
        # about 1e-100 of the mass.  Pinning it would scale the unknowns by
        # 1e100; the rank-one normalization leaves them as they are.
        chain = BirthDeathChain([10.0] * 100, [1.0] * 100)
        exact = chain.stationary()
        assert exact[0] < 1e-90
        pi = steady_state_bicgstab(chain.to_ctmc().generator)
        np.testing.assert_allclose(pi, exact, rtol=0.0, atol=1e-10)

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

    def test_bicgstab_with_zero_jacobi_entry(self):
        # State 3 leaves at rate 1 = s / n, which zeroes its entry of
        # diag(Q^T) + s / n.
        q = np.array(
            [[0, 2, 1, 1], [1, 0, 1, 0.5], [0.5, 0.5, 0, 1], [0.25, 0.25, 0.5, 0]]
        )
        q = sp.csr_matrix(q - np.diag(q.sum(axis=1)))
        with np.errstate(all="raise"):
            pi = steady_state_bicgstab(q)
        np.testing.assert_allclose(pi, steady_state_direct(q), atol=1e-12)

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
        for method in ("direct", "bicgstab", "power"):
            pi = steady_state(q, method=method)
            assert pi.sum() == pytest.approx(1.0)

    def test_unknown_method_rejected(self):
        q = random_ergodic_generator(5, 5)
        with pytest.raises(SolverError):
            steady_state(q, method="magic")

    @pytest.mark.parametrize("method", ["auto", "direct", "bicgstab", "power"])
    def test_warm_start_keyword_is_gone(self, method):
        # Every solve starts cold: its result depends on the chain alone.
        with pytest.raises(TypeError):
            steady_state(random_ergodic_generator(5, 6), method=method, x0=np.ones(5))

    def test_csr_input_reaches_the_solver_unwrapped(self, monkeypatch):
        q = banded_generator(50, 2, seed=4)
        seen = []

        def spy(matrix):
            seen.append(matrix)
            return solvers._direct(matrix)

        monkeypatch.setitem(solvers._SOLVERS, "direct", spy)
        steady_state(q, method="direct")
        assert len(seen) == 1 and seen[0] is q


class TestOrdering:
    """A narrow-band generator (``bw * bw <= n``) is solved by LAPACK's
    band LU, a banded one (``8 bw <= n``) is LU-factored by SuperLU in its
    natural order, any other with COLAMD."""

    def test_banded_generator_takes_natural_and_agrees_with_colamd(self, monkeypatch):
        q = banded_generator(400, 30, seed=1)
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

    @pytest.mark.parametrize(
        "n, half_width, ordering",
        [(100, 10, "BAND"), (99, 10, "NATURAL"), (81, 9, "BAND"), (80, 9, "NATURAL")],
    )
    def test_band_rule_boundary(self, n, half_width, ordering):
        # bw * bw = n takes the band LU; bw * bw = n + 1 goes to SuperLU.
        q = banded_generator(n, half_width, seed=2)
        pi, attrs = traced_solve(q, "direct")
        assert attrs["ordering"] == ordering
        np.testing.assert_allclose(pi, 1.0 / n, rtol=1e-12)

    def test_band_rule_reads_the_pinned_system(self):
        # Every state resets to state 0, so Q's bandwidth is n - 1; the
        # pinned system drops column 0 and is bidiagonal.
        pi, attrs = traced_solve(cyclic_reset_generator(50), method="direct")
        assert attrs["ordering"] == "BAND"
        assert pi[0] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "make",
        [lambda: banded_generator(400, 10, seed=1), lambda: cloud_chain_band().tocsr()],
        ids=["banded", "cloud-chain"],
    )
    def test_band_lu_agrees_with_colamd(self, make):
        q = make()
        band, attrs = traced_solve(q, method="direct")
        assert attrs["ordering"] == "BAND"
        a, b = solvers._pinned_system(q)
        tail = spla.splu(a, permc_spec="COLAMD").solve(b)
        colamd = solvers._clean(np.concatenate([[1.0], tail]))
        np.testing.assert_allclose(band, colamd, rtol=0.0, atol=1e-13 * colamd.max())

    def test_band_lu_sums_duplicates_of_unsorted_rows(self):
        # Every entry stored as two halves, each row shuffled: the band
        # storage must add the halves back wherever they sit.
        q = banded_generator(16, 4, seed=6)
        twice = np.concatenate(
            [np.r_[start:end, start:end] for start, end in zip(q.indptr[:-1], q.indptr[1:])]
        )
        halves = sp.csr_matrix(
            (q.data[twice] / 2, q.indices[twice], 2 * q.indptr), shape=q.shape
        )
        pi, attrs = traced_solve(_unsorted(halves, seed=9), method="direct")
        assert attrs["ordering"] == "BAND"
        np.testing.assert_allclose(pi, steady_state_direct(q), rtol=1e-14)

    def test_two_state_chain(self):
        # Pinned system of one unknown: pi = (b, a) / (a + b).
        q = sp.csr_matrix(np.array([[-0.3, 0.3], [0.7, -0.7]]))
        pi, attrs = traced_solve(q, method="direct")
        assert attrs["ordering"] == "BAND"
        np.testing.assert_allclose(pi, [0.7, 0.3], rtol=1e-15)

    def test_singular_band_system_falls_through(self):
        # State 2 is absorbing: its empty row makes the pinned system's
        # last column zero, an exactly singular band factor.
        q = sp.csr_matrix(np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(SolverError, match="band LU"):
            steady_state(q, method="direct")
        pi, attrs = traced_solve(q)
        assert attrs["solver"] == "bicgstab"
        np.testing.assert_allclose(pi, [0.0, 0.0, 1.0], atol=1e-10)

    def test_fig6_detailed_chain_keeps_colamd(self):
        _space, ctmc = DetailedModel().build(fig6_2sc_scenario(target_share=1, target_rate=6.0))
        assert ctmc.generator.shape[0] == 8885
        pi, attrs = traced_solve(ctmc.generator, method="direct")
        assert attrs["ordering"] == "COLAMD"
        assert pi.sum() == pytest.approx(1.0)
        # Above the threshold, auto takes BiCGSTAB, which agrees with LU.
        krylov, attrs = traced_solve(ctmc.generator)
        assert attrs["solver"] == "bicgstab"
        np.testing.assert_allclose(krylov, pi, rtol=0.0, atol=1e-13)

    def test_auto_runs_bicgstab_then_power_then_direct_above_threshold(self, monkeypatch):
        # Bandwidth 75: too wide for the band LU (75^2 > n), narrow
        # enough for SuperLU's natural order.
        q = banded_generator(solvers._LARGE_CHAIN_THRESHOLD + 1, 75, seed=3)
        calls: list[str] = []
        real_direct = solvers._direct

        def failing(name):
            def solver(m, **_kw):
                calls.append(name)
                raise SolverError("no convergence")

            return solver

        def direct(m):
            calls.append("direct")
            return real_direct(m)

        monkeypatch.setattr(solvers, "_bicgstab", failing("bicgstab"))
        monkeypatch.setattr(solvers, "_power", failing("power"))
        monkeypatch.setattr(solvers, "_direct", direct)
        pi, attrs = traced_solve(q)
        assert calls == ["bicgstab", "power", "direct"]
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


def _slice_pinned_system(q: sp.csr_matrix) -> tuple[sp.csc_matrix, np.ndarray]:
    """The pinned system built by slicing ``Q^T``: the reference
    :func:`solvers._pinned_system` must reproduce byte for byte."""
    qt = sp.csc_matrix(q.transpose())
    return sp.csc_matrix(qt[1:, 1:]), -qt[1:, 0].toarray().ravel()


def _unsorted(q: sp.csr_matrix, seed: int) -> sp.csr_matrix:
    """``q`` with every row's stored entries shuffled."""
    rng = np.random.default_rng(seed)
    indices, data = q.indices.copy(), q.data.copy()
    for start, end in zip(q.indptr[:-1], q.indptr[1:]):
        order = start + rng.permutation(end - start)
        indices[start:end], data[start:end] = indices[order], data[order]
    shuffled = sp.csr_matrix((data, indices, q.indptr.copy()), shape=q.shape)
    assert not shuffled.has_sorted_indices
    return shuffled


class TestPinnedSystem:
    """``_direct`` slices the pinned system out of ``Q``'s CSR arrays and
    hands SuperLU the very arrays the ``Q^T`` slicing gave."""

    @pytest.mark.parametrize(
        "make, ordering",
        [
            (lambda: banded_generator(400, 30, seed=1), "NATURAL"),
            (
                lambda: DetailedModel()
                .build(fig6_2sc_scenario(target_share=1, target_rate=6.0))[1]
                .generator,
                "COLAMD",
            ),
            (lambda: _unsorted(random_ergodic_generator(40, 7), seed=8), "COLAMD"),
        ],
        ids=["banded", "fig6-detailed", "unsorted"],
    )
    def test_matches_transpose_slicing_bytes(self, make, ordering):
        q = sp.csr_matrix(make())
        a, b = solvers._pinned_system(q)
        want_a, want_b = _slice_pinned_system(q)
        for got, want in [
            (a.indptr, want_a.indptr),
            (a.indices, want_a.indices),
            (a.data, want_a.data),
            (b, want_b),
        ]:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert a.shape == want_a.shape
        assert traced_solve(q, method="direct")[1]["ordering"] == ordering

    def test_public_entry_accepts_any_format(self):
        q = random_ergodic_generator(12, 3)
        expected = steady_state_direct(q)
        for other in (q.tocsc(), q.tocoo(), q.toarray()):
            assert steady_state_direct(other).tobytes() == expected.tobytes()

    def test_duplicate_entries_sum_in_stored_order(self):
        # Row 0 stores column 1 twice and column 0 once; row 2 stores
        # column 1 twice.  The right-hand side sums row 0's duplicates.
        q = sp.csr_matrix(
            (
                np.array([0.1, -0.7, 0.2, 0.3, 1.0, 2.0, 3.0, 0.5, 0.25]),
                np.array([1, 0, 1, 2, 0, 0, 0, 1, 1]),
                np.array([0, 4, 6, 9]),
            ),
            shape=(3, 3),
        )
        a, b = solvers._pinned_system(q)
        want_a, want_b = _slice_pinned_system(q)
        assert b.tobytes() == want_b.tobytes()
        assert a.indices.tobytes() == want_a.indices.tobytes()
        assert a.data.tobytes() == want_a.data.tobytes()


class TestSpanTelemetry:
    def test_direct_solve_attributes(self):
        q = banded_generator(200, 20, seed=5)
        pi, attrs = traced_solve(q)
        assert attrs["n"] == 200
        assert attrs["method"] == "auto"
        assert attrs["solver"] == "direct"
        assert attrs["ordering"] == "NATURAL"
        assert 0.0 <= attrs["residual"] < 1e-12
        assert "iterations" not in attrs
        scale = np.abs(q.diagonal()).max()
        assert attrs["residual"] == float(np.abs(pi @ q).max()) / scale

    def test_band_solve_attributes(self):
        q = banded_generator(200, 2, seed=5)
        with obs.capture() as cap:
            pi = steady_state(q)
        (span,) = cap.tracer.roots
        attrs = span.attrs
        assert attrs["solver"] == "direct"
        assert attrs["ordering"] == "BAND"
        assert 0.0 <= attrs["residual"] < 1e-12
        assert "iterations" not in attrs
        assert dict(cap.registry.snapshot().counters)["markov.solve.direct"] == 1
        scale = np.abs(q.diagonal()).max()
        assert attrs["residual"] == float(np.abs(pi @ q).max()) / scale

    def test_power_solve_attributes(self):
        q = cyclic_reset_generator(solvers._LARGE_CHAIN_THRESHOLD + 1)
        with obs.capture() as cap:
            pi = steady_state(q, method="power")
        (span,) = cap.tracer.roots
        attrs = span.attrs
        assert attrs["solver"] == "power"
        assert "ordering" not in attrs
        counters = dict(cap.registry.snapshot().counters)
        assert attrs["iterations"] == counters["markov.power.iterations"]
        assert 0 < attrs["iterations"] < 200
        assert 0.0 <= attrs["residual"] < 1e-6
        assert pi[0] == pytest.approx(0.5)

    def test_bicgstab_solve_attributes(self):
        q = cyclic_reset_generator(solvers._LARGE_CHAIN_THRESHOLD + 1)
        with obs.capture() as cap:
            pi = steady_state(q)
        (span,) = cap.tracer.roots
        attrs = span.attrs
        assert attrs["solver"] == "bicgstab"
        assert "ordering" not in attrs
        counters = dict(cap.registry.snapshot().counters)
        assert counters["markov.solve.bicgstab"] == 1
        assert attrs["iterations"] == counters["markov.bicgstab.iterations"]
        assert 0 < attrs["iterations"] < 200
        assert 0.0 <= attrs["residual"] < 1e-12
        assert pi[0] == pytest.approx(0.5)

    def test_exhausted_budget_raises_and_auto_falls_through_to_power(self, monkeypatch):
        q = cyclic_reset_generator(solvers._LARGE_CHAIN_THRESHOLD + 1)
        with pytest.raises(ConvergenceError):
            steady_state_bicgstab(q, max_iter=1)
        real_bicgstab = solvers._bicgstab
        monkeypatch.setattr(solvers, "_bicgstab", lambda m: real_bicgstab(m, max_iter=1))
        pi, attrs = traced_solve(q)
        assert attrs["solver"] == "power"
        assert pi[0] == pytest.approx(0.5)

    def test_failed_explicit_method_propagates(self, monkeypatch):
        def failing(m):
            raise SolverError("boom")

        monkeypatch.setattr(solvers, "_SOLVERS", {**solvers._SOLVERS, "direct": failing})
        with pytest.raises(SolverError, match="boom"):
            steady_state(random_ergodic_generator(5, 8), method="direct")


def solve_with_metrics(q, method: str = "auto") -> tuple[np.ndarray, dict, dict]:
    """Solve ``q`` under a tracer with metrics; return the result, the
    span's attributes and the counters."""
    with obs.capture() as cap:
        pi = steady_state(q, method=method)
    (span,) = cap.tracer.roots
    return pi, span.attrs, dict(cap.registry.snapshot().counters)


class TestBandGenerator:
    """A band generator takes the band LU straight from its diagonals and
    gives the CSR path's bits; any other solve runs on one ``tocsr``."""

    BANDS = [
        pytest.param(lambda: cloud_chain_band(), id="cloud-chain"),
        pytest.param(lambda: cloud_chain_band(pool_size=0), id="cloud-chain-no-pool"),
        pytest.param(lambda: cloud_chain_band(ell=0.0, beta=0.0), id="cloud-chain-beta-0"),
        *(
            pytest.param(
                lambda seed=seed, sparsity=sparsity: random_band_generator(
                    120, (-9, -1, 0, 1, 9), seed, sparsity
                ),
                id=f"random-{seed}-{sparsity}",
            )
            for seed in (0, 1, 2)
            for sparsity in (0.0, 0.5, 1.0)
        ),
        pytest.param(
            lambda: random_band_generator(50, (-3, -2, -1, 0, 1, 4), 3, 0.3), id="random-skew"
        ),
        # Empty +-10 slots: the bandwidth is 1, not 10 (10 * 10 > 50).
        pytest.param(
            lambda: random_band_generator(50, (-10, -1, 0, 1, 10), 4, 1.0), id="random-empty-far"
        ),
    ]

    @staticmethod
    def _forbid_tocsr(monkeypatch):
        def tocsr(_self):
            raise AssertionError("tocsr called on the band path")

        monkeypatch.setattr(BandGenerator, "tocsr", tocsr)

    @staticmethod
    def _count_tocsr(monkeypatch) -> list:
        """Record every band generator converted from here on."""
        real = BandGenerator.tocsr
        converted = []

        def tocsr(self):
            converted.append(self)
            return real(self)

        monkeypatch.setattr(BandGenerator, "tocsr", tocsr)
        return converted

    @pytest.mark.parametrize("make", BANDS)
    def test_tocsr_stores_the_nonzero_rates(self, make):
        g = make()
        q = g.tocsr()
        dense = q.toarray()
        n = g.shape[0]
        assert q.shape == g.shape == (n, n)
        assert q.has_sorted_indices
        for s, offset in enumerate(g.offsets):
            rows = np.arange(max(0, -offset), min(n, n - offset))
            np.testing.assert_array_equal(dense[rows, rows + offset], g.rates[rows, s])
        assert q.nnz == np.count_nonzero(g.rates)
        np.testing.assert_array_equal(g.diagonal(), q.diagonal())

    @pytest.mark.parametrize("make", BANDS)
    def test_band_direct_matches_the_csr_path(self, make, monkeypatch):
        g = make()
        want_pi, want_attrs, want_counters = solve_with_metrics(g.tocsr())
        self._forbid_tocsr(monkeypatch)
        pi, attrs, counters = solve_with_metrics(g)
        assert pi.tobytes() == want_pi.tobytes()
        # n, method, solver, ordering and residual, bit for bit.
        assert attrs == want_attrs
        assert attrs["solver"] == "direct" and attrs["ordering"] == "BAND"
        assert counters == want_counters
        assert counters["markov.solve.direct"] == 1

    @pytest.mark.parametrize("make", BANDS)
    def test_residual_from_the_diagonals(self, make):
        g = make()
        q = g.tocsr()
        pi = solvers._direct(q)[0]
        assert g.left_product(pi).tobytes() == np.asarray(pi @ q).tobytes()
        assert solvers._check_residual(g, pi) == pytest.approx(
            solvers._check_residual(q, pi), rel=1e-15, abs=0.0
        )

    @pytest.mark.parametrize(
        "n, half_width, ordering",
        [(100, 10, "BAND"), (99, 10, "NATURAL"), (81, 9, "BAND"), (80, 9, "NATURAL")],
    )
    def test_band_rule_boundary(self, n, half_width, ordering, monkeypatch):
        # bw * bw = n is read straight from the diagonals; bw * bw = n + 1
        # goes to SuperLU on the CSR matrix.
        g = random_band_generator(n, (-half_width, -1, 0, 1, half_width), seed=2)
        want = steady_state(g.tocsr(), method="direct")
        if ordering == "BAND":
            self._forbid_tocsr(monkeypatch)
        pi, attrs = traced_solve(g, method="direct")
        assert attrs["ordering"] == ordering
        assert pi.tobytes() == want.tobytes()

    def test_band_rule_reads_the_pinned_system(self, monkeypatch):
        # Only state 40 steps down 40, to state 0: the pinned system drops
        # that entry with column 0 and is tridiagonal.
        g = random_band_generator(50, (-40, -1, 0, 1), seed=3)
        g.rates[:, 0] = 0.0
        g.rates[40, 0] = 0.5
        g.rates[:, 2] = 0.0
        g.rates[:, 2] = 0.0 - g.rates.sum(axis=1)
        want = steady_state(g.tocsr(), method="direct")
        self._forbid_tocsr(monkeypatch)
        pi, attrs = traced_solve(g, method="direct")
        assert attrs["ordering"] == "BAND"
        assert pi.tobytes() == want.tobytes()

    def test_residual_check_raises_on_the_diagonals(self):
        g = random_band_generator(40, (-4, -1, 0, 1, 4), seed=5)
        with pytest.raises(SolverError, match="residual"):
            solvers._check_residual(g, np.full(40, 1.0 / 40))

    def test_single_state(self, monkeypatch):
        self._forbid_tocsr(monkeypatch)
        g = BandGenerator(np.zeros((1, 3)), (-1, 0, 1))
        assert steady_state(g).tolist() == [1.0]

    @pytest.mark.parametrize("pool_size", [0, 6])
    def test_singular_band_system_falls_through_once(self, pool_size, monkeypatch):
        # With both of the 2-VM cloud's VMs lent no state can serve: the
        # band LU meets an exactly zero pivot and auto falls through.
        g = cloud_chain_band(pool_size=pool_size, vms=2, ell=2.0, beta=0.42)
        with pytest.raises(SolverError, match="band LU"):
            steady_state(g, method="direct")
        want, want_attrs = traced_solve(g.tocsr())
        converted = self._count_tocsr(monkeypatch)
        pi, attrs = traced_solve(g)
        assert converted == [g]
        assert attrs["solver"] in ("bicgstab", "power")
        assert attrs == want_attrs
        assert pi.tobytes() == want.tobytes()

    def test_wide_band_generator_takes_superlu_on_its_csr(self):
        # Bandwidth 30 on 400 states: too wide for the band LU.
        g = random_band_generator(400, (-30, -1, 0, 1, 30), seed=4)
        pi, attrs = traced_solve(g)
        assert attrs["ordering"] == "NATURAL"
        assert pi.tobytes() == steady_state(g.tocsr()).tobytes()

    def test_auto_keeps_bicgstab_first_above_threshold(self, monkeypatch):
        n = solvers._LARGE_CHAIN_THRESHOLD + 1
        g = random_band_generator(n, (-2, -1, 0, 1, 2), seed=6)
        calls: list[tuple[str, type]] = []

        def failing(name):
            def solver(m, **_kw):
                calls.append((name, type(m)))
                raise SolverError("no convergence")

            return solver

        want = solvers._direct(g.tocsr())[0]
        converted = self._count_tocsr(monkeypatch)
        monkeypatch.setattr(solvers, "_bicgstab", failing("bicgstab"))
        monkeypatch.setattr(solvers, "_power", failing("power"))
        pi, attrs = traced_solve(g)
        assert calls == [("bicgstab", sp.csr_matrix), ("power", sp.csr_matrix)]
        assert converted == [g]
        assert attrs["solver"] == "direct"
        assert attrs["ordering"] == "BAND"
        assert pi.tobytes() == want.tobytes()

    @pytest.mark.parametrize("method", ["bicgstab", "power"])
    def test_explicit_method_runs_on_the_csr(self, method):
        g = cloud_chain_band()
        pi, attrs = traced_solve(g, method=method)
        assert attrs["solver"] == method
        assert pi.tobytes() == steady_state(g.tocsr(), method=method).tobytes()
