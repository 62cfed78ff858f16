"""Tests for the approximate model's interaction machinery."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as hyp

from repro.exceptions import SolverError
from repro.markov.ctmc import CTMC
from repro.markov.state_space import StateSpace
from repro.perf.approximate import _state_arrays
from repro.perf.interaction import (
    OutcomeTable,
    conditional_initials,
    hypergeometric_pmf,
    reduction_matrix,
    transient_outcomes,
)


class TestHypergeometricPmf:
    def test_matches_scipy(self):
        import scipy.stats as st

        for draws, cap_loc, cap_rem in [(3, 5, 7), (6, 4, 8), (10, 10, 10)]:
            pmf = hypergeometric_pmf(draws, cap_loc, cap_rem)
            ks = np.arange(len(pmf))
            reference = st.hypergeom.pmf(ks, cap_loc + cap_rem, cap_loc, draws)
            np.testing.assert_allclose(pmf, reference, atol=1e-12)

    def test_zero_draws(self):
        pmf = hypergeometric_pmf(0, 5, 5)
        assert pmf[0] == 1.0

    def test_zero_local_pool(self):
        pmf = hypergeometric_pmf(4, 0, 6)
        np.testing.assert_allclose(pmf, [1.0])

    def test_overfull_draws_rejected(self):
        with pytest.raises(SolverError):
            hypergeometric_pmf(20, 5, 5)

    @given(
        cap_loc=hyp.integers(min_value=0, max_value=15),
        cap_rem=hyp.integers(min_value=0, max_value=15),
        draws=hyp.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_is_distribution(self, cap_loc, cap_rem, draws):
        if draws > cap_loc + cap_rem:
            return
        pmf = hypergeometric_pmf(draws, cap_loc, cap_rem)
        assert pmf.min() >= 0.0
        assert pmf.sum() == pytest.approx(1.0)


class TestReductionMatrix:
    def test_rows_are_distributions(self):
        usage = np.array([0, 2, 4])
        own_lent = np.array([0, 1, 0])
        backlog = np.array([0, 0, 3])
        matrix, table = reduction_matrix(usage, own_lent, backlog, cap_loc=3, cap_rem=4)
        rows = np.asarray(matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(rows, 1.0, atol=1e-12)
        assert len(table) == matrix.shape[1]

    def test_own_lent_feeds_a_rem(self):
        # One state: usage 0, own_lent 2 -> outcome must be (0, 2, flag).
        matrix, table = reduction_matrix(
            np.array([0]), np.array([2]), np.array([0]), cap_loc=3, cap_rem=4
        )
        outcome = table.outcomes[int(matrix.toarray()[0].argmax())]
        assert outcome == (0, 2, False)

    def test_backlog_flag_carried(self):
        matrix, table = reduction_matrix(
            np.array([1]), np.array([0]), np.array([5]), cap_loc=1, cap_rem=1
        )
        flags = {o[2] for o in table.outcomes}
        assert flags == {True}


def scalar_reduction_matrix(usage, own_lent, backlog, cap_loc, cap_rem):
    """Bytewise oracle for :func:`reduction_matrix`: one state at a time,
    through a sorted outcome set and a COO build."""
    entries = {}
    outcome_set = set()
    pmf_cache = {}
    for j in range(len(usage)):
        u = int(usage[j])
        if u not in pmf_cache:
            pmf_cache[u] = hypergeometric_pmf(u, cap_loc, cap_rem)
        flag = bool(backlog[j] > 0)
        for a_loc, p in enumerate(pmf_cache[u]):
            if p <= 0.0:
                continue
            outcome = (a_loc, u - a_loc + int(own_lent[j]), flag)
            outcome_set.add(outcome)
            entries[(j, outcome)] = entries.get((j, outcome), 0.0) + float(p)
    ordered = tuple(sorted(outcome_set))
    table = OutcomeTable(ordered, {o: i for i, o in enumerate(ordered)})
    rows = np.fromiter((j for j, _ in entries), dtype=np.int64, count=len(entries))
    cols = np.fromiter((table.index[o] for _, o in entries), dtype=np.int64, count=len(entries))
    vals = np.fromiter(entries.values(), dtype=float, count=len(entries))
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(len(usage), len(table))).tocsr()
    return matrix, table


def first_level(q_max, n, pool):
    """A first level's inputs: its (q, o) grid."""
    q = np.repeat(np.arange(q_max + 1, dtype=np.int64), pool + 1)
    o = np.tile(np.arange(pool + 1, dtype=np.int64), q_max + 1)
    return o, np.zeros(o.size, dtype=int), np.maximum(q - n, 0)


def later_level(q_max, n, shares, pool):
    """A later level's inputs: its (q, s, o, a) grid."""
    q, s, o, a = _state_arrays(q_max, shares, pool)
    return o + a, s, np.maximum(q - (n - s), 0)


class TestReductionMatrixMatchesOracle:
    """The array build gives the per-state loop's CSR arrays byte for byte
    and its outcome table, tuple types included."""

    CASES = {
        # The predecessor levels of the tabu-fig7 workload's Fig. 7 "spread"
        # vectors, with their (cap_loc, cap_rem).
        "tabu-first-473": (first_level(42, 10, 10), 5, 5),
        "tabu-first-528": (first_level(43, 10, 11), 6, 5),
        "tabu-17028": (later_level(42, 10, 5, 10), 5, 5),
        "tabu-19866": (later_level(42, 10, 6, 10), 5, 5),
        "tabu-20592": (later_level(43, 10, 5, 11), 5, 6),
        "cap-loc-0": ((np.array([0, 2, 4]), np.array([0, 1, 0]), np.array([0, 0, 3])), 0, 4),
        "cap-rem-0": ((np.array([0, 2, 4]), np.array([0, 1, 0]), np.array([0, 0, 3])), 4, 0),
        "all-zero-usage": ((np.zeros(7, dtype=int), np.arange(7), np.arange(7) % 3), 3, 4),
        "no-states": ((np.array([], dtype=int),) * 3, 3, 4),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_bytes(self, name):
        (usage, own_lent, backlog), cap_loc, cap_rem = self.CASES[name]
        matrix, table = reduction_matrix(usage, own_lent, backlog, cap_loc, cap_rem)
        want, want_table = scalar_reduction_matrix(usage, own_lent, backlog, cap_loc, cap_rem)
        assert matrix.shape == want.shape
        for field in ("indptr", "indices", "data"):
            got, expected = getattr(matrix, field), getattr(want, field)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
        assert table == want_table
        assert [tuple(map(type, o)) for o in table.outcomes] == [
            tuple(map(type, o)) for o in want_table.outcomes
        ]

    def test_draws_beyond_the_pool_raise(self):
        with pytest.raises(SolverError, match="pool has only"):
            reduction_matrix(np.array([1, 9]), np.zeros(2), np.zeros(2), cap_loc=3, cap_rem=4)


class TestConditionalInitials:
    def test_conditions_on_exact_level(self):
        steady = np.array([0.4, 0.3, 0.2, 0.1])
        totals = np.array([0, 1, 1, 2])
        initials = conditional_initials(steady, totals, range(3))
        np.testing.assert_allclose(initials[0], [1.0, 0, 0, 0])
        np.testing.assert_allclose(initials[1], [0, 0.6, 0.4, 0])
        np.testing.assert_allclose(initials[2], [0, 0, 0, 1.0])

    def test_missing_level_falls_back_to_nearest(self):
        steady = np.array([0.5, 0.5])
        totals = np.array([0, 4])
        initials = conditional_initials(steady, totals, range(6))
        # Level 1 has no states: nearest populated is 0.
        np.testing.assert_allclose(initials[1], [1.0, 0.0])
        # Level 3 is equidistant-ish; argmin picks the first nearest (4
        # is distance 1, 0 is distance 3 -> level 4 wins).
        np.testing.assert_allclose(initials[3], [0.0, 1.0])

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        steady = rng.dirichlet(np.ones(12))
        totals = rng.integers(0, 4, size=12)
        initials = conditional_initials(steady, totals, range(5))
        np.testing.assert_allclose(initials.sum(axis=1), 1.0, atol=1e-12)


class TestTransientOutcomes:
    def test_outcome_rows_are_distributions(self):
        space = StateSpace([0, 1, 2])
        ctmc = CTMC.from_transitions(
            space, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]
        )
        usage = np.array([0, 1, 2])
        matrix, _table = reduction_matrix(
            usage, np.zeros(3, dtype=int), np.zeros(3, dtype=int), cap_loc=2, cap_rem=2
        )
        initials = np.eye(3)
        results = transient_outcomes(ctmc, initials, matrix, horizons=[0.5, 2.0])
        assert len(results) == 2
        for dist in results:
            np.testing.assert_allclose(dist.sum(axis=1), 1.0, atol=1e-9)

    def test_long_horizon_forgets_initial_condition(self):
        space = StateSpace([0, 1])
        ctmc = CTMC.from_transitions(space, [(0, 1, 1.0), (1, 0, 1.0)])
        usage = np.array([0, 1])
        matrix, _table = reduction_matrix(
            usage, np.zeros(2, dtype=int), np.zeros(2, dtype=int), cap_loc=1, cap_rem=1
        )
        initials = np.eye(2)
        (result,) = transient_outcomes(ctmc, initials, matrix, horizons=[50.0])
        np.testing.assert_allclose(result[0], result[1], atol=1e-8)
