"""The vectorized transition assemblers against the per-state oracle.

The vectorized assembler must be *bit-identical* to the per-state loop
in :mod:`tests.perf.assembly_oracle`: same CSR structure, same data
floats, same forwarding vector, hence the same steady state and
parameters.  These tests sweep randomized small federations so the
equality holds across pool shapes, truncation levels, and outcome
fan-outs, not just one hand-picked case.  The 3-SC Fig. 8a chain is
checked the same way in ``tests/bench/test_micro.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.perf.approximate import ApproximateModel, _state_arrays, _StateIndexer
from tests.perf.assembly_oracle import (
    OracleModel,
    ScalarStateIndexer,
    assert_matches_oracle,
    same_bits,
)


def random_scenario(rng: random.Random, k: int) -> FederationScenario:
    """A small random federation that keeps chains test-sized."""
    clouds = []
    for i in range(k):
        vms = rng.randint(2, 5)
        clouds.append(
            SmallCloud(
                name=f"sc{i}",
                vms=vms,
                arrival_rate=rng.uniform(0.5, 0.95) * vms,
                service_rate=rng.choice([0.8, 1.0, 1.2]),
                sla_bound=rng.choice([0.2, 0.4, 0.6]),
                shared_vms=rng.randint(0, vms),
            )
        )
    return FederationScenario(tuple(clouds))


class TestAssemblerEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_small_federations(self, seed):
        rng = random.Random(1000 + seed)
        assert_matches_oracle(random_scenario(rng, k=rng.randint(2, 4)))

    def test_zero_share_target(self):
        # A target sharing nothing exercises the shares == 0 state layout.
        clouds = (
            SmallCloud(name="a", vms=4, arrival_rate=3.0, shared_vms=2),
            SmallCloud(name="b", vms=4, arrival_rate=3.2, shared_vms=0),
        )
        assert_matches_oracle(FederationScenario(clouds))

    def test_params_identical_end_to_end(self):
        rng = random.Random(7)
        scenario = random_scenario(rng, k=3)
        oracle = OracleModel(level_cache=False)
        vectorized = ApproximateModel(level_cache=False)
        for target in range(len(scenario)):
            assert oracle.evaluate_target(scenario, target) == vectorized.evaluate_target(
                scenario, target
            )


class TestStateArrays:
    @pytest.mark.parametrize(
        "q_max,shares,pool", [(3, 2, 4), (5, 0, 3), (2, 4, 0), (4, 1, 1)]
    )
    def test_matches_enumeration_order(self, q_max, shares, pool):
        states = [
            (q, s, o, a)
            for q in range(q_max + 1)
            for s in range(shares + 1)
            for o in range(pool + 1)
            for a in range(pool - o + 1)
        ]
        q_arr, s_arr, o_arr, a_arr = _state_arrays(q_max, shares, pool)
        assert list(zip(q_arr, s_arr, o_arr, a_arr)) == states

    @pytest.mark.parametrize("q_max,shares,pool", [(3, 2, 4), (2, 1, 3)])
    def test_index_arrays_matches_scalar_indexer(self, q_max, shares, pool):
        q_arr, s_arr, o_arr, a_arr = _state_arrays(q_max, shares, pool)
        vec = _StateIndexer(shares, pool).index_arrays(q_arr, s_arr, o_arr, a_arr)
        indexer = ScalarStateIndexer(shares, pool)
        scalar = [
            indexer(q, s, o, a) for q, s, o, a in zip(q_arr, s_arr, o_arr, a_arr)
        ]
        assert vec.tolist() == scalar == list(range(len(scalar)))


def _to_csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int) -> sp.csr_matrix:
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _same_csr(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    pairs = ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data))
    return all(same_bits(x, y) for x, y in pairs)


class TestCooToCsr:
    """What ``coo_matrix(...).tocsr()`` makes of emission order.

    The assemblers emit one event type after another instead of state by
    state, with no sort back into per-state order.  That is sound because
    the CSR bytes depend only on each row's own entry order (the first
    test), and the emission keeps that order equal to the per-state
    loop's (checked against the oracle above); the order of duplicates
    within a row does move bits (the second test).
    """

    #: Per row: 8 columns with 3 duplicates each, 24 entries (> 16, past
    #: the insertion-sort cutoff of SciPy's per-row index sort).  Summing
    #: ``1 + e + e`` and ``e + e + 1`` with ``e = 2**-53`` differs in the
    #: last bit.
    N_ROWS, N_COLS, DUPS = 6, 8, 3

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = np.repeat(np.arange(self.N_ROWS), self.N_COLS * self.DUPS)
        cols = np.tile(np.repeat(np.arange(self.N_COLS), self.DUPS), self.N_ROWS)
        vals = np.tile([1.0, 2.0**-53, 2.0**-53], self.N_ROWS * self.N_COLS)
        return rows, cols, vals

    def test_interleaving_rows_keeps_bytes(self):
        rows, cols, vals = self._entries()
        expected = _to_csr(rows, cols, vals, self.N_COLS)
        rng = np.random.default_rng(0)
        for _ in range(20):
            # A random interleaving of the rows that keeps each row's own
            # entry order: random sort keys, increasing within each row.
            keys = rng.random(rows.size)
            for r in range(self.N_ROWS):
                mine = rows == r
                keys[mine] = np.sort(keys[mine])
            perm = np.argsort(keys)
            assert not np.array_equal(rows[perm], rows)
            actual = _to_csr(rows[perm], cols[perm], vals[perm], self.N_COLS)
            assert _same_csr(expected, actual)

    def test_duplicate_order_within_a_row_moves_bits(self):
        rows, cols, vals = self._entries()
        expected = _to_csr(rows, cols, vals, self.N_COLS)
        # Put the large duplicate last in every triple: e + e + 1.
        perm = np.arange(rows.size).reshape(-1, self.DUPS)[:, [1, 2, 0]].ravel()
        actual = _to_csr(rows[perm], cols[perm], vals[perm], self.N_COLS)
        assert same_bits(expected.indices, actual.indices)
        assert not same_bits(expected.data, actual.data)
