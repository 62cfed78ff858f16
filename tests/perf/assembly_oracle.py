"""Per-state assembly of the approximate model's levels: the bitwise oracle.

:class:`~repro.perf.approximate.ApproximateModel` assembles each level's
generator as whole-array NumPy and permutes the entries into the order a
per-state loop would emit them.  The loops below are that per-state
assembly, one state at a time.  :class:`OracleModel` swaps them in for
the vectorized assemblers, so a test can build the same chain both ways
and compare it bit for bit (:func:`assert_levels_identical`).
"""

from __future__ import annotations

from array import array
from typing import Callable

import numpy as np

from repro.perf.approximate import ApproximateModel
from repro.queueing.sla import prob_no_forward


class ScalarStateIndexer:
    """Index of one ``(q, s, o, a)`` state in the level's enumeration order
    (``q``, then ``s``, then the triangular ``(o, a)`` block with
    ``o + a <= pool``)."""

    def __init__(self, shares: int, pool: int) -> None:
        # tri_base[o] = first index of row o inside the (o, a) triangle.
        self.tri_base = [0] * (pool + 1)
        offset = 0
        for o in range(pool + 1):
            self.tri_base[o] = offset
            offset += pool - o + 1
        self.per_s = offset  # total (o, a) pairs
        self.block = (shares + 1) * offset  # states per q level

    def __call__(self, q: int, s: int, o: int, a: int) -> int:
        return q * self.block + s * self.per_s + self.tri_base[o] + a


def _packed(rows: array, cols: array, vals: array, forward: np.ndarray) -> tuple:
    return (
        np.frombuffer(rows, dtype=np.int32),
        np.frombuffer(cols, dtype=np.int32),
        np.frombuffer(vals, dtype=float),
        forward,
    )


def assemble_first(
    model: ApproximateModel,
    n: int,
    mu: float,
    lam: float,
    pool: int,
    q_max: int,
    sla: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-state loop for ``M^1`` (signature of ``_assemble_first``)."""
    n_states = (q_max + 1) * (pool + 1)
    rows = array("i")
    cols = array("i")
    vals = array("d")
    forward = np.zeros(n_states)

    def add(src: int, dst: int, rate: float) -> None:
        rows.append(src)
        cols.append(dst)
        vals.append(rate)

    width = pool + 1
    for idx in range(n_states):
        q, o = divmod(idx, width)
        if q < n:
            add(idx, idx + width, lam)
        elif o < pool:
            add(idx, idx + 1, lam)
        else:
            p_queue = prob_no_forward(q - n, n + o, mu, sla)
            if q + 1 <= q_max and p_queue > 0.0:
                add(idx, idx + width, lam * p_queue)
                forward[idx] = lam * (1.0 - p_queue)
            else:
                forward[idx] = lam
        running = min(q, n)
        if running > 0:
            add(idx, idx - width, running * mu)
        if o > 0:
            add(idx, idx - 1, o * mu)
    return _packed(rows, cols, vals, forward)


def assemble_level(
    model: ApproximateModel,
    n: int,
    mu: float,
    lam: float,
    shares: int,
    pool: int,
    q_max: int,
    sla: float,
    outcomes_for: Callable[[float, int], list],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-state loop for ``M^i``, ``i >= 2`` (signature of
    ``_assemble_level``)."""
    index_of = ScalarStateIndexer(shares, pool)
    rows = array("i")
    cols = array("i")
    vals = array("d")

    def add(src: int, q2: int, s2: int, o2: int, a2: int, rate: float) -> None:
        dst = index_of(q2, s2, o2, a2)
        if dst != src:
            rows.append(src)
            cols.append(dst)
            vals.append(rate)

    states = [
        (q, s, o, a)
        for q in range(q_max + 1)
        for s in range(shares + 1)
        for o in range(pool + 1)
        for a in range(pool - o + 1)
    ]
    forward = np.zeros(len(states))
    tau_arrival = 1.0 / lam
    for idx, (q, s, o, a) in enumerate(states):
        level = s + a
        # Arrivals (cases C1-C3).
        for a_loc, a_rem_raw, _bk, p in outcomes_for(tau_arrival, level):
            rate = lam * p
            if q + a_loc < n:
                add(idx, q + 1, a_loc, o, min(a_rem_raw, pool - o), rate)
            elif o + a_rem_raw + 1 <= pool:
                add(idx, q, a_loc, o + 1, a_rem_raw, rate)
            else:
                a_rem = pool - o
                waiting = q - (n - a_loc)
                capacity = n - a_loc + o
                p_queue = prob_no_forward(waiting, capacity, mu, sla)
                if q + 1 <= q_max and p_queue > 0.0:
                    add(idx, q + 1, a_loc, o, a_rem, rate * p_queue)
                    forward[idx] += rate * (1.0 - p_queue)
                else:
                    # Queue truncated (or SLA surely violated): the
                    # arrival is forwarded, but the group-allocation
                    # refresh still happens — without it, corner states
                    # like (q_max, s=N, o=0) would have no outgoing
                    # transition at all, making the chain reducible.
                    forward[idx] += rate
                    add(idx, q, a_loc, o, a_rem, rate)
        # Local departures (case C4).
        running = min(q, n - s)
        if running > 0:
            tau = 1.0 / (running * mu)
            for a_loc, a_rem_raw, bk, p in outcomes_for(tau, level):
                rate = running * mu * p
                a_rem = min(a_rem_raw, pool - o)
                if q + a_loc <= n and bk and a_loc < shares:
                    add(idx, q - 1, a_loc + 1, o, a_rem, rate)
                else:
                    add(idx, q - 1, a_loc, o, a_rem, rate)
        # Remote departures (case C5).
        if o > 0:
            tau = 1.0 / (o * mu)
            for a_loc, a_rem_raw, bk, p in outcomes_for(tau, level):
                rate = o * mu * p
                if bk:
                    add(idx, q, a_loc, o - 1, min(a_rem_raw + 1, pool - (o - 1)), rate)
                elif q + a_loc > n:
                    add(idx, q - 1, a_loc, o, min(a_rem_raw, pool - o), rate)
                else:
                    add(idx, q, a_loc, o - 1, min(a_rem_raw, pool - (o - 1)), rate)
    return _packed(rows, cols, vals, forward)


class OracleModel(ApproximateModel):
    """The approximate model with every level assembled one state at a time."""

    _assemble_first = assemble_first
    _assemble_level = assemble_level


def build_levels(model: ApproximateModel, scenario) -> list:
    """All levels of the chain, in order (bypasses the level cache)."""
    levels = [model._build_first(scenario)]
    for i in range(1, len(scenario)):
        levels.append(model._build_level(scenario, i, levels[-1]))
    return levels


def same_bits(expected: np.ndarray, actual: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: bitwise, not approximate (``-0.0``
    and ``0.0`` differ)."""
    return (
        expected.dtype == actual.dtype
        and expected.shape == actual.shape
        and expected.tobytes() == actual.tobytes()
    )


def assert_levels_identical(expected, actual) -> None:
    """Two solved levels agree bit for bit: generator structure and data,
    forwarding vector and steady state."""
    expected_gen, actual_gen = expected.ctmc.generator, actual.ctmc.generator
    assert expected_gen.shape == actual_gen.shape
    assert same_bits(expected_gen.indptr, actual_gen.indptr)
    assert same_bits(expected_gen.indices, actual_gen.indices)
    # The vectorized assembler replicates the per-state loop's float
    # expressions and summation order exactly.
    assert same_bits(expected_gen.data, actual_gen.data)
    assert same_bits(expected.forward_flow, actual.forward_flow)
    assert same_bits(expected.steady, actual.steady)


def assert_matches_oracle(scenario) -> None:
    """Every level of ``scenario``'s chain, built by the vectorized
    assemblers and by the per-state loops, agrees bit for bit."""
    oracle = build_levels(OracleModel(level_cache=False), scenario)
    vectorized = build_levels(ApproximateModel(level_cache=False), scenario)
    assert len(oracle) == len(vectorized) == len(scenario)
    for expected, actual in zip(oracle, vectorized):
        assert_levels_identical(expected, actual)
