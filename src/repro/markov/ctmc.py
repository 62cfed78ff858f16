"""Continuous-time Markov chain container.

A :class:`CTMC` couples a :class:`~repro.markov.state_space.StateSpace`
with a sparse infinitesimal generator ``Q`` (rows sum to zero, off-diagonal
entries non-negative).  It is the common currency between the performance
models, the steady-state solvers, and the uniformization transient solver.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np
import scipy.sparse as sp

from repro.analysis import sanitize
from repro.exceptions import ConfigurationError, StateSpaceError
from repro.markov.state_space import State, StateSpace

TransitionList = Iterable[tuple[State, State, float]]


class CTMC:
    """A finite CTMC over an explicit state space.

    Attributes:
        space: the state space (tuple index <-> state bijection).
        generator: the sparse CSR infinitesimal generator ``Q``.
    """

    def __init__(self, space: StateSpace, generator: sp.spmatrix) -> None:
        n = len(space)
        if generator.shape != (n, n):
            raise ConfigurationError(
                f"generator shape {generator.shape} does not match state space {n}"
            )
        self.space = space
        self.generator = sp.csr_matrix(generator)
        self._validate()
        sanitize.check_generator(self.generator, label=f"CTMC[{n} states]")

    def _validate(self) -> None:
        q = self.generator
        if q.nnz:
            # Off-diagonal negativity via an entry mask — copying the
            # whole generator just to zero its diagonal doubled peak
            # memory on every chain construction.
            entry_rows = np.repeat(
                np.arange(q.shape[0], dtype=np.int64), np.diff(q.indptr)
            )
            off_diag = q.data[entry_rows != q.indices]
            if off_diag.size and off_diag.min() < -1e-12:
                raise ConfigurationError(
                    "CTMC generator has negative off-diagonal rates"
                )
        row_sums = np.asarray(q.sum(axis=1)).ravel()
        scale = max(1.0, float(np.abs(q.diagonal()).max(initial=0.0)))
        if np.abs(row_sums).max(initial=0.0) > 1e-8 * scale:
            raise ConfigurationError(
                "CTMC generator rows do not sum to zero "
                f"(max |row sum| = {np.abs(row_sums).max():.3e})"
            )

    @classmethod
    def from_transitions(cls, space: StateSpace, transitions: TransitionList) -> "CTMC":
        """Assemble a CTMC from ``(source, target, rate)`` triples.

        Self-loops and non-positive rates are dropped; parallel transitions
        between the same pair of states are summed.  Diagonal entries are
        derived so every row sums to zero.
        """
        n = len(space)
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for src, dst, rate in transitions:
            if rate <= 0.0:
                continue
            i = space.index(src)
            j = space.index(dst)
            if i == j:
                continue
            rows.append(i)
            cols.append(j)
            vals.append(float(rate))
        q = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        q = q - sp.diags(np.asarray(q.sum(axis=1)).ravel(), format="csr")
        return cls(space, q)

    @classmethod
    def from_successor_function(
        cls,
        space: StateSpace,
        successors: Callable[[State], Iterable[tuple[State, float]]],
    ) -> "CTMC":
        """Assemble a CTMC by evaluating ``successors`` on every state."""

        def triples() -> Iterable[tuple[State, State, float]]:
            for state in space:
                for nxt, rate in successors(state):
                    yield state, nxt, rate

        return cls.from_transitions(space, triples())

    @property
    def n_states(self) -> int:
        """Number of states."""
        return len(self.space)

    def exit_rates(self) -> np.ndarray:
        """Return the exit rate of every state (``-diag(Q)``)."""
        return -self.generator.diagonal()

    def uniformization_rate(self, slack: float = 1.02) -> float:
        """Return a uniformization constant ``gamma >= max exit rate``.

        A small ``slack`` above the maximum keeps the uniformized DTMC
        aperiodic (every state retains a self-loop), which power iteration
        relies on.
        """
        max_rate = float(self.exit_rates().max(initial=0.0))
        if max_rate <= 0.0:
            return 1.0
        return max_rate * slack

    def steady_state(self, method: str = "auto") -> np.ndarray:
        """Solve ``pi Q = 0`` with ``sum(pi) = 1``.

        See :func:`repro.markov.solvers.steady_state` for methods.
        """
        from repro.markov.solvers import steady_state

        pi = steady_state(self.generator, method=method)
        sanitize.check_distribution(pi, label=f"steady-state[{method}]")
        return pi

    def expected(self, values: np.ndarray, distribution: np.ndarray) -> float:
        """Return ``E[values]`` under ``distribution`` (convenience)."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_states,):
            raise StateSpaceError(
                f"values shape {values.shape} does not match n_states={self.n_states}"
            )
        return float(np.dot(values, distribution))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CTMC(n={self.n_states}, nnz={self.generator.nnz})"
