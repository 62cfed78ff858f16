"""Steady-state solvers for CTMC generators.

Three strategies, selectable explicitly or via ``method='auto'``:

- ``direct``  — sparse LU on the constrained linear system; exact up to
  floating point, preferred for the model sizes in this reproduction.
- ``gmres``   — iterative Krylov solve with an ILU preconditioner; scales
  to larger state spaces at some accuracy cost.
- ``power``   — power iteration on the uniformized DTMC; slow but
  unconditionally robust, used as a last-resort fallback and as an
  independent cross-check in tests.

All solvers return a probability row vector ``pi`` with ``pi Q = 0`` and
``sum(pi) = 1``; tiny negative entries from round-off are clipped and the
vector renormalized.

:func:`steady_state` records on its ``markov.steady_state`` span which
solver succeeded (``solver``), the relative ``residual`` of its result,
the LU column ``ordering`` of a direct solve and the ``iterations`` of a
power solve.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import obs
from repro.analysis import sanitize
from repro.exceptions import ConvergenceError, SolverError


def _clean(pi: np.ndarray, residual_scale: float = 1e-8) -> np.ndarray:
    """Clip round-off negatives and renormalize a candidate distribution."""
    pi = np.asarray(pi, dtype=float).ravel()
    scale = max(float(np.abs(pi).max(initial=0.0)), 1.0)
    min_val = pi.min(initial=0.0)
    if min_val < -residual_scale * scale:
        raise SolverError(
            f"steady-state solution has significant negative mass ({min_val:.3e})"
        )
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0.0:
        raise SolverError("steady-state solution has zero total mass")
    return pi / total


#: Telemetry a solver reports for the ``markov.steady_state`` span.
SolveInfo = dict[str, object]


def _check_residual(q: sp.spmatrix, pi: np.ndarray, tol: float = 1e-7) -> float:
    """Verify ``pi Q ~ 0`` relative to the generator's magnitude; return
    that relative residual."""
    scale = max(1.0, float(np.abs(q.diagonal()).max(initial=0.0)))
    residual = float(np.abs(pi @ q).max()) / scale
    if residual > tol:
        raise SolverError(f"steady-state residual too large: {residual:.3e}")
    return residual


#: A matrix whose bandwidth is at most ``1 / _BANDED_FRACTION`` of its
#: order is LU-factored in its own (natural) order.  The approximate and
#: pooled chains enumerate ``q`` outermost and an event moves ``q`` by at
#: most one, so their bandwidth is a few percent of ``n`` and COLAMD's
#: reordering only costs time; the detailed model's BFS-ordered lattices
#: sit at 35-63%, where COLAMD cuts the fill several-fold.
_BANDED_FRACTION = 8


def _bandwidth(m: sp.spmatrix) -> int:
    """Largest ``|i - j|`` over the stored entries of a CSR or CSC
    matrix, in O(nnz)."""
    major = np.repeat(np.arange(len(m.indptr) - 1), np.diff(m.indptr))
    return int(np.abs(m.indices - major).max(initial=0))


def _direct(q: sp.spmatrix) -> tuple[np.ndarray, SolveInfo]:
    """:func:`steady_state_direct` plus its telemetry."""
    n = q.shape[0]
    if n == 1:
        return np.array([1.0]), {}
    qt = sp.csc_matrix(q.transpose())
    a = sp.csc_matrix(qt[1:, 1:])
    # Densifying one n-1 column (the RHS the solver needs dense anyway)
    # is O(n), not an O(n^2) matrix materialization.
    b = -qt[1:, 0].toarray().ravel()
    ordering = "NATURAL" if _BANDED_FRACTION * _bandwidth(a) <= n else "COLAMD"
    try:
        lu = spla.splu(a, permc_spec=ordering)
        tail = lu.solve(b)
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"sparse LU failed: {exc}") from exc
    pi = np.concatenate([[1.0], tail])
    pi = _clean(pi)
    residual = _check_residual(q, pi)
    sanitize.check_distribution(pi, label="steady-state[direct]")
    return pi, {"ordering": ordering, "residual": residual}


def steady_state_direct(q: sp.spmatrix) -> np.ndarray:
    """Solve ``pi Q = 0, sum(pi)=1`` by sparse LU on the transposed system.

    The singular system is made determinate by *pinning* the first state's
    probability to 1, dropping the (redundant) first balance equation, and
    solving the remaining sparse square system; the result is then
    normalized.  Pinning preserves sparsity — replacing an equation with a
    dense row of ones would destroy the LU fill-in ordering and is orders
    of magnitude slower on chains with tens of thousands of states.  The
    first state is pinned because the library's state spaces start from
    the empty-system state, which always carries non-negligible mass.

    A banded system (bandwidth at most ``n / 8``) is factored in its
    natural order, any other with SuperLU's default COLAMD ordering.
    """
    return _direct(q)[0]


def steady_state_gmres(
    q: sp.spmatrix,
    tol: float = 1e-12,
    max_iter: int = 20_000,
) -> np.ndarray:
    """Solve the steady state with preconditioned GMRES.

    Uses the same sparsity-preserving *pinning* construction as
    :func:`steady_state_direct`: fix ``pi[0] = 1``, drop the redundant
    first balance equation, and solve the remaining square system.  The
    earlier formulation replaced one equation with a dense row of ones,
    which destroyed the sparsity the ILU preconditioner relies on.

    Args:
        q: the generator.
        tol: relative GMRES tolerance.
        max_iter: GMRES iteration budget.
    """
    return _gmres(q, tol=tol, max_iter=max_iter)[0]


def _gmres(
    q: sp.spmatrix, tol: float = 1e-12, max_iter: int = 20_000
) -> tuple[np.ndarray, SolveInfo]:
    """:func:`steady_state_gmres` plus its telemetry."""
    n = q.shape[0]
    if n == 1:
        return np.array([1.0]), {}
    qt = sp.csc_matrix(q.transpose())
    a = sp.csc_matrix(qt[1:, 1:])
    # One dense n-1 column for the RHS: O(n), not a matrix blow-up.
    b = -qt[1:, 0].toarray().ravel()
    preconditioner = None
    try:
        ilu = spla.spilu(a, drop_tol=1e-6, fill_factor=20)
        preconditioner = spla.LinearOperator(a.shape, ilu.solve)
    except RuntimeError:
        preconditioner = None
    # In the pinned system the unknowns are pi[1:] / pi[0]; a uniform
    # distribution therefore corresponds to a tail of ones.
    tail, info = spla.gmres(
        a, b, x0=np.ones(n - 1), rtol=tol, atol=0.0, maxiter=max_iter, M=preconditioner
    )
    if info != 0:
        raise ConvergenceError(f"GMRES did not converge (info={info})")
    pi = np.concatenate([[1.0], tail])
    pi = _clean(pi)
    residual = _check_residual(q, pi, tol=1e-6)
    sanitize.check_distribution(pi, label="steady-state[gmres]")
    return pi, {"residual": residual}


# Power-iteration inner loop; dominates chain solves.
def stationary_power(
    p: sp.spmatrix,
    tol: float = 1e-12,
    max_iter: int = 1_000_000,
) -> np.ndarray:
    """Power iteration for the stationary distribution of a DTMC matrix,
    started from the uniform distribution."""
    return _iterate_power(p, tol=tol, max_iter=max_iter)[0]


def _iterate_power(
    p: sp.spmatrix, tol: float, max_iter: int
) -> tuple[np.ndarray, int]:
    """:func:`stationary_power` plus the number of iterations it took."""
    n = p.shape[0]
    pi = np.full(n, 1.0 / n)
    for iteration in range(max_iter):
        nxt = np.asarray(pi @ p).ravel()
        delta = np.abs(nxt - pi).max()
        pi = nxt
        if delta < tol:
            obs.inc("markov.power.iterations", iteration + 1)
            return _clean(pi), iteration + 1
        if iteration % 1000 == 999:
            pi = _clean(pi)  # guard against drift
    raise ConvergenceError(
        f"power iteration did not converge within {max_iter} iterations"
    )


def steady_state_power(
    q: sp.spmatrix,
    tol: float = 1e-12,
    max_iter: int = 1_000_000,
) -> np.ndarray:
    """Steady state via power iteration on the uniformized DTMC."""
    return _power(q, tol=tol, max_iter=max_iter)[0]


def _power(
    q: sp.spmatrix, tol: float = 1e-12, max_iter: int = 1_000_000
) -> tuple[np.ndarray, SolveInfo]:
    """:func:`steady_state_power` plus its telemetry."""
    exit_rates = -q.diagonal()
    gamma = float(exit_rates.max(initial=0.0)) * 1.02
    if gamma <= 0.0:
        n = q.shape[0]
        return np.full(n, 1.0 / n), {"iterations": 0}
    p = sp.eye(q.shape[0], format="csr") + q.multiply(1.0 / gamma)
    pi, iterations = _iterate_power(sp.csr_matrix(p), tol=tol, max_iter=max_iter)
    residual = _check_residual(q, pi, tol=1e-6)
    sanitize.check_distribution(pi, label="steady-state[power]")
    return pi, {"iterations": iterations, "residual": residual}


# Above this size, LU fill on lattice-shaped generators (the detailed
# federation chains) costs minutes and gigabytes; power iteration on the
# uniformized chain is tried first — these chains mix quickly, so it
# typically wins by orders of magnitude and falls through cleanly if not.
_LARGE_CHAIN_THRESHOLD = 20_000

#: Pre-built per-solver metric names: steady_state is hot, and building
#: "markov.solve." + name on every call formats eagerly even with
#: metrics disabled.
_SOLVE_METRICS = {
    name: "markov.solve." + name for name in ("direct", "gmres", "power")
}

_SOLVERS: dict[str, Callable[[sp.spmatrix], tuple[np.ndarray, SolveInfo]]] = {
    "direct": _direct,
    "gmres": _gmres,
    "power": _power,
}


def steady_state(q: sp.spmatrix, method: str = "auto") -> np.ndarray:
    """Solve the CTMC steady state with the requested ``method``.

    ``auto`` picks a solver order by chain size (direct LU first for
    small chains, power iteration first for large ones); the first solver
    that produces a residual-checked distribution wins.
    """
    q = sp.csr_matrix(q)
    with obs.span("markov.steady_state", n=q.shape[0], method=method) as span:
        if method in _SOLVERS:
            order = [(method, _SOLVERS[method])]
        elif method != "auto":
            raise SolverError(f"unknown steady-state method {method!r}")
        elif q.shape[0] > _LARGE_CHAIN_THRESHOLD:
            order = [
                ("power", partial(_power, tol=1e-13, max_iter=100_000)),
                ("direct", _direct),
                ("gmres", _gmres),
            ]
        else:
            order = [("direct", _direct), ("gmres", _gmres), ("power", _power)]
        errors: list[str] = []
        for name, solver in order:
            try:
                pi, info = solver(q)
            except SolverError as exc:
                if method != "auto":
                    raise
                errors.append(f"{name}: {exc}")
            else:
                obs.inc(_SOLVE_METRICS[name])
                span.set(solver=name, **info)
                return pi
        raise SolverError(
            "all steady-state solvers failed: " + "; ".join(errors)
        )
