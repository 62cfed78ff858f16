"""Steady-state solvers for CTMC generators.

Three strategies, selectable explicitly or via ``method='auto'``:

- ``direct``   — LU on the pinned linear system; exact up to floating
  point, first choice up to 5,000 states.  The factorization follows the
  system's bandwidth ``bw``: LAPACK's banded LU when ``bw * bw <= n``,
  SuperLU in the natural order when ``8 bw <= n``, SuperLU with COLAMD
  otherwise.
- ``bicgstab`` — Jacobi-preconditioned BiCGSTAB on the system normalized
  by a rank-one term; first choice above 5,000 states, where it beats LU
  several-fold.
- ``power``    — power iteration on the uniformized DTMC; slow but
  unconditionally robust, used as a fallback and as an independent
  cross-check in tests.

All solvers return a probability row vector ``pi`` with ``pi Q = 0`` and
``sum(pi) = 1``; tiny negative entries from round-off are clipped and the
vector renormalized.

:func:`steady_state` takes a sparse matrix or a :class:`BandGenerator`,
a generator stored by its diagonals.  The direct solver builds the band
LU's storage straight from a band generator's diagonals and checks the
residual on them; every other solver, and a band generator too wide for
the band LU, works on its :meth:`~BandGenerator.tocsr` matrix, built once
per solve.

:func:`steady_state` records on its ``markov.steady_state`` span which
solver succeeded (``solver``), the relative ``residual`` of its result,
the ``ordering`` of a direct solve (``BAND``, ``NATURAL`` or ``COLAMD``)
and the ``iterations`` of a BiCGSTAB or power solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, TypeAlias

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbsv as _dgbsv

from repro import obs
from repro.analysis import sanitize
from repro.exceptions import ConvergenceError, SolverError


def _clean(pi: np.ndarray, residual_scale: float = 1e-8) -> np.ndarray:
    """Clip round-off negatives and renormalize a candidate distribution,
    in place when ``pi`` is a contiguous float array."""
    pi = np.asarray(pi, dtype=float).ravel()
    min_val = pi.min(initial=0.0)
    # The largest magnitude, as ``np.abs(pi).max(initial=0.0)`` finds it.
    scale = max(float(pi.max(initial=0.0)), float(-min_val), 1.0)
    if min_val < -residual_scale * scale:
        raise SolverError(
            f"steady-state solution has significant negative mass ({min_val:.3e})"
        )
    np.maximum(pi, 0.0, out=pi)  # what ``np.clip(pi, 0.0, None)`` computes
    total = pi.sum()
    if total <= 0.0:
        raise SolverError("steady-state solution has zero total mass")
    pi /= total
    return pi


@dataclass(frozen=True, slots=True)
class BandGenerator:
    """A CTMC generator stored by its diagonals.

    ``rates[i, s]`` is ``Q[i, i + offsets[s]]`` and is zero wherever the
    matrix stores no entry, off the grid included; ``offsets`` are
    distinct, increasing and include the diagonal's 0.  :meth:`tocsr`
    stores the nonzero rates, each row in column order.
    """

    rates: np.ndarray
    offsets: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, int]:
        n = self.rates.shape[0]
        return n, n

    def tocsr(self) -> sp.csr_matrix:
        """The generator as a CSR matrix of its nonzero rates."""
        n = self.rates.shape[0]
        stored = self.rates != 0.0
        columns = np.arange(n)[:, None] + np.array(self.offsets)
        return sp.csr_matrix(
            (
                self.rates[stored],
                columns[stored],
                np.concatenate(([0], np.cumsum(stored.sum(axis=1)))),
            ),
            shape=(n, n),
        )

    def diagonal(self) -> np.ndarray:
        """The diagonal of ``Q``."""
        return self.rates[:, self.offsets.index(0)]

    def left_product(self, pi: np.ndarray) -> np.ndarray:
        """``pi Q``.  Each entry adds its terms in row order from zero, as
        ``pi @ q`` does on the CSR matrix, so the two agree bit for bit."""
        n = self.rates.shape[0]
        flow = np.zeros(n)
        # Row i = j - offset feeds column j: the largest offset first.
        for s in reversed(range(len(self.offsets))):
            offset = self.offsets[s]
            if abs(offset) >= n:
                continue
            if offset >= 0:
                flow[offset:] += pi[: n - offset] * self.rates[: n - offset, s]
            else:
                flow[:offset] += pi[-offset:] * self.rates[-offset:, s]
        return flow


#: A generator :func:`steady_state` accepts.
Generator: TypeAlias = "sp.spmatrix | BandGenerator"


def _as_csr(q: sp.spmatrix) -> sp.csr_matrix:
    """``q`` as a CSR matrix, wrapped afresh only if it is not one (the
    direct solver reads a CSR generator's arrays)."""
    return q if type(q) is sp.csr_matrix else sp.csr_matrix(q)


#: Telemetry a solver reports for the ``markov.steady_state`` span.
SolveInfo = dict[str, object]


def _check_residual(q: Generator, pi: np.ndarray, tol: float = 1e-7) -> float:
    """Verify ``pi Q ~ 0`` relative to the generator's magnitude; return
    that relative residual."""
    scale = max(1.0, float(np.abs(q.diagonal()).max(initial=0.0)))
    flow = q.left_product(pi) if isinstance(q, BandGenerator) else pi @ q
    residual = float(np.abs(flow).max()) / scale
    if residual > tol:
        raise SolverError(f"steady-state residual too large: {residual:.3e}")
    return residual


#: A pinned system whose bandwidth ``bw`` satisfies ``bw * bw <= n`` is
#: solved by LAPACK's banded LU (``dgbsv``), built straight from the
#: generator's CSR arrays or a band generator's diagonals.  The
#: approximate first levels and the pooled chains enumerate ``q``
#: outermost and an event moves ``q`` by at most one, so their bandwidth
#: is 1-21 on 27-1,218 states, and the band LU skips SuperLU's general
#: factorization and its scipy.sparse wrapping.
#: The rule caps the band storage at about ``3 n^1.5`` doubles: on the
#: 17,028- and 20,592-state approximate levels (bandwidth 736 and 869)
#: the band LU only ties SuperLU (0.53 and 0.92 s against 0.70 and
#: 0.96 s of CPU) and its band storage takes 285 and 407 MB against 99
#: and 133 MB for SuperLU's L and U, so they stay on SuperLU.
#:
#: Of the systems SuperLU factors, one whose bandwidth is at most
#: ``1 / _BANDED_FRACTION`` of its order keeps its natural order, where
#: COLAMD's reordering only costs time; the detailed model's BFS-ordered
#: lattices sit at 35-63%, where COLAMD cuts the fill several-fold.
_BANDED_FRACTION = 8


def _pinned_rhs(q: sp.csr_matrix) -> np.ndarray:
    """The right-hand side ``-Q^T[1:, 0]`` of the pinned system: row 0 of
    ``Q`` without its column-0 entries, duplicates summed in stored order
    and the sum negated, as densifying the sliced column would."""
    first = q.indptr[1]
    head = q.indices[:first] != 0
    rhs = np.zeros(q.shape[0] - 1)
    np.add.at(rhs, q.indices[:first][head] - 1, q.data[:first][head])
    return -rhs


def _pinned_system(q: sp.csr_matrix) -> tuple[sp.csc_matrix, np.ndarray]:
    """The pinned system ``Q^T[1:, 1:] x = -Q^T[1:, 0]`` of a CSR generator.

    Row ``i`` of ``Q`` is column ``i`` of ``Q^T``, so the CSC matrix comes
    straight from ``Q``'s arrays: rows 1.. with the entries of column 0
    removed and every column index shifted down by one, in stored order.
    """
    n = q.shape[0]
    indptr, indices, data = q.indptr, q.indices, q.data
    first = indptr[1]
    tail_indices = indices[first:]
    keep = tail_indices != 0
    kept = np.concatenate(([0], np.cumsum(keep)))
    a = sp.csc_matrix(
        (data[first:][keep], tail_indices[keep] - 1, kept[indptr[1:] - first]),
        shape=(n - 1, n - 1),
    )
    return a, _pinned_rhs(q)


def _band_lu(ab: np.ndarray, lower: int, upper: int, rhs: np.ndarray) -> np.ndarray:
    """Solve the pinned system with LAPACK's banded LU.

    ``A[r, c]`` is stored at ``ab[lower + upper + r - c, c]``; the rows
    ``0 .. lower - 1`` of ``ab`` are workspace for the pivoting's fill.
    ``ab`` and ``rhs`` are overwritten.
    """
    _lu, _piv, x, info = _dgbsv(lower, upper, ab, rhs, overwrite_ab=True, overwrite_b=True)
    if info != 0:
        # info > 0: an exactly zero pivot, a singular system.
        raise SolverError(f"band LU failed (dgbsv info={info})")
    return x.ravel()


def _pinned_solution(
    q: Generator, tail: np.ndarray, ordering: str
) -> tuple[np.ndarray, SolveInfo]:
    """The distribution of a pinned solve's unknowns ``tail``, checked."""
    pi = _clean(np.concatenate([[1.0], tail]))
    residual = _check_residual(q, pi)
    sanitize.check_distribution(pi, label="steady-state[direct]")
    return pi, {"ordering": ordering, "residual": residual}


def _direct(q: sp.csr_matrix) -> tuple[np.ndarray, SolveInfo]:
    """:func:`steady_state_direct` plus its telemetry, on a CSR generator."""
    n = q.shape[0]
    if n == 1:
        return np.array([1.0]), {}
    # The pinned system's entries: rows 1.. of Q without column 0.  Entry
    # Q[i, j] is A[j - 1, i - 1], at column i - 1 and offset j - i.
    indptr, indices = q.indptr, q.indices
    first = indptr[1]
    keep = indices[first:] != 0
    columns = np.repeat(np.arange(n - 1), np.diff(indptr[1:]))[keep]
    offsets = indices[first:][keep] - 1 - columns
    lower = int(offsets.max(initial=0))
    upper = int(-offsets.min(initial=0))
    bandwidth = max(lower, upper)
    if bandwidth * bandwidth <= n:
        # Duplicates are summed in stored order.
        height = 2 * lower + upper + 1
        ab = np.bincount(
            columns * height + (lower + upper) + offsets,
            weights=q.data[first:][keep],
            minlength=(n - 1) * height,
        ).reshape(n - 1, height).T
        return _pinned_solution(q, _band_lu(ab, lower, upper, _pinned_rhs(q)), "BAND")
    ordering = "NATURAL" if _BANDED_FRACTION * bandwidth <= n else "COLAMD"
    a, b = _pinned_system(q)
    try:
        tail = spla.splu(a, permc_spec=ordering).solve(b)
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"sparse LU failed: {exc}") from exc
    return _pinned_solution(q, tail, ordering)


def _band_direct(g: BandGenerator) -> tuple[np.ndarray, SolveInfo] | None:
    """:func:`_direct` on a band generator, straight from its diagonals:
    the same band storage, right-hand side and residual, bit for bit.
    ``None`` when the pinned system is too wide for the band LU."""
    rates, offsets = g.rates, g.offsets
    n = rates.shape[0]
    if n == 1:
        return np.array([1.0]), {}
    # Slot s holds A's diagonal at offset offsets[s], shifted by one for
    # the pin.  Rows 1.. of Q are its entries, less the one that lands in
    # column 0 (row -offset of a negative offset).
    entries = np.count_nonzero(rates[1:], axis=0)
    for s, offset in enumerate(offsets):
        if 0 < -offset < n and rates[-offset, s] != 0.0:
            entries[s] -= 1
    lower = max((o for s, o in enumerate(offsets) if o > 0 and entries[s]), default=0)
    upper = max((-o for s, o in enumerate(offsets) if o < 0 and entries[s]), default=0)
    bandwidth = max(lower, upper)
    if bandwidth * bandwidth > n:
        return None
    # The transpose of the (n - 1, height) array is the Fortran-ordered
    # band storage.  A slot's column-0 entry is copied too: it lands above
    # A's first row, in the corner of the band storage dgbsv never reads.
    storage = np.zeros((n - 1, 2 * lower + upper + 1))
    rhs = np.zeros(n - 1)
    for s, offset in enumerate(offsets):
        if 0 < offset < n:
            rhs[offset - 1] = rates[0, s]
        if entries[s]:
            storage[:, lower + upper + offset] = rates[1:, s]
    return _pinned_solution(g, _band_lu(storage.T, lower, upper, -rhs), "BAND")


def steady_state_direct(q: sp.spmatrix) -> np.ndarray:
    """Solve ``pi Q = 0, sum(pi)=1`` by LU on the transposed system.

    The singular system is made determinate by *pinning* the first state's
    probability to 1, dropping the (redundant) first balance equation, and
    solving the remaining sparse square system; the result is then
    normalized.  Pinning preserves sparsity — replacing an equation with a
    dense row of ones would destroy the LU fill-in ordering and is orders
    of magnitude slower on chains with tens of thousands of states.  The
    first state, the library's empty-system state, is pinned.  Its mass
    can be vanishingly small (8.5e-99 and 1.4e-88 on fig6-10sc levels of
    62,700 and 53,592 states); LU copes with the 1 / pi[0] scaling this
    gives the unknowns, but a Krylov iteration does not, which is why
    :func:`steady_state_bicgstab` normalizes with a rank-one term
    instead.

    A narrow-band system (bandwidth ``bw`` with ``bw * bw <= n``) is
    solved by LAPACK's banded LU (``dgbsv``); of the others, a banded
    one (``8 bw <= n``) is factored by SuperLU in its natural order and
    any other with SuperLU's default COLAMD ordering.
    """
    return _direct(_as_csr(q))[0]


def steady_state_bicgstab(
    q: sp.spmatrix,
    tol: float = 1e-12,
    max_iter: int = 2_000,
) -> np.ndarray:
    """Solve the steady state with Jacobi-preconditioned BiCGSTAB.

    The singular system ``Q^T pi = 0`` is made determinate by a rank-one
    term rather than by pinning a state: with ``u = (s / n) 1``, where
    ``s`` is the largest exit rate, it solves ``(Q^T + u 1^T) pi = u``.
    Every column of ``Q^T`` sums to zero, so summing the rows gives
    ``s * sum(pi) = s`` and the solution is already normalized.  Pinning
    (see :func:`steady_state_direct`) rescales the unknowns by ``1 /
    pi[0]``, and where the pinned state carries almost no mass (``pi[0]``
    of 8.5e-99 on a fig6-10sc level) the pinned system is too badly
    scaled for a Krylov method: on that level BiCGSTAB on the pinned
    system stops with a true relative residual of 5.5e6.  The operator
    is applied matrix-free, so the term stays rank one and ``Q^T`` stays
    sparse.  The iteration starts from the uniform distribution.

    Args:
        q: the generator.
        tol: relative BiCGSTAB tolerance.
        max_iter: BiCGSTAB iteration budget; a run that exhausts it raises
            :class:`~repro.exceptions.ConvergenceError`.
    """
    return _bicgstab(q, tol=tol, max_iter=max_iter)[0]


def _bicgstab(
    q: sp.spmatrix, tol: float = 1e-12, max_iter: int = 2_000
) -> tuple[np.ndarray, SolveInfo]:
    """:func:`steady_state_bicgstab` plus its telemetry."""
    n = q.shape[0]
    if n == 1:
        return np.array([1.0]), {}
    qt = sp.csr_matrix(q.transpose())
    diagonal = q.diagonal()
    shift = float(-diagonal.min(initial=0.0)) / n
    if shift <= 0.0:
        raise SolverError("generator has no transitions")
    operator = spla.LinearOperator(
        (n, n), matvec=lambda x: qt @ x + shift * x.sum(), dtype=float
    )
    jacobi = diagonal + shift
    # A state whose exit rate is exactly s / n zeroes its diagonal entry;
    # any nonzero scale preconditions it.
    jacobi[jacobi == 0.0] = shift
    preconditioner = spla.LinearOperator((n, n), matvec=lambda x: x / jacobi, dtype=float)
    iterations = 0

    def count(_x: np.ndarray) -> None:
        nonlocal iterations
        iterations += 1

    pi, info = spla.bicgstab(
        operator,
        np.full(n, shift),
        x0=np.full(n, 1.0 / n),
        rtol=tol,
        atol=0.0,
        maxiter=max_iter,
        M=preconditioner,
        callback=count,
    )
    obs.inc("markov.bicgstab.iterations", iterations)
    if info > 0:
        raise ConvergenceError(
            f"BiCGSTAB did not converge within {max_iter} iterations"
        )
    if info < 0:
        raise SolverError(f"BiCGSTAB broke down (info={info})")
    pi = _clean(pi)
    residual = _check_residual(q, pi, tol=1e-6)
    sanitize.check_distribution(pi, label="steady-state[bicgstab]")
    return pi, {"iterations": iterations, "residual": residual}


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


# Above this size BiCGSTAB beats SuperLU: 100 ms against 137 ms on an
# 8,514-state fig8 level, 24 ms against 273 ms on the 8,885-state fig6
# detailed chain.  Below it LU wins (2.8 ms against 7.4 ms on a
# 1,218-state pooled chain) or ties (63 ms against 60 ms on a 5,400-state
# fig8 level).  Power iteration is the fallback, and LU goes last: on
# the detailed lattices its fill costs minutes and gigabytes.
_LARGE_CHAIN_THRESHOLD = 5_000

#: Pre-built per-solver metric names: steady_state is hot, and building
#: "markov.solve." + name on every call formats eagerly even with
#: metrics disabled.
_SOLVE_METRICS = {
    name: "markov.solve." + name for name in ("direct", "bicgstab", "power")
}

_SOLVERS: dict[str, Callable[[sp.spmatrix], tuple[np.ndarray, SolveInfo]]] = {
    "direct": _direct,
    "bicgstab": _bicgstab,
    "power": _power,
}


def steady_state(q: Generator, method: str = "auto") -> np.ndarray:
    """Solve the CTMC steady state with the requested ``method``.

    ``auto`` picks a solver order by chain size (direct LU first for
    small chains, BiCGSTAB first for large ones); the first solver that
    produces a residual-checked distribution wins.  The direct solver
    takes a :class:`BandGenerator` straight from its diagonals when its
    pinned system fits the band LU; any other solve of one, a fallback
    included, runs on its :meth:`~BandGenerator.tocsr` matrix, built once.
    """
    band = q if isinstance(q, BandGenerator) else None
    matrix = None if band is not None else _as_csr(q)
    with obs.span("markov.steady_state", n=q.shape[0], method=method) as span:
        if method in _SOLVERS:
            order = [(method, _SOLVERS[method])]
        elif method != "auto":
            raise SolverError(f"unknown steady-state method {method!r}")
        elif q.shape[0] > _LARGE_CHAIN_THRESHOLD:
            order = [
                ("bicgstab", _bicgstab),
                ("power", partial(_power, tol=1e-13, max_iter=100_000)),
                ("direct", _direct),
            ]
        else:
            order = [("direct", _direct), ("bicgstab", _bicgstab), ("power", _power)]
        errors: list[str] = []
        for name, solver in order:
            try:
                solved = _band_direct(band) if band is not None and name == "direct" else None
                if solved is None:
                    if matrix is None:
                        matrix = q.tocsr()
                    solved = solver(matrix)
            except SolverError as exc:
                if method != "auto":
                    raise
                errors.append(f"{name}: {exc}")
            else:
                pi, info = solved
                obs.inc(_SOLVE_METRICS[name])
                span.set(solver=name, **info)
                return pi
        raise SolverError(
            "all steady-state solvers failed: " + "; ".join(errors)
        )
