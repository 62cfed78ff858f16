"""Interaction probabilities between levels of the approximate model.

Sect. III-C couples each per-SC chain ``M^i`` to its predecessor
``M^{i-1}`` through three "interaction probability vectors" — the
distribution of the group's shared-VM allocation ``(a_loc, a_rem)`` after
the inter-event period preceding an arrival, a local departure, or a
remote departure.  This module implements that coupling:

1. **Conditioning** (:func:`conditional_initials`): the steady state of
   ``M^{i-1}`` restricted to states whose total group borrowing ``T``
   matches the allocation implied by the current ``M^i`` state
   (``T == s_i + a_i``), renormalized; empty levels fall back to the
   nearest populated level.
2. **Transient evolution**: the conditioned distributions are pushed
   through ``exp(Q^{i-1} tau)`` for the mean inter-event time ``tau``
   (``1/lambda``, ``1/(L mu)``, or ``1/(o mu)``) by uniformization with
   Fox–Glynn weights — all conditioning levels and all horizons share one
   sweep of DTMC powers (:func:`transient_outcomes`).
3. **Owner split** (:func:`reduction_matrix`): ``M^{i-1}`` does not track
   which owner each borrowed VM belongs to, so the usage ``U = o + a`` of
   non-``(i-1)``-owned shared VMs is split between SC i's pool (``S_i``
   slots) and the rest of the federation hypergeometrically; VMs borrowed
   from SC ``i-1`` itself (``s``) always land on the ``a_rem`` side.  The
   group-backlog flag needed by transition cases C4/C5 is read off the
   predecessor state's queue.

The reduction from predecessor-state distributions to outcome
distributions is linear, so it is materialized once as a sparse matrix,
in whole-array steps with one pmf per distinct usage, and applied to
every transient result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.analysis import sanitize
from repro.exceptions import SolverError
from repro.markov.ctmc import CTMC
from repro.markov.fox_glynn import fox_glynn
from repro.markov.uniformization import uniformize

#: One outcome of the interaction coupling: the group holds ``a_loc`` of
#: the target SC's shared VMs and ``a_rem`` of everyone else's, and
#: ``backlog`` says whether the group still has queued requests.
Outcome = tuple[int, int, bool]


@dataclass(frozen=True)
class OutcomeTable:
    """Index of all interaction outcomes with positive probability, sorted."""

    outcomes: tuple[Outcome, ...]
    index: dict[Outcome, int]

    def __len__(self) -> int:
        return len(self.outcomes)


def _log_binomial(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hypergeometric_pmf(draws: int, cap_loc: int, cap_rem: int) -> np.ndarray:
    """Return ``P[a_loc = x]`` for ``x = 0..min(draws, cap_loc)``.

    ``draws`` shared VMs are held by the group out of a pool of
    ``cap_loc + cap_rem`` slots; the split follows a hypergeometric law
    under the model's exchangeability assumption (every slot equally
    likely to be in use).
    """
    if draws > cap_loc + cap_rem:
        raise SolverError(
            f"group holds {draws} shared VMs but the pool has only "
            f"{cap_loc + cap_rem}"
        )
    if cap_loc == 0:
        return np.array([1.0])
    x_low = max(0, draws - cap_rem)
    x_high = min(cap_loc, draws)
    pmf = np.zeros(x_high + 1)
    log_denominator = _log_binomial(cap_loc + cap_rem, draws)
    for x in range(x_low, x_high + 1):
        log_p = (
            _log_binomial(cap_loc, x)
            + _log_binomial(cap_rem, draws - x)
            - log_denominator
        )
        pmf[x] = math.exp(log_p)
    total = pmf.sum()
    if not 0.999 <= total <= 1.001:  # pragma: no cover - sanity
        raise SolverError(f"hypergeometric pmf sums to {total}")
    return pmf / total


def reduction_matrix(
    usage: np.ndarray,
    own_lent: np.ndarray,
    backlog: np.ndarray,
    cap_loc: int,
    cap_rem: int,
) -> tuple[sp.csr_matrix, OutcomeTable]:
    """Build the linear map from predecessor-state distributions to outcomes.

    Args:
        usage: per-predecessor-state count of non-predecessor-owned shared
            VMs in use by the group (``U = o + a``).
        own_lent: per-state count of the predecessor's own VMs lent to the
            group (``s``) — these are owned by another SC from the target's
            viewpoint, so they contribute to ``a_rem`` deterministically.
        backlog: per-state group backlog counts (``> 0`` sets the flag).
        cap_loc: the target SC's shared pool size ``S_i``.
        cap_rem: the rest of the predecessor's pool, ``B_{i-1} - S_i``.

    Returns:
        ``(matrix, table)`` where ``matrix`` has shape
        ``(n_states, n_outcomes)`` and rows summing to 1.

    Each distinct usage draws one pmf.  An outcome's integer key sorts as
    its tuple, so the sorted distinct keys are the table, and a state's
    columns rise with ``a_loc``: the CSR arrays are canonical as built.
    """
    usage = np.asarray(usage).astype(np.int64)
    distinct, usage_row = np.unique(usage, return_inverse=True)
    pmfs = np.zeros((distinct.size, cap_loc + 1))
    for row, draws in enumerate(distinct.tolist()):
        pmf = hypergeometric_pmf(draws, cap_loc, cap_rem)
        pmfs[row, : pmf.size] = pmf
    probs = pmfs[usage_row]
    state, a_loc = np.nonzero(probs > 0.0)  # row-major: by state, then a_loc
    a_rem = usage[state] - a_loc + np.asarray(own_lent).astype(np.int64)[state]
    low = int(a_rem.min(initial=0))
    span = int(a_rem.max(initial=0)) - low + 1
    flag = np.asarray(backlog)[state] > 0
    keys, columns = np.unique((a_loc * span + a_rem - low) * 2 + flag, return_inverse=True)
    a_locs, rest = np.divmod(keys, 2 * span)
    outcomes = tuple(zip(a_locs.tolist(), (rest // 2 + low).tolist(), (rest % 2 == 1).tolist()))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(state, minlength=usage.size))))
    matrix = sp.csr_matrix(
        (probs[state, a_loc], columns, indptr), shape=(usage.size, len(outcomes))
    )
    return matrix, OutcomeTable(outcomes, {o: i for i, o in enumerate(outcomes)})


def conditional_initials(
    steady: np.ndarray, totals: np.ndarray, levels: range
) -> np.ndarray:
    """Condition a steady state on each total-borrowing level.

    Args:
        steady: the predecessor chain's stationary distribution.
        totals: per-state total group borrowing ``T = s + o + a``.
        levels: the conditioning values ``c`` required by the successor
            chain (``c = s_i + a_i`` over its states).

    Returns:
        A matrix of shape ``(len(levels), n_states)``; row ``c`` is the
        steady state conditioned on ``T == c`` (nearest populated level if
        that event has zero probability).
    """
    n = len(steady)
    populated: dict[int, np.ndarray] = {}
    for t in np.unique(totals):
        mask = totals == t
        mass = steady[mask].sum()
        if mass > 1e-300:
            row = np.zeros(n)
            row[mask] = steady[mask] / mass
            populated[int(t)] = row
    if not populated:
        raise SolverError("steady state has no populated borrowing level")
    available = np.array(sorted(populated))
    result = np.zeros((len(levels), n))
    for row_idx, c in enumerate(levels):
        nearest = int(available[np.abs(available - c).argmin()])
        result[row_idx] = populated[nearest]
    sanitize.check_distribution_rows(result, label="conditional-initials")
    return result


# The shared transient sweep behind every level's coupling terms.
def transient_outcomes(
    ctmc: CTMC,
    initials: np.ndarray,
    reduction: sp.csr_matrix,
    horizons: list[float],
    epsilon: float = 1e-8,
) -> list[np.ndarray]:
    """Evolve all conditioned initials over all horizons, in outcome space.

    All horizons share one sweep of uniformized DTMC powers: at step ``k``
    the matrix ``X P^k`` is projected to outcome space once and added to
    every horizon whose Fox–Glynn window covers ``k``.

    Args:
        ctmc: the predecessor chain.
        initials: matrix (n_levels, n_states) of conditioned initials.
        reduction: the owner-split matrix from :func:`reduction_matrix`.
        horizons: mean inter-event times ``tau`` (all > 0).
        epsilon: Fox–Glynn truncation mass.

    Returns:
        One array of shape ``(n_levels, n_outcomes)`` per horizon, rows
        summing to 1.
    """
    dtmc, gamma = uniformize(ctmc)
    windows = [fox_glynn(gamma * tau, epsilon=epsilon) for tau in horizons]
    max_step = max(w.right for w in windows)
    matrix = dtmc.matrix
    accumulators = [
        np.zeros((initials.shape[0], reduction.shape[1])) for _ in horizons
    ]
    current = np.asarray(initials, dtype=float)
    for k in range(max_step + 1):
        projected = None
        for window, acc in zip(windows, accumulators):
            if window.left <= k <= window.right:
                if projected is None:
                    projected = current @ reduction
                acc += window.weights[k - window.left] * projected
        if k < max_step:
            current = current @ matrix
    for horizon, acc in zip(horizons, accumulators):
        row_sums = acc.sum(axis=1, keepdims=True)
        acc /= np.clip(row_sums, 1e-300, None)
        sanitize.check_distribution_rows(
            acc, label=f"interaction-outcomes[tau={horizon:g}]"
        )
    return accumulators
