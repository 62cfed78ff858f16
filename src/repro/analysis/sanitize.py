"""Runtime stochastic sanitizer: debug-mode contracts for the pipeline.

The performance models, Markov solvers, and market layer exchange
numerical objects whose validity is assumed, not enforced: infinitesimal
generators (rows sum to zero, off-diagonal rates non-negative),
probability distributions (non-negative, sum to one), interaction
outcome matrices (stochastic rows), performance parameters
(``Ibar/Obar/Pbar/rho`` finite and non-negative), utilities (finite),
and disk-cache payloads (well-formed and untampered).  In a parallel
run a single corrupted array can propagate through caches and executors
long before it produces a visibly wrong figure.

This module is the contract layer.  Hooks throughout the library call
the ``check_*`` functions below; each hook is a no-op unless sanitizing
is enabled, so production runs pay one boolean read per hook.  Enable
with the environment variable ``REPRO_SANITIZE=1``, the ``--sanitize``
flag of ``repro.__main__`` / ``repro.bench.runner``, or programmatically
via :func:`sanitize_enable` / the :func:`sanitized` context manager.

On violation the hooks raise :class:`InvariantViolation`, which carries
a machine-readable ``context`` mapping with the offending values (the
row sums that failed, the index of the NaN utility, the mismatched
cache digest) so failures in deep call stacks are diagnosable without a
debugger.

Tolerances follow the library's existing conventions: row sums and
normalization are checked relative to the magnitude of the data, with
absolute floors matching the solvers' residual checks.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.exceptions import SCShareError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    import scipy.sparse as sp

    from repro.perf.params import PerformanceParams

__all__ = [
    "InvariantViolation",
    "check_cache_payload",
    "check_distribution",
    "check_distribution_rows",
    "check_finite",
    "check_generator",
    "check_interaction_vector",
    "check_params",
    "check_stochastic_matrix",
    "check_utilities",
    "check_weights",
    "sanitize_disable",
    "sanitize_enable",
    "sanitize_enabled",
    "sanitized",
]

#: Environment variable that turns the sanitizer on at import time.
SANITIZE_ENV_VAR = "REPRO_SANITIZE"

#: Relative tolerance for "sums to zero/one" checks.
REL_TOL = 1e-8

#: Absolute tolerance floor for the same checks.
ABS_TOL = 1e-9


class InvariantViolation(SCShareError):
    """A runtime numerical invariant was violated.

    Attributes:
        invariant: short machine-readable name of the violated contract
            (``"generator-row-sums"``, ``"distribution-mass"``, ...).
        context: mapping with the offending state — indices, values,
            row sums, digests — attached for post-mortem inspection.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        context: Mapping[str, Any] | None = None,
    ) -> None:
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant
        self.message = message
        self.context: dict[str, Any] = dict(context or {})

    def __reduce__(
        self,
    ) -> tuple[type["InvariantViolation"], tuple[str, str, dict[str, Any]]]:
        # Violations raised inside process-pool workers travel back to
        # the parent by pickle.  The default exception protocol replays
        # ``args`` — here the single pre-formatted string — into a
        # constructor that wants (invariant, message, context), so
        # without this the *unpickling* of the violation raises a
        # TypeError and the real diagnostic is lost.
        return (type(self), (self.invariant, self.message, self.context))


def _env_enabled() -> bool:
    value = os.environ.get(SANITIZE_ENV_VAR, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


_enabled: bool = _env_enabled()


def sanitize_enabled() -> bool:
    """Whether sanitizer hooks are currently active."""
    return _enabled


def sanitize_enable() -> None:
    """Turn the sanitizer on for this process."""
    # The process-pool worker bootstrap replays this switch in every
    # spawned worker (repro.runtime.executor._worker_bootstrap).
    global _enabled
    _enabled = True


def sanitize_disable() -> None:
    """Turn the sanitizer off for this process."""
    global _enabled
    _enabled = False


@contextmanager
def sanitized(active: bool = True) -> Iterator[None]:
    """Context manager scoping sanitizer activation (used by tests)."""
    global _enabled
    previous = _enabled
    _enabled = active
    try:
        yield
    finally:
        _enabled = previous


def _violation(
    invariant: str, message: str, context: Mapping[str, Any]
) -> InvariantViolation:
    return InvariantViolation(invariant, message, context)


def check_generator(q: "sp.spmatrix | np.ndarray", label: str = "Q") -> None:
    """Validate a CTMC infinitesimal generator.

    Rows must sum to (approximately) zero and every off-diagonal entry
    must be non-negative; all entries must be finite.
    """
    if not _enabled:
        return
    import scipy.sparse as sp  # local: keep module import light

    dense_diag = (
        q.diagonal() if sp.issparse(q) else np.asarray(q, dtype=float).diagonal()
    )
    data = q.data if sp.issparse(q) else np.asarray(q, dtype=float)
    if data.size and not np.isfinite(data).all():
        raise _violation(
            "generator-finite",
            f"{label} contains non-finite rates",
            {"label": label, "n_nonfinite": int((~np.isfinite(data)).sum())},
        )
    if sp.issparse(q):
        off = q.copy()
        off.setdiag(0.0)
        min_off = float(off.data.min()) if off.nnz else 0.0
    else:
        arr = np.asarray(q, dtype=float)
        off_arr = arr - np.diag(np.diag(arr))
        min_off = float(off_arr.min(initial=0.0))
    scale = max(1.0, float(np.abs(dense_diag).max(initial=0.0)))
    if min_off < -REL_TOL * scale:
        raise _violation(
            "generator-off-diagonal",
            f"{label} has negative off-diagonal rate {min_off:.3e}",
            {"label": label, "min_off_diagonal": min_off, "scale": scale},
        )
    row_sums = np.asarray(q.sum(axis=1)).ravel()
    worst = int(np.abs(row_sums).argmax()) if row_sums.size else 0
    max_residual = float(np.abs(row_sums).max(initial=0.0))
    if max_residual > REL_TOL * scale:
        raise _violation(
            "generator-row-sums",
            f"{label} rows do not sum to zero (max |row sum| = {max_residual:.3e})",
            {
                "label": label,
                "worst_row": worst,
                "row_sum": float(row_sums[worst]),
                "scale": scale,
            },
        )


def check_stochastic_matrix(p: "sp.spmatrix | np.ndarray", label: str = "P") -> None:
    """Validate a DTMC transition matrix: entries in [0, 1], rows sum to 1."""
    if not _enabled:
        return
    import scipy.sparse as sp

    data = p.data if sp.issparse(p) else np.asarray(p, dtype=float)
    if data.size and not np.isfinite(data).all():
        raise _violation(
            "stochastic-finite",
            f"{label} contains non-finite probabilities",
            {"label": label},
        )
    min_entry = float(data.min(initial=0.0)) if data.size else 0.0
    if min_entry < -REL_TOL:
        raise _violation(
            "stochastic-negative",
            f"{label} has negative entry {min_entry:.3e}",
            {"label": label, "min_entry": min_entry},
        )
    row_sums = np.asarray(p.sum(axis=1)).ravel()
    if row_sums.size:
        worst = int(np.abs(row_sums - 1.0).argmax())
        residual = float(abs(row_sums[worst] - 1.0))
        if residual > REL_TOL * max(1.0, float(np.abs(row_sums).max())):
            raise _violation(
                "stochastic-row-sums",
                f"{label} rows do not sum to one (worst residual {residual:.3e})",
                {"label": label, "worst_row": worst, "row_sum": float(row_sums[worst])},
            )


def check_distribution(
    pi: np.ndarray | Sequence[float],
    label: str = "pi",
    tol: float = 1e-6,
) -> None:
    """Validate a probability vector: finite, non-negative, sums to 1."""
    if not _enabled:
        return
    arr = np.asarray(pi, dtype=float).ravel()
    if not np.isfinite(arr).all():
        bad = np.flatnonzero(~np.isfinite(arr))
        raise _violation(
            "distribution-finite",
            f"{label} contains non-finite entries at indices {bad[:8].tolist()}",
            {"label": label, "indices": bad.tolist()},
        )
    min_val = float(arr.min(initial=0.0))
    if min_val < -tol:
        raise _violation(
            "distribution-negative",
            f"{label} has negative probability {min_val:.3e}",
            {"label": label, "min_value": min_val, "index": int(arr.argmin())},
        )
    total = float(arr.sum())
    if abs(total - 1.0) > tol:
        raise _violation(
            "distribution-mass",
            f"{label} sums to {total!r}, expected 1 within {tol:g}",
            {"label": label, "total": total, "tol": tol},
        )


def check_distribution_rows(
    rows: np.ndarray, label: str = "rows", tol: float = 1e-6
) -> None:
    """Validate every row of a matrix as a probability distribution."""
    if not _enabled:
        return
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2:
        raise _violation(
            "distribution-shape",
            f"{label} expected a 2-D row-distribution matrix, got ndim={arr.ndim}",
            {"label": label, "shape": tuple(arr.shape)},
        )
    for i in range(arr.shape[0]):
        check_distribution(arr[i], label=f"{label}[{i}]", tol=tol)


def check_interaction_vector(
    probabilities: np.ndarray | Sequence[float],
    label: str = "interaction",
    tol: float = 1e-6,
) -> None:
    """Validate an interaction-probability vector (Sect. III-C coupling)."""
    check_distribution(probabilities, label=label, tol=tol)


def check_weights(
    weights: np.ndarray, label: str = "fox-glynn", tol: float = 1e-6
) -> None:
    """Validate truncated Poisson weights: finite, non-negative, mass ~ 1."""
    check_distribution(weights, label=label, tol=tol)


def check_finite(
    values: np.ndarray | Sequence[float] | float,
    label: str = "values",
) -> None:
    """Validate that a scalar or array is entirely finite."""
    if not _enabled:
        return
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        flat = arr.ravel()
        bad = np.flatnonzero(~np.isfinite(flat))
        raise _violation(
            "non-finite",
            f"{label} contains non-finite values at flat indices {bad[:8].tolist()}",
            {"label": label, "indices": bad.tolist(), "values": flat[bad][:8].tolist()},
        )


def check_utilities(
    utilities: Sequence[float], label: str = "utilities"
) -> None:
    """Validate per-SC utilities: every entry finite (Eq. 2 outputs)."""
    if not _enabled:
        return
    for i, value in enumerate(utilities):
        if not np.isfinite(value):
            raise _violation(
                "utility-finite",
                f"{label}[{i}] is {value!r}",
                {"label": label, "index": i, "value": float(value)},
            )


def check_params(
    params: "PerformanceParams", label: str = "params"
) -> None:
    """Validate one SC's performance parameters (``Ibar/Obar/Pbar/rho``)."""
    if not _enabled:
        return
    fields = {
        "lent_mean": params.lent_mean,
        "borrowed_mean": params.borrowed_mean,
        "forward_rate": params.forward_rate,
        "utilization": params.utilization,
    }
    for name, value in fields.items():
        if not np.isfinite(value):
            raise _violation(
                "params-finite",
                f"{label}.{name} is {value!r}",
                {"label": label, "field": name, "value": value},
            )
        if value < -ABS_TOL:
            raise _violation(
                "params-negative",
                f"{label}.{name} is negative ({value!r})",
                {"label": label, "field": name, "value": value},
            )
    if params.utilization > 1.0 + 1e-6:
        raise _violation(
            "params-utilization",
            f"{label}.utilization exceeds 1 ({params.utilization!r})",
            {"label": label, "value": params.utilization},
        )


def check_cache_payload(
    payload: Mapping[str, Any],
    expected_digest: str | None,
    stored_digest: str | None,
    label: str = "cache",
) -> None:
    """Validate a disk-cache payload's integrity digest.

    The persistent caches store a content hash next to every payload;
    loading recomputes it.  A mismatch means on-disk tampering or
    corruption that still parsed as JSON — under the sanitizer this is
    an error rather than a silent cache miss, because a corrupt shared
    cache directory usually indicates a bug worth surfacing (partial
    writes are already impossible by the atomic-rename protocol).
    """
    if not _enabled:
        return
    if stored_digest is None or expected_digest is None:
        return
    if stored_digest != expected_digest:
        raise _violation(
            "cache-digest",
            f"{label} payload digest mismatch "
            f"(stored {stored_digest[:12]}..., recomputed {expected_digest[:12]}...)",
            {
                "label": label,
                "stored": stored_digest,
                "recomputed": expected_digest,
                "keys": sorted(payload),
            },
        )
