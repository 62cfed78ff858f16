"""Persistent on-disk cache of performance-model solutions.

Performance parameters depend only on the performance-relevant scenario
content — per-SC VM counts, arrival/service rates, SLA bounds — the
sharing vector, and the model (type and tolerances).  They never depend
on prices or SC names.  The cache keys on a content hash of exactly those
inputs, so a populated cache survives renames, price sweeps, process
restarts, and concurrent writers.

:class:`CachedModel` wraps any :class:`~repro.perf.base.PerformanceModel`
so that ``evaluate`` / ``evaluate_target`` calls consult the store
before solving.  It is the one persistent tier: every ``--cache-dir``
site wraps its model in it, and the
:class:`~repro.market.evaluator.UtilityEvaluator` above keeps a plain
in-memory dict — so the evaluator makes the same model calls, in the
same order and with the same counts, whatever is on disk.

Writes are atomic (temp file + ``os.replace``), so concurrent writers —
process-pool workers sharing one ``--cache-dir`` — can never interleave
partial JSON; a corrupt, stale, or foreign file is treated as a miss and
removed, then rewritten by the next solve.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Callable, Mapping
from pathlib import Path
from typing import Any

from repro import obs
from repro._validation import require
from repro.analysis import sanitize

# ``core.serialization`` imports ``repro.perf``, whose package init pulls
# the approximate model and, through it, ``repro.runtime`` — so a
# module-level import here would close an import cycle whenever
# serialization is imported first (the CLI does).  Import lazily instead.
from repro.core.small_cloud import FederationScenario
from repro.perf.base import PerformanceModel
from repro.perf.params import PerformanceParams

#: Bump when the payload layout changes; older entries become misses.
#: Version 2 added the mandatory ``digest`` content hash; version 3 the
#: identity fields (scenario, model, sharing vector, target) that
#: :class:`CachedModel` checks on every load.
CACHE_FORMAT_VERSION = 3

#: Per-SC fields that determine performance (prices and names do not).
_PERF_FIELDS = ("vms", "arrival_rate", "service_rate", "sla_bound")


def model_fingerprint(model: PerformanceModel) -> str:
    """A stable identity string for a model's type and configuration.

    Scalar public attributes (tolerances, horizons, seeds) are part of
    the identity; non-scalar attributes (executors, wrapped caches) are
    runtime plumbing that cannot change the solution, so they are not.
    """
    config = {
        name: value
        for name, value in sorted(vars(model).items())
        if not name.startswith("_") and isinstance(value, (bool, int, float, str))
    }
    return f"{type(model).__qualname__}:{json.dumps(config, sort_keys=True)}"


def scenario_fingerprint(scenario: FederationScenario) -> str:
    """Content hash of a scenario's performance-relevant fields and its
    sharing vector."""
    payload = {
        "clouds": [
            [getattr(cloud, field) for field in _PERF_FIELDS] for cloud in scenario
        ],
        "sharing": list(scenario.sharing_vector()),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest


def payload_digest(payload: Mapping[str, Any]) -> str:
    """Content hash of a cache payload (the ``digest`` field excluded)."""
    content = {name: value for name, value in payload.items() if name != "digest"}
    return hashlib.sha256(
        json.dumps(content, sort_keys=True).encode("utf-8")
    ).hexdigest()


class DiskCache:
    """Low-level atomic JSON store: hash key -> payload dictionary.

    Holds only its root path, so it pickles cheaply into process-pool
    task payloads; every worker writing into the same directory is safe
    because entries land via ``os.replace``.

    Every payload carries a ``digest`` content hash computed at store
    time.  ``load`` recomputes it and *rejects* payloads whose schema
    version or digest mismatches — a tampered or bit-rotted entry that
    still parses as JSON is a miss (and an
    :class:`~repro.analysis.sanitize.InvariantViolation` when the
    sanitizer is active), never silently deserialized.
    """

    def __init__(self, root: str | Path) -> None:
        require(str(root).strip() != "", "cache root must be a non-empty path")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> dict[str, Any] | None:
        """Payload stored under ``key``, or ``None`` (corrupt, stale, or
        tampered files are discarded so the next solve rewrites them)."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            obs.inc("runtime.disk_cache.miss")
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._discard(path)
            obs.inc("runtime.disk_cache.miss")
            return None
        if not isinstance(payload, dict) or payload.get("version") != CACHE_FORMAT_VERSION:
            self._discard(path)
            obs.inc("runtime.disk_cache.miss")
            return None
        stored = payload.get("digest")
        expected = payload_digest(payload)
        if stored != expected:
            sanitize.check_cache_payload(
                payload,
                expected_digest=expected,
                stored_digest=stored if isinstance(stored, str) else "<missing>",
                label=f"disk-cache[{key}]",
            )
            self._discard(path)
            obs.inc("runtime.disk_cache.miss")
            return None
        obs.inc("runtime.disk_cache.hit")
        return payload

    def store(self, key: str, payload: dict[str, Any]) -> None:
        """Atomically write ``payload`` under ``key`` with its digest."""
        payload = {"version": CACHE_FORMAT_VERSION, **payload}
        payload["digest"] = payload_digest(payload)
        obs.inc("runtime.disk_cache.store")
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key}.", suffix=".tmp", dir=self.root
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            self._discard(Path(tmp_name))
            raise

    def discard(self, key: str) -> bool:
        """Remove the entry for ``key``; returns whether it existed."""
        path = self._path(key)
        existed = path.exists()
        self._discard(path)
        return existed

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


def _decode_params(payload: dict) -> list[PerformanceParams] | None:
    from repro.core.serialization import params_from_dict

    try:
        return [params_from_dict(entry) for entry in payload["params"]]
    except Exception:
        return None


class CachedModel(PerformanceModel):
    """A persistent read-through cache around any performance model.

    ``evaluate`` and ``evaluate_target`` consult the store before
    delegating; misses are solved by the wrapped model and written back.
    Wrapping changes nothing observable but latency: cached entries are
    the exact floats the wrapped model produced.

    Every payload records the identity it was stored under — scenario
    fingerprint, model fingerprint, sharing vector, and target — and a
    load whose identity differs from the request (a renamed or copied
    file) is discarded as a miss, or raises
    :class:`~repro.analysis.sanitize.InvariantViolation` under the
    sanitizer.  Under the sanitizer, loaded parameters also pass
    :func:`~repro.analysis.sanitize.check_params`.

    Attributes:
        hits: store hits served so far.
        misses: delegated solves so far.
    """

    def __init__(self, model: PerformanceModel, cache: DiskCache | str | Path) -> None:
        require(
            isinstance(model, PerformanceModel),
            f"model must be a PerformanceModel, got {type(model).__name__}",
        )
        self.model = model
        self.store = cache if isinstance(cache, DiskCache) else DiskCache(cache)
        self.hits = 0
        self.misses = 0

    def _fingerprint(
        self, scenario: FederationScenario, target: int | None
    ) -> dict[str, Any]:
        """The identity an entry is keyed by and stores in its payload."""
        return {
            "kind": "model",
            "scenario": scenario_fingerprint(scenario),
            "model": model_fingerprint(self.model),
            "sharing": list(scenario.sharing_vector()),
            "target": target,
        }

    @staticmethod
    def _hash(fingerprint: Mapping[str, Any]) -> str:
        blob = json.dumps(fingerprint, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:40]

    def _load(
        self, key: str, fingerprint: Mapping[str, Any], size: int
    ) -> list[PerformanceParams] | None:
        """The ``size`` parameters stored under ``key``, or ``None``
        (entries that are missing, foreign, or undecodable are misses)."""
        payload = self.store.load(key)
        if payload is None:
            return None
        if any(payload.get(name) != value for name, value in fingerprint.items()):
            # The entry parsed and passed its digest but describes a
            # different scenario/model/sharing vector/target — a renamed
            # or copied file.  Reject it rather than deserialize foreign
            # parameters into this run.
            if sanitize.sanitize_enabled():
                raise sanitize.InvariantViolation(
                    "cache-namespace",
                    "cache entry does not match the requested "
                    f"scenario/model/sharing {fingerprint['sharing']}",
                    {
                        "sharing": fingerprint["sharing"],
                        "target": fingerprint["target"],
                        "payload_kind": payload.get("kind"),
                        "payload_sharing": payload.get("sharing"),
                        "payload_target": payload.get("target"),
                    },
                )
            self.store.discard(key)
            return None
        params = _decode_params(payload)
        if params is None or len(params) != size:
            self.store.discard(key)
            return None
        if sanitize.sanitize_enabled():
            for i, entry in enumerate(params):
                sanitize.check_params(
                    entry, label=f"cache-params[{fingerprint['sharing']}][{i}]"
                )
        return params

    def _solve(
        self,
        scenario: FederationScenario,
        target: int | None,
        size: int,
        solve: Callable[[], list[PerformanceParams]],
    ) -> list[PerformanceParams]:
        from repro.core.serialization import params_to_dict

        fingerprint = self._fingerprint(scenario, target)
        key = self._hash(fingerprint)
        params = self._load(key, fingerprint, size)
        if params is not None:
            self.hits += 1
            obs.inc("runtime.cached_model.hit")
            return params
        params = solve()
        self.misses += 1
        obs.inc("runtime.cached_model.miss")
        self.store.store(
            key, {**fingerprint, "params": [params_to_dict(p) for p in params]}
        )
        return params

    @property
    def has_target_path(self) -> bool:
        """Whatever the wrapped model reports."""
        return self.model.has_target_path

    def evaluate(self, scenario: FederationScenario) -> list[PerformanceParams]:
        return self._solve(
            scenario, None, len(scenario), lambda: self.model.evaluate(scenario)
        )

    def evaluate_target(
        self,
        scenario: FederationScenario,
        target: int | None = None,
    ) -> PerformanceParams:
        index = len(scenario) - 1 if target is None else int(target)
        return self._solve(
            scenario,
            index,
            1,
            lambda: [self.model.evaluate_target(scenario, index)],
        )[0]


def cached_model(
    model: PerformanceModel, cache_dir: str | Path | None
) -> PerformanceModel:
    """``model`` behind a :class:`CachedModel` on ``cache_dir``, or
    ``model`` itself when no directory is given."""
    if cache_dir is None:
        return model
    return CachedModel(model, cache_dir)
