"""Persistent on-disk cache of performance-model solutions.

Performance parameters depend only on the performance-relevant scenario
content — per-SC VM counts, arrival/service rates, SLA bounds — the
sharing vector, and the model (type and tolerances).  They never depend
on prices or SC names.  The cache keys on a content hash of exactly those
inputs, so a populated cache survives renames, price sweeps, process
restarts, and concurrent writers.

Two views over one store:

- :class:`DiskParamsCache` — a ``MutableMapping`` from sharing vectors to
  per-SC parameter lists, a drop-in persistent extension of the
  in-memory ``ParamsCache`` consumed by
  :class:`repro.market.evaluator.UtilityEvaluator`;
- :class:`CachedModel` — wraps any :class:`~repro.perf.base.PerformanceModel`
  so that ``evaluate`` / ``evaluate_target`` calls (the shape the fig6
  validation harness uses) hit the same store.

Writes are atomic (temp file + ``os.replace``), so concurrent writers —
process-pool workers sharing one ``--cache-dir`` — can never interleave
partial JSON; a corrupt or foreign file is treated as a miss and
removed, then rewritten by the next solve.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Iterator, Mapping, MutableMapping, Sequence
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
from repro.runtime.memo import LRUCache

#: Bump when the payload layout changes; older entries become misses.
#: Version 2 added the mandatory ``digest`` content hash.
CACHE_FORMAT_VERSION = 2

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


def scenario_fingerprint(
    scenario: FederationScenario, include_sharing: bool = True
) -> str:
    """Content hash of a scenario's performance-relevant fields.

    Args:
        scenario: the federation.
        include_sharing: include the sharing vector (``False`` gives the
            base fingerprint that :class:`DiskParamsCache` combines with
            per-key sharing vectors).
    """
    payload: dict = {
        "clouds": [
            [getattr(cloud, field) for field in _PERF_FIELDS] for cloud in scenario
        ]
    }
    if include_sharing:
        payload["sharing"] = list(scenario.sharing_vector())
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

    def keys(self) -> list[str]:
        """Hash keys of all entries currently on disk."""
        return sorted(path.stem for path in self.root.glob("*.json"))

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


class DiskParamsCache(MutableMapping):
    """Persistent ``ParamsCache``: sharing vector -> per-SC parameters.

    A drop-in for the in-memory dictionary
    :class:`repro.market.evaluator.UtilityEvaluator` keeps — pass an
    instance as ``params_cache`` and every solved sharing vector persists
    to ``root``.  An in-memory :class:`~repro.runtime.memo.LRUCache`
    fronts the disk store, so repeated hits inside one run cost a dict
    lookup; long equilibrium searches can bound it with ``memory_size``.

    Entries are namespaced by the scenario's base fingerprint and the
    model fingerprint: caches for different federations, tolerances, or
    model types share a directory without collisions.

    Args:
        root: cache directory (created if missing).
        scenario: the federation the cached parameters describe (prices
            and the scenario's own sharing values are irrelevant).
        model: the model producing the parameters.
        memory_size: capacity of the in-memory front (``None`` for
            unbounded).  Evicted entries are still on disk, so bounding
            only trades lookup latency for memory.
        namespace: optional extra namespace component mixed into every
            key and payload.  The scenario library passes the scenario's
            content hash here (``scenario:<hash>``) so runs of different
            library entries that happen to share performance-relevant
            fields still keep disjoint cache populations.
    """

    def __init__(
        self,
        root: str | Path,
        scenario: FederationScenario,
        model: PerformanceModel,
        memory_size: int | None = None,
        namespace: str | None = None,
    ) -> None:
        require(
            isinstance(scenario, FederationScenario),
            f"scenario must be a FederationScenario, got {type(scenario).__name__}",
        )
        require(
            isinstance(model, PerformanceModel),
            f"model must be a PerformanceModel, got {type(model).__name__}",
        )
        self._store = DiskCache(root)
        self._scenario_key = scenario_fingerprint(  # fingerprint-input: _hash
            scenario, include_sharing=False
        )
        self._model_key = model_fingerprint(model)  # fingerprint-input: _hash
        self._namespace = str(namespace) if namespace else ""  # fingerprint-input: _hash
        self._size = len(scenario)
        self._memory: LRUCache[tuple[int, ...], list[PerformanceParams]] = LRUCache(
            maxsize=memory_size, name="runtime.params_memory"
        )

    def _hash(self, sharing: tuple[int, ...]) -> str:
        blob = json.dumps(
            {
                "kind": "params",
                "scenario": self._scenario_key,
                "model": self._model_key,
                "namespace": self._namespace,
                "sharing": list(sharing),
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:40]

    def _normalize(self, key: Sequence[int]) -> tuple[int, ...]:
        return tuple(int(s) for s in key)

    def _namespace_matches(self, payload: Mapping[str, Any], sharing: tuple[int, ...]) -> bool:
        return (
            payload.get("kind") == "params"
            and payload.get("scenario") == self._scenario_key
            and payload.get("model") == self._model_key
            and payload.get("namespace", "") == self._namespace
            and payload.get("sharing") == list(sharing)
        )

    def __getitem__(self, key: Sequence[int]) -> list[PerformanceParams]:
        sharing = self._normalize(key)
        cached = self._memory.get(sharing)
        if cached is not None:
            return cached
        payload = self._store.load(self._hash(sharing))
        if payload is None:
            raise KeyError(sharing)
        if not self._namespace_matches(payload, sharing):
            # The entry parsed and passed its digest but describes a
            # different scenario/model/sharing vector — a renamed or
            # copied file.  Reject it rather than deserialize foreign
            # parameters into this run.
            if sanitize.sanitize_enabled():
                raise sanitize.InvariantViolation(
                    "cache-namespace",
                    "cache entry does not match the requested "
                    f"scenario/model/sharing {sharing}",
                    {
                        "sharing": sharing,
                        "payload_kind": payload.get("kind"),
                        "payload_sharing": payload.get("sharing"),
                    },
                )
            self._store.discard(self._hash(sharing))
            raise KeyError(sharing)
        params = _decode_params(payload)
        if params is None or len(params) != self._size:
            self._store.discard(self._hash(sharing))
            raise KeyError(sharing)
        if sanitize.sanitize_enabled():
            for i, entry in enumerate(params):
                sanitize.check_params(entry, label=f"cache-params[{sharing}][{i}]")
        self._memory.put(sharing, params)
        return params

    def __setitem__(self, key: Sequence[int], value: list[PerformanceParams]) -> None:
        from repro.core.serialization import params_to_dict

        sharing = self._normalize(key)
        self._memory.put(sharing, list(value))
        self._store.store(
            self._hash(sharing),
            {
                "kind": "params",
                "scenario": self._scenario_key,
                "model": self._model_key,
                "namespace": self._namespace,
                "sharing": list(sharing),
                "params": [params_to_dict(p) for p in value],
            },
        )

    def __delitem__(self, key: Sequence[int]) -> None:
        sharing = self._normalize(key)
        in_memory = self._memory.pop(sharing)
        on_disk = self._store.discard(self._hash(sharing))
        if in_memory is None and not on_disk:
            raise KeyError(sharing)

    def _disk_keys(self) -> list[tuple[int, ...]]:
        found = []
        for key in self._store.keys():
            payload = self._store.load(key)
            if (
                payload is not None
                and payload.get("kind") == "params"
                and payload.get("scenario") == self._scenario_key
                and payload.get("model") == self._model_key
                and payload.get("namespace", "") == self._namespace
                and isinstance(payload.get("sharing"), list)
            ):
                found.append(tuple(int(s) for s in payload["sharing"]))
        return found

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        mem_keys = self._memory.keys()
        seen = set(mem_keys)
        yield from mem_keys
        for sharing in self._disk_keys():
            if sharing not in seen:
                seen.add(sharing)
                yield sharing

    def __len__(self) -> int:
        return len(set(self._memory.keys()) | set(self._disk_keys()))


class CachedModel(PerformanceModel):
    """A persistent read-through cache around any performance model.

    ``evaluate`` and ``evaluate_target`` consult the store before
    delegating; misses are solved by the wrapped model and written back.
    Wrapping changes nothing observable but latency: cached entries are
    the exact floats the wrapped model produced.

    Attributes:
        hits: store hits served so far.
        misses: delegated solves so far.
    """

    def __init__(self, model: PerformanceModel, cache: DiskCache | str | Path) -> None:
        require(
            isinstance(model, PerformanceModel),
            f"model must be a PerformanceModel, got {type(model).__name__}",
        )
        self.model = model  # fingerprint-input: _hash
        self.store = cache if isinstance(cache, DiskCache) else DiskCache(cache)
        self.hits = 0
        self.misses = 0

    def _hash(self, scenario: FederationScenario, target: int | None) -> str:
        blob = json.dumps(
            {
                "kind": "model",
                "scenario": scenario_fingerprint(scenario),
                "model": model_fingerprint(self.model),
                "target": target,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:40]

    def evaluate(self, scenario: FederationScenario) -> list[PerformanceParams]:
        from repro.core.serialization import params_to_dict

        key = self._hash(scenario, target=None)
        payload = self.store.load(key)
        if payload is not None:
            params = _decode_params(payload)
            if params is not None and len(params) == len(scenario):
                self.hits += 1
                obs.inc("runtime.cached_model.hit")
                return params
            self.store.discard(key)
        params = self.model.evaluate(scenario)
        self.misses += 1
        obs.inc("runtime.cached_model.miss")
        self.store.store(key, {"params": [params_to_dict(p) for p in params]})
        return params

    def evaluate_target(
        self,
        scenario: FederationScenario,
        target: int | None = None,
    ) -> PerformanceParams:
        from repro.core.serialization import params_to_dict

        index = len(scenario) - 1 if target is None else int(target)
        key = self._hash(scenario, target=index)
        payload = self.store.load(key)
        if payload is not None:
            params = _decode_params(payload)
            if params is not None and len(params) == 1:
                self.hits += 1
                obs.inc("runtime.cached_model.hit")
                return params[0]
            self.store.discard(key)
        result = self.model.evaluate_target(scenario, index)
        self.misses += 1
        obs.inc("runtime.cached_model.miss")
        self.store.store(key, {"params": [params_to_dict(result)]})
        return result
