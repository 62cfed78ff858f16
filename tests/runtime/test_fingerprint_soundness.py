"""Cache-key soundness, checked at run time.

Every market query reads model solves through two caches: the
approximate model's level-prefix LRU (keyed by ``_config_key`` and
``_spec_key``) and :class:`~repro.runtime.cache.CachedModel` on disk
(keyed by the scenario and model fingerprints and the target).  A key
that misses a performance input serves stale parameters into the
market; a key that holds a non-performance input only loses hits.

These tests perturb every ``SmallCloud`` field and every public scalar
of each model in :data:`~repro.scenarios.schema.MODELS`, and compare
the outputs (``float.hex``) with the keys:

- a field outside ``_PERF_FIELDS`` and ``shared_vms`` leaves the
  outputs and the ``CachedModel`` key unchanged;
- a perturbation that changes the outputs changes the key, and a warm
  model or cache serves it the fresh result;
- a config attribute set after a solve gives the result of a fresh
  model built with that value (the level cache re-keys);
- every digest the caches, sweeps and benchmarks pin changes with its
  input.

A new ``SmallCloud`` field or model attribute fails here until it is
given a perturbation in the tables below.
"""

import dataclasses
import functools
import math

import pytest

from repro.bench.kscale import _params_digestable
from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.perf.params import PerformanceParams
from repro.runtime.cache import _PERF_FIELDS, CachedModel, payload_digest
from repro.scenarios.generator import library_digest
from repro.scenarios.runner import make_model, observables_digest
from repro.scenarios.schema import MODELS, ScenarioSpec

BASE = FederationScenario(
    (
        SmallCloud("a", vms=2, arrival_rate=1.2, shared_vms=1),
        SmallCloud("b", vms=2, arrival_rate=1.5, shared_vms=1),
    )
)

#: A valid new value for each ``SmallCloud`` field, applied to one SC.
CLOUD_PERTURBATIONS = {
    "name": "renamed",
    "vms": 3,
    "arrival_rate": 1.7,
    "service_rate": 1.25,
    "sla_bound": 0.5,
    "public_price": 2.0,
    "federation_price": 0.25,
    "shared_vms": 2,
}

#: A new value for each public scalar of each model, large enough to
#: move its outputs on ``BASE``.
MODEL_PERTURBATIONS = {
    "pooled": {
        "damping": 0.5,
        "tolerance": 1e-2,
        "max_iterations": 2,
        "tail_epsilon": 1e-2,
    },
    "approximate": {
        "tail_epsilon": 1e-3,
        "transient_epsilon": 1e-2,
        "outcome_threshold": 1e-2,
        "max_outcomes": 2,
    },
}

#: The fields a performance model may read.
PERF_FIELDS = frozenset(_PERF_FIELDS) | {"shared_vms"}

CLOUD_FIELDS = [f.name for f in dataclasses.fields(SmallCloud)]


def _scalars(model):
    """The model's public scalar attributes."""
    return {
        name: value
        for name, value in vars(model).items()
        if not name.startswith("_") and isinstance(value, (bool, int, float, str))
    }


def _model(name, overrides=()):
    """A fresh model called ``name`` with ``overrides`` applied at construction."""
    model = make_model(name)
    return type(model)(**{**_scalars(model), **dict(overrides)})


def _model_cases():
    return [(name, attr) for name in MODELS for attr in _scalars(make_model(name))]


def _model_override(name, attr):
    """``((attr, new value),)``, the override of one model scalar."""
    value = MODEL_PERTURBATIONS.get(name, {}).get(attr)
    if value is None:
        pytest.fail(f"give {name}.{attr} a perturbation in MODEL_PERTURBATIONS")
    return ((attr, value),)


def _perturbed(index, field):
    if field not in CLOUD_PERTURBATIONS:
        pytest.fail(f"give SmallCloud.{field} a perturbation in CLOUD_PERTURBATIONS")
    clouds = list(BASE.clouds)
    clouds[index] = dataclasses.replace(clouds[index], **{field: CLOUD_PERTURBATIONS[field]})
    return FederationScenario(tuple(clouds))


def _hex(params):
    return tuple(
        tuple(float(getattr(p, f.name)).hex() for f in dataclasses.fields(p)) for p in params
    )


@functools.lru_cache(maxsize=None)
def _fresh(name, overrides, scenario, target=None):
    """Outputs of a cold model: ``evaluate``, or ``evaluate_target``."""
    model = _model(name, overrides)
    if target is None:
        return _hex(model.evaluate(scenario))
    return _hex([model.evaluate_target(scenario, target)])


def _key(model, scenario, root, target=None):
    wrapper = CachedModel(model, root)
    return wrapper._hash(wrapper._fingerprint(scenario, target))


@pytest.fixture
def root(tmp_path):
    return tmp_path / "cache"


@pytest.mark.parametrize("index", range(len(BASE)))
@pytest.mark.parametrize("field", CLOUD_FIELDS)
@pytest.mark.parametrize("name", MODELS)
def test_cloud_field_moves_outputs_and_key_together(name, field, index, root):
    scenario = _perturbed(index, field)
    same_outputs = _fresh(name, (), scenario) == _fresh(name, (), BASE)
    model = _model(name)
    same_key = _key(model, scenario, root) == _key(model, BASE, root)
    if field in PERF_FIELDS:
        assert not same_outputs, "the perturbation does not reach the outputs"
        assert not same_key, f"the cache key ignores SmallCloud.{field}"
    else:
        assert same_outputs, f"SmallCloud.{field} changes the outputs"
        assert same_key, f"the cache key holds SmallCloud.{field}"


@pytest.mark.parametrize(("name", "attr"), _model_cases())
def test_model_scalar_moves_outputs_and_key_together(name, attr, root):
    overrides = _model_override(name, attr)
    assert _fresh(name, overrides, BASE) != _fresh(name, (), BASE), (
        "the perturbation does not reach the outputs"
    )
    assert _key(_model(name, overrides), BASE, root) != _key(_model(name), BASE, root)


@pytest.mark.parametrize("name", MODELS)
def test_each_target_has_its_own_key(name, root):
    model = _model(name)
    keys = [_key(model, BASE, root, target) for target in (None, *range(len(BASE)))]
    assert len(set(keys)) == len(keys)
    assert _fresh(name, (), BASE, 0) != _fresh(name, (), BASE, 1)


@pytest.mark.parametrize(("name", "attr"), _model_cases())
def test_config_set_after_a_solve_matches_a_fresh_model(name, attr):
    overrides = _model_override(name, attr)
    model = _model(name)
    model.evaluate(BASE)  # warms whatever the model keeps between calls
    setattr(model, *overrides[0])
    assert _hex(model.evaluate(BASE)) == _fresh(name, overrides, BASE)
    assert _hex([model.evaluate_target(BASE, 0)]) == _fresh(name, overrides, BASE, 0)


@pytest.mark.parametrize("name", MODELS)
def test_warm_model_and_cache_serve_every_perturbation_fresh(name, root):
    """One model instance sees every scenario in turn, so a stale level
    would be served; one cache directory sees them twice, so a stale
    entry would be."""
    scenarios = [BASE] + [
        _perturbed(index, field) for field in CLOUD_FIELDS for index in range(len(BASE))
    ]
    warm = _model(name)
    cached = CachedModel(_model(name), root)
    for models in ((warm, cached), (cached,)):
        for scenario in scenarios:
            for model in models:
                assert _hex(model.evaluate(scenario)) == _fresh(name, (), scenario)
                for target in range(len(scenario)):
                    assert _hex([model.evaluate_target(scenario, target)]) == _fresh(
                        name, (), scenario, target
                    )
    # Renames and price changes hit the base scenario's entries.
    distinct = 1 + len(BASE) * len(PERF_FIELDS)
    assert cached.misses == distinct * (1 + len(BASE))


def _params(count=2):
    return [
        PerformanceParams(
            lent_mean=0.25 * (i + 1),
            borrowed_mean=0.125 * (i + 1),
            forward_rate=0.5 + i,
            utilization=0.5,
        )
        for i in range(count)
    ]


class TestDigestsSeeTheirInput:
    def test_payload_digest(self):
        payload = {"version": 3, "sharing": [1, 1], "params": [[0.25, 0.5]]}
        digest = payload_digest(payload)
        assert digest == payload_digest(dict(payload))
        assert digest == payload_digest({**payload, "digest": "ignored"})
        for name in payload:
            assert payload_digest({**payload, name: "other"}) != digest, name

    def test_cached_model_hash(self, root):
        fingerprint = CachedModel(_model("pooled"), root)._fingerprint(BASE, None)
        digest = CachedModel._hash(fingerprint)
        assert digest == CachedModel._hash(dict(fingerprint))
        for name in fingerprint:
            assert CachedModel._hash({**fingerprint, name: "other"}) != digest, name

    def test_observables_digest(self):
        observables = {
            "equilibrium": [1, 1],
            "converged": True,
            "welfare": float(0.75).hex(),
            "utilities": [float(0.5).hex(), float(0.25).hex()],
        }
        digest = observables_digest(observables)
        assert digest == observables_digest(dict(observables))
        for name in observables:
            assert observables_digest({**observables, name: "other"}) != digest, name

    def test_library_digest(self):
        specs = [
            ScenarioSpec(name="one", clouds=BASE.clouds),
            ScenarioSpec(name="two", clouds=_perturbed(0, "vms").clouds),
        ]
        digest = library_digest(specs)
        assert digest == library_digest(specs[::-1])
        assert library_digest(specs[:1]) != digest
        changed = [specs[0], dataclasses.replace(specs[1], clouds=BASE.clouds)]
        assert library_digest(changed) != digest

    def test_params_digestable(self):
        params = _params()
        rendering = _params_digestable(params)
        assert rendering == _params_digestable(_params())
        for i in range(len(params)):
            for f in dataclasses.fields(PerformanceParams):
                value = getattr(params[i], f.name)
                moved = list(params)
                moved[i] = dataclasses.replace(
                    params[i], **{f.name: math.nextafter(value, math.inf)}
                )
                assert _params_digestable(moved) != rendering, (i, f.name)
