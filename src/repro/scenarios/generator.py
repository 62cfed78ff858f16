"""Deterministic scenario-library generator.

``generate_library(seed)`` emits 141 scenarios across eight families that
deliberately leave the paper's symmetric comfort zone:

=========  ==  ===========================================================
hetero     30  heterogeneous SC sizes (5–100 VMs) and SLAs, Poisson/exp
price      25  asymmetric price grids: per-SC public prices and ratios
diurnal    15  two-phase MMPP demand alternating low/high (day/night)
bursty     15  two-phase MMPP with rare, intense bursts (flash crowds)
heavytail  15  non-exponential service: Erlang, explicit H2, PH-fitted
mixed      20  combinations of all of the above
largek      9  federation scale: K in {20, 50, 100}, few active sharers
failure    12  injected outage/limplock/flash-crowd windows (robustness)
=========  ==  ===========================================================

Every draw flows from ``numpy.random.SeedSequence([seed, family, index])``
— no wall-clock, no unseeded randomness — so the same seed always yields
the same library, byte for byte, and the library digest in the committed
manifest is reproducible anywhere.  Derived quantities (MMPP phase rates,
H2 branches) are computed from the drawn values in closed form so the
schema's demand-consistency validation holds by construction.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from repro.core.small_cloud import SmallCloud
from repro.runtime.seeding import derive_seed
from repro.scenarios.schema import SCHEMA_VERSION, RunConfig, ScenarioSpec
from repro.sim.failures import FailureWindow
from repro.workload.profiles import ArrivalSpec, DemandProfile, ServiceSpec

#: Master seed of the committed library (the paper's publication date).
DEFAULT_SEED = 20170605

#: Family name -> (stable id used in seed derivation, scenario count).
FAMILIES: dict[str, tuple[int, int]] = {
    "hetero": (1, 30),
    "price": (2, 25),
    "diurnal": (3, 15),
    "bursty": (4, 15),
    "heavytail": (5, 15),
    "mixed": (6, 20),
    "largek": (7, 9),
    "failure": (8, 12),
}

#: Failure classes the ``failure`` family cycles through (4 draws each;
#: the last scenario of each cycle block compounds two classes).
_FAILURE_KINDS = ("outage", "limplock", "flash_crowd")

#: Federation sizes the ``largek`` family cycles through (3 draws each).
_LARGEK_SIZES = (20, 50, 100)

_VM_SIZES = (5, 10, 20, 40, 100)
_SLA_BOUNDS = (0.1, 0.2, 0.5)


def _rng(seed: int, family_id: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, family_id, index]))


def _round(value: float, digits: int = 3) -> float:
    return round(float(value), digits)


def _draw_cloud(
    rng: np.random.Generator,
    name: str,
    vms: int,
    # The fig7 price level: keeps equilibrium utilities above 1 so the
    # log-welfare at alpha=1 stays finite (see bench.scenarios.fig7_scenario).
    public_price: float = 10.0,
    federation_price: float = 5.0,
    sla_bound: float | None = None,
) -> SmallCloud:
    """One SC at a drawn utilization in [0.5, 0.92)."""
    utilization = _round(rng.uniform(0.5, 0.92))
    arrival = _round(max(utilization * vms, 0.05))
    bound = sla_bound if sla_bound is not None else float(rng.choice(_SLA_BOUNDS))
    shared = int(rng.integers(0, vms // 4 + 1))
    return SmallCloud(
        name=name,
        vms=vms,
        arrival_rate=arrival,
        sla_bound=bound,
        public_price=public_price,
        federation_price=federation_price,
        shared_vms=shared,
    )


def _run_config(
    rng: np.random.Generator,
    seed: int,
    name: str,
    max_vms: int,
    alphas: tuple[float, ...] = (0.0, 1.0),
    model: str = "pooled",
) -> RunConfig:
    """Deterministic run config; strategy grids stay <= 6 points per SC.

    Families with drawn (possibly low) price levels pin ``alphas`` to
    utilitarian scoring, where small utilities cannot push the welfare
    to ``-inf``.  ``model`` keeps the same draw order for every family:
    it is applied after the rng consumption, so overriding it never
    shifts another family's digests.  The two discarded draws once chose
    the schema-v1 ``backend`` and ``workers`` fields; consuming them keeps
    every later draw (clouds, demand, failures, gamma, alpha) unchanged.
    """
    rng.choice(3)
    rng.random()
    return RunConfig(
        seed=derive_seed(seed, name),
        model=model,
        gamma=float(rng.choice((0.0, 1.0))),
        alpha=float(rng.choice(alphas)),
        strategy_step=max(1, max_vms // 5),
        horizon=2_000.0,
    )


def _diurnal_arrival(rng: np.random.Generator, mean_rate: float) -> ArrivalSpec:
    """Two-phase day/night MMPP with symmetric switching (mean preserved)."""
    delta = _round(rng.uniform(0.2, 0.6))
    low = mean_rate * (1.0 - delta)
    high = 2.0 * mean_rate - low
    switch = _round(rng.uniform(0.005, 0.05), 4)
    return ArrivalSpec(
        kind="mmpp",
        rates=(low, high),
        transitions=((-switch, switch), (switch, -switch)),
    )


def _bursty_arrival(rng: np.random.Generator, mean_rate: float) -> ArrivalSpec:
    """Two-phase base/burst MMPP: rare bursts at a multiple of the base rate."""
    multiplier = _round(rng.uniform(3.0, 8.0))
    burst_fraction = _round(rng.uniform(0.02, 0.1))
    base = mean_rate / (1.0 + burst_fraction * (multiplier - 1.0))
    burst = base * multiplier
    exit_burst = _round(rng.uniform(0.5, 2.0))  # 1 / mean burst duration
    enter_burst = exit_burst * burst_fraction / (1.0 - burst_fraction)
    return ArrivalSpec(
        kind="mmpp",
        rates=(base, burst),
        transitions=((-enter_burst, enter_burst), (exit_burst, -exit_burst)),
    )


def _heavytail_service(rng: np.random.Generator, service_rate: float) -> ServiceSpec:
    """Non-exponential service: Erlang, PH-fit by SCV, or explicit H2."""
    pick = rng.random()
    if pick < 0.3:
        return ServiceSpec(kind="erlang", stages=int(rng.integers(2, 6)))
    scv = _round(rng.uniform(2.0, 12.0))
    if pick < 0.65:
        return ServiceSpec(kind="phase-fit", scv=scv)
    # Balanced-means H2 (same construction as the PH fitter), explicit.
    ratio = float(np.sqrt((scv - 1.0) / (scv + 1.0)))
    p1 = 0.5 * (1.0 + ratio)
    p2 = 1.0 - p1
    return ServiceSpec(
        kind="hyperexponential",
        probabilities=(p1, p2),
        rates=(2.0 * p1 * service_rate, 2.0 * p2 * service_rate),
    )


def _asymmetric_prices(rng: np.random.Generator) -> tuple[float, float]:
    public = _round(rng.uniform(2.0, 12.0), 2)
    ratio = _round(rng.uniform(0.2, 0.9))
    return public, _round(public * ratio)


def _gen_hetero(rng: np.random.Generator, seed: int, index: int) -> ScenarioSpec:
    name = f"hetero-{index:03d}"
    k = int(rng.integers(2, 7))
    sizes = [int(rng.choice(_VM_SIZES)) for _ in range(k)]
    clouds = tuple(_draw_cloud(rng, f"sc{i + 1}", sizes[i]) for i in range(k))
    return ScenarioSpec(
        name=name,
        family="hetero",
        description=f"{k} SCs with heterogeneous sizes {sizes} and SLAs",
        clouds=clouds,
        run=_run_config(rng, seed, name, max(sizes)),
    )


def _gen_price(rng: np.random.Generator, seed: int, index: int) -> ScenarioSpec:
    name = f"price-{index:03d}"
    k = int(rng.integers(2, 6))
    vms = int(rng.choice((10, 20)))
    clouds = []
    for i in range(k):
        public, federation = _asymmetric_prices(rng)
        clouds.append(
            _draw_cloud(
                rng, f"sc{i + 1}", vms, public_price=public, federation_price=federation
            )
        )
    return ScenarioSpec(
        name=name,
        family="price",
        description=f"{k} SCs with asymmetric public/federation price grids",
        clouds=tuple(clouds),
        run=_run_config(rng, seed, name, vms, alphas=(0.0,)),
    )


def _gen_diurnal(rng: np.random.Generator, seed: int, index: int) -> ScenarioSpec:
    name = f"diurnal-{index:03d}"
    k = int(rng.integers(2, 5))
    vms = int(rng.choice((10, 20)))
    clouds = tuple(_draw_cloud(rng, f"sc{i + 1}", vms) for i in range(k))
    demand = tuple(
        DemandProfile(arrival=_diurnal_arrival(rng, c.arrival_rate)) for c in clouds
    )
    return ScenarioSpec(
        name=name,
        family="diurnal",
        description=f"{k} SCs under two-phase diurnal MMPP demand",
        clouds=clouds,
        demand=demand,
        run=_run_config(rng, seed, name, vms),
    )


def _gen_bursty(rng: np.random.Generator, seed: int, index: int) -> ScenarioSpec:
    name = f"bursty-{index:03d}"
    k = int(rng.integers(2, 5))
    vms = int(rng.choice((10, 20)))
    clouds = tuple(_draw_cloud(rng, f"sc{i + 1}", vms) for i in range(k))
    demand = tuple(
        DemandProfile(arrival=_bursty_arrival(rng, c.arrival_rate)) for c in clouds
    )
    return ScenarioSpec(
        name=name,
        family="bursty",
        description=f"{k} SCs under bursty MMPP demand (rare flash crowds)",
        clouds=clouds,
        demand=demand,
        run=_run_config(rng, seed, name, vms),
    )


def _gen_heavytail(rng: np.random.Generator, seed: int, index: int) -> ScenarioSpec:
    name = f"heavytail-{index:03d}"
    k = int(rng.integers(2, 5))
    vms = int(rng.choice((10, 20)))
    clouds = tuple(_draw_cloud(rng, f"sc{i + 1}", vms) for i in range(k))
    demand = tuple(
        DemandProfile(service=_heavytail_service(rng, c.service_rate)) for c in clouds
    )
    return ScenarioSpec(
        name=name,
        family="heavytail",
        description=f"{k} SCs with non-exponential (Erlang/H2/PH) service",
        clouds=clouds,
        demand=demand,
        run=_run_config(rng, seed, name, vms),
    )


def _gen_mixed(rng: np.random.Generator, seed: int, index: int) -> ScenarioSpec:
    name = f"mixed-{index:03d}"
    k = int(rng.integers(2, 6))
    clouds = []
    demand = []
    for i in range(k):
        vms = int(rng.choice(_VM_SIZES[:4]))
        public, federation = _asymmetric_prices(rng)
        cloud = _draw_cloud(
            rng, f"sc{i + 1}", vms, public_price=public, federation_price=federation
        )
        clouds.append(cloud)
        arrival_pick = rng.random()
        if arrival_pick < 0.4:
            arrival = ArrivalSpec()
        elif arrival_pick < 0.7:
            arrival = _diurnal_arrival(rng, cloud.arrival_rate)
        else:
            arrival = _bursty_arrival(rng, cloud.arrival_rate)
        if rng.random() < 0.5:
            service = ServiceSpec()
        else:
            service = _heavytail_service(rng, cloud.service_rate)
        demand.append(DemandProfile(arrival=arrival, service=service))
    return ScenarioSpec(
        name=name,
        family="mixed",
        description=f"{k} SCs mixing size, price, demand and service heterogeneity",
        clouds=tuple(clouds),
        demand=tuple(demand),
        run=_run_config(rng, seed, name, max(c.vms for c in clouds), alphas=(0.0,)),
    )


def _gen_largek(rng: np.random.Generator, seed: int, index: int) -> ScenarioSpec:
    """Federation scale without state-space scale.

    K grows to 100 SCs, but only a handful of leading SCs share (unit
    shares), so every hierarchical level's pool — which is what the
    per-level state space grows with — stays bounded while the chain
    length tracks K.  This is the regime the level-prefix memo serves
    best (rotations and drifts rebuild only a chain suffix), so run
    configs pin the approximate model — the tier the memo accelerates.
    The pooled model is NOT a cheap stand-in here: its borrower fixed
    point couples all K clouds to one small pool and stops contracting
    when K far exceeds the pool (the damped map plus df-sane fallback
    leaves residuals of ~1e-2 at K=100).  Full market games at this scale are deliberately outside
    the CI smoke sweep (``smoke_subset`` defers K>10 federations to the
    ``kscale-smoke`` job) and are long-haul interactively too — a K=20
    game is tens of minutes on one core.  The fast surfaces for this
    family are ``run --mode simulate`` (the event simulator is cheap at
    any K), single ``evaluate`` calls through ``repro.bench.kscale``,
    and the ``ksweep10``/``ksweep20`` differential matrices.
    """
    name = f"largek-{index:03d}"
    k = _LARGEK_SIZES[index % len(_LARGEK_SIZES)]
    vms = int(rng.choice((3, 4)))
    sharers = int(rng.integers(3, 7))
    clouds = tuple(
        SmallCloud(
            name=f"sc{i + 1:03d}",
            vms=vms,
            arrival_rate=_round(vms * rng.uniform(0.45, 0.7)),
            sla_bound=3.0,
            public_price=10.0,
            federation_price=5.0,
            shared_vms=1 if i < sharers else 0,
        )
        for i in range(k)
    )
    return ScenarioSpec(
        name=name,
        family="largek",
        description=(
            f"{k} SCs, {sharers} active unit sharers - "
            "chain-length scaling with bounded pools"
        ),
        clouds=clouds,
        run=_run_config(rng, seed, name, vms, model="approximate"),
    )


def _draw_window(
    rng: np.random.Generator, kind: str, sc: int, horizon: float
) -> FailureWindow:
    """One failure window well inside the measured span of ``horizon``."""
    start = _round(rng.uniform(0.15, 0.5) * horizon)
    duration = _round(rng.uniform(0.1, 0.25) * horizon)
    factor = 1.0
    if kind == "limplock":
        factor = _round(rng.uniform(2.0, 6.0))
    elif kind == "flash_crowd":
        factor = _round(rng.uniform(1.5, 4.0))
    return FailureWindow(
        kind=kind, sc=sc, start=start, end=_round(start + duration), factor=factor
    )


def _gen_failure(rng: np.random.Generator, seed: int, index: int) -> ScenarioSpec:
    """Robustness probes: healthy federations with injected failures.

    Cycles outage -> limplock -> flash_crowd; every fourth scenario
    compounds two different classes on two different SCs (a partner dies
    *while* another is limping, the hard case for the borrowing market).
    """
    name = f"failure-{index:03d}"
    k = int(rng.integers(3, 6))
    vms = int(rng.choice((10, 20)))
    clouds = tuple(
        _draw_cloud(rng, f"sc{i + 1}", vms, sla_bound=0.5) for i in range(k)
    )
    horizon = 2_000.0
    kind = _FAILURE_KINDS[index % 3]
    target = int(rng.integers(0, k))
    windows = [_draw_window(rng, kind, target, horizon)]
    compound = index % 4 == 3
    if compound:
        other_kind = _FAILURE_KINDS[(index + 1) % 3]
        other_sc = int(rng.integers(0, k - 1))
        if other_sc >= target:
            other_sc += 1
        windows.append(_draw_window(rng, other_kind, other_sc, horizon))
    kinds = "+".join(sorted({w.kind for w in windows}))
    return ScenarioSpec(
        name=name,
        family="failure",
        description=f"{k} SCs under injected {kinds} windows (robustness probe)",
        clouds=clouds,
        failures=tuple(windows),
        run=_run_config(rng, seed, name, vms, alphas=(0.0,)),
    )


_GENERATORS = {
    "hetero": _gen_hetero,
    "price": _gen_price,
    "diurnal": _gen_diurnal,
    "bursty": _gen_bursty,
    "heavytail": _gen_heavytail,
    "mixed": _gen_mixed,
    "largek": _gen_largek,
    "failure": _gen_failure,
}


def generate_library(seed: int = DEFAULT_SEED) -> tuple[ScenarioSpec, ...]:
    """Generate the full scenario library for ``seed`` (always validated)."""
    specs: list[ScenarioSpec] = []
    for family, (family_id, count) in FAMILIES.items():
        build = _GENERATORS[family]
        for index in range(count):
            specs.append(build(_rng(seed, family_id, index), seed, index))
    return tuple(specs)


def library_digest(specs: tuple[ScenarioSpec, ...] | list[ScenarioSpec]) -> str:
    """Stable digest of a library: sha256 over sorted ``name:hash`` lines."""
    lines = sorted(f"{spec.name}:{spec.content_hash()}" for spec in specs)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def library_manifest(
    specs: tuple[ScenarioSpec, ...] | list[ScenarioSpec], seed: int = DEFAULT_SEED
) -> dict[str, Any]:
    """The manifest committed alongside the generator (and checked in CI)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "count": len(specs),
        "digest": library_digest(specs),
        "scenarios": [
            {
                "name": spec.name,
                "family": spec.family,
                "k": len(spec.clouds),
                "hash": spec.content_hash(),
            }
            for spec in sorted(specs, key=lambda s: s.name)
        ],
    }
