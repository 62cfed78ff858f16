"""Markov-chain substrate: CTMC/DTMC construction, steady-state and
transient solvers.

This package is the numerical foundation of the SC-Share reproduction:

- :mod:`repro.markov.state_space` — bijective mapping between structured
  state tuples and dense indices, with reachability exploration.
- :mod:`repro.markov.ctmc` / :mod:`repro.markov.dtmc` — sparse chain
  containers with validation.
- :mod:`repro.markov.solvers` — steady-state solvers (sparse LU,
  Jacobi-preconditioned BiCGSTAB, power iteration on the uniformized
  chain).
- :mod:`repro.markov.uniformization` — transient distributions via
  uniformization with Fox–Glynn truncation of the Poisson weights.
- :mod:`repro.markov.birth_death` — analytic birth–death solutions used as
  ground truth in tests and as the Sect. III-A no-sharing model substrate.
"""

from repro.markov.birth_death import BirthDeathChain
from repro.markov.ctmc import CTMC, TransitionList
from repro.markov.dtmc import DTMC
from repro.markov.fox_glynn import FoxGlynnWeights, fox_glynn
from repro.markov.solvers import (
    steady_state,
    steady_state_bicgstab,
    steady_state_direct,
    steady_state_power,
)
from repro.markov.state_space import StateSpace, explore
from repro.markov.uniformization import transient_distribution, uniformize

__all__ = [
    "BirthDeathChain",
    "CTMC",
    "DTMC",
    "FoxGlynnWeights",
    "StateSpace",
    "TransitionList",
    "explore",
    "fox_glynn",
    "steady_state",
    "steady_state_bicgstab",
    "steady_state_direct",
    "steady_state_power",
    "transient_distribution",
    "uniformize",
]
