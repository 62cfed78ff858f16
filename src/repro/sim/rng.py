"""Reproducible random-number streams.

Each stochastic component of a simulation (arrivals per SC, service times
per SC, tie-breaking) gets its own independent :class:`numpy.random.Generator`
derived from one master seed via ``SeedSequence.spawn``.  This gives:

- reproducibility: the same seed always produces the same sample path;
- common random numbers: changing one component (say, a sharing decision)
  does not perturb the draws of unrelated components, which sharpens
  comparisons between scenarios.

RNG stream mapping (batched stepping)
-------------------------------------

The batched simulator pre-draws randomness in NumPy blocks instead of one
scalar call per event.  Replications stay seed-deterministic because a
block draw consumes a generator's bit stream in exactly the order the
scalar calls would — NumPy fills an array by repeating the same scalar
routine over the stream — so for every stream the mapping is:

- ``Generator.exponential(scale)`` repeated n times
  == ``Generator.standard_exponential(n)`` element-wise ``* scale``
  (``exponential`` is defined as ``standard_exponential() * scale``, the
  same double multiply :class:`ExponentialBlock` performs);
- ``Generator.random()`` repeated n times == ``Generator.random(n)``
  (one 53-bit double per call, :class:`UniformBlock`).

Variable-argument draws (``integers(n)`` tie-breaking, non-exponential
``sample()``) are *not* blocked: both stepping paths issue the identical
scalar calls, in the identical order, on the identical stream.  This
per-stream equality is what makes ``step_mode="batched"`` bit-identical
to the ``event`` reference path, and it is pinned by
``tests/sim/test_rng.py`` and the engine-equivalence property suite.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_non_negative_int, check_positive_int


class RandomStreams:
    """A keyed factory of independent random generators.

    Streams are created lazily and memoized by name, so requesting the
    same name twice returns the same generator object.  Stream identity
    depends on the *order of first request* being deterministic — the
    simulator requests all of its streams up front in a fixed order.
    """

    def __init__(self, seed: int) -> None:
        self.seed = check_non_negative_int(seed, "seed")
        self._sequence = np.random.SeedSequence(self.seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name`` (created on first use)."""
        if name not in self._streams:
            child = self._sequence.spawn(1)[0]
            self._streams[name] = np.random.Generator(np.random.PCG64(child))
        return self._streams[name]

    def names(self) -> list[str]:
        """Names of all streams created so far (in creation order)."""
        return list(self._streams)


#: Default pre-draw block length.  Big enough to amortize the NumPy call
#: overhead to nothing, small enough that an abandoned block wastes only
#: a few KiB of draws.
DEFAULT_BLOCK = 4096


class ExponentialBlock:
    """Block-buffered exponential draws over one generator.

    Wraps a :class:`numpy.random.Generator` and serves
    ``standard_exponential`` variates from a pre-drawn block, scaled per
    draw.  By the stream mapping above, ``next(scale)`` returns exactly
    the value ``generator.exponential(scale)`` would have — same bits —
    while costing a fraction of the scalar call.  The wrapped generator
    must not be drawn from directly while a block is in flight.
    """

    __slots__ = ("_rng", "_block", "_buffer", "_index", "refills")

    def __init__(self, rng: np.random.Generator, block: int = DEFAULT_BLOCK) -> None:
        self._rng = rng
        self._block = check_positive_int(block, "block")
        self._buffer = rng.standard_exponential(self._block)
        self._index = 0
        self.refills = 1

    # One call per simulated arrival/service draw in batched mode.
    def next(self, scale: float) -> float:
        """The next variate, distributed ``Exponential(mean=scale)``."""
        index = self._index
        if index >= self._block:
            self._buffer = self._rng.standard_exponential(self._block)
            self.refills += 1
            index = 0
        self._index = index + 1
        return float(self._buffer[index]) * scale


class UniformBlock:
    """Block-buffered uniform draws over one generator.

    ``next()`` returns exactly what ``generator.random()`` would (one
    53-bit double per call), served from a pre-drawn block.
    """

    __slots__ = ("_rng", "_block", "_buffer", "_index", "refills")

    def __init__(self, rng: np.random.Generator, block: int = DEFAULT_BLOCK) -> None:
        self._rng = rng
        self._block = check_positive_int(block, "block")
        self._buffer = rng.random(self._block)
        self._index = 0
        self.refills = 1

    # One call per SLA admission decision in batched mode.
    def next(self) -> float:
        """The next variate, uniform on [0, 1)."""
        index = self._index
        if index >= self._block:
            self._buffer = self._rng.random(self._block)
            self.refills += 1
            index = 0
        self._index = index + 1
        return float(self._buffer[index])
