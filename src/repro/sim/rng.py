"""Reproducible random-number streams.

Each stochastic component of a simulation (arrivals per SC, service times
per SC, tie-breaking) gets its own independent :class:`numpy.random.Generator`
derived from one master seed via ``SeedSequence.spawn``.  This gives:

- reproducibility: the same seed always produces the same sample path;
- common random numbers: changing one component (say, a sharing decision)
  does not perturb the draws of unrelated components, which sharpens
  comparisons between scenarios.

RNG stream mapping (pre-drawn blocks)
------------------------------------

The simulator pre-draws randomness in NumPy blocks instead of one
scalar call per event.  Only the draws are blocked: the engine still
schedules each event on its one heap as a draw is consumed.
Replications stay seed-deterministic because a block draw consumes a
generator's bit stream in exactly the order the scalar calls would —
NumPy fills an array by repeating the same scalar routine over the
stream — so for every stream the mapping is:

- ``Generator.exponential(scale)`` repeated n times
  == ``Generator.standard_exponential(n)`` element-wise ``* scale``
  (``exponential`` is defined as ``standard_exponential() * scale``, the
  same double multiply :class:`ExponentialBlock` performs);
- ``Generator.random()`` repeated n times == ``Generator.random(n)``
  (one 53-bit double per call, :class:`UniformBlock`).

A block is held as the Python list ``ndarray.tolist()`` returns: each
float64 converts to the Python float of the same bits, so serving
``buffer[i] * scale`` from the list equals ``float(array[i]) * scale``
without a NumPy scalar conversion per draw.

Variable-argument draws (``integers(n)`` tie-breaking, non-exponential
``sample()``) are *not* blocked: they stay scalar calls on their own
streams.  This per-stream equality is what lets the test suite's scalar
event-heap oracle reproduce the simulator bit for bit; it is pinned by
``tests/sim/test_batched_engine.py`` and the engine-equivalence property
suite.
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


#: Default pre-draw block length.  One NumPy call and one ``tolist`` per
#: 512 draws costs nothing next to the events they feed, and a 512-entry
#: list of Python floats holds about 16 KiB per stream; 4,096 entries
#: would hold about 130 KiB per stream, most of it never drawn in a
#: short run.
DEFAULT_BLOCK = 512


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
        self._buffer: list[float] = rng.standard_exponential(self._block).tolist()
        self._index = 0
        self.refills = 1

    # One call per simulated arrival/service draw.
    def next(self, scale: float) -> float:
        """The next variate, distributed ``Exponential(mean=scale)``."""
        index = self._index
        if index >= self._block:
            self._buffer = self._rng.standard_exponential(self._block).tolist()
            self.refills += 1
            index = 0
        self._index = index + 1
        return self._buffer[index] * scale


class UniformBlock:
    """Block-buffered uniform draws over one generator.

    ``next()`` returns exactly what ``generator.random()`` would (one
    53-bit double per call), served from a pre-drawn block.
    """

    __slots__ = ("_rng", "_block", "_buffer", "_index", "refills")

    def __init__(self, rng: np.random.Generator, block: int = DEFAULT_BLOCK) -> None:
        self._rng = rng
        self._block = check_positive_int(block, "block")
        self._buffer: list[float] = rng.random(self._block).tolist()
        self._index = 0
        self.refills = 1

    # One call per SLA admission decision.
    def next(self) -> float:
        """The next variate, uniform on [0, 1)."""
        index = self._index
        if index >= self._block:
            self._buffer = self._rng.random(self._block).tolist()
            self.refills += 1
            index = 0
        self._index = index + 1
        return self._buffer[index]
