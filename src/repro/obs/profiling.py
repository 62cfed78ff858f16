"""Lightweight profiling hooks: per-span cProfile opt-in.

Two entry points:

- :func:`profile_enable` — arm span-level profiling for a set of span
  names.  While armed, entering a matching span starts a
  :class:`cProfile.Profile` and exiting it attaches the top-N rows (by
  cumulative time) to the span's attributes under ``"profile"``.
  ``cProfile`` cannot nest, so at most one profiler runs per process at
  a time; spans that match while another profiler is live are skipped
  (deterministically: the outermost matching span wins).
- :func:`profiled` — a context manager profiling an entire block and
  printing the top-N report to a stream; this backs the ``--profile``
  CLI flag.

Profiling is a per-process debugging aid: it is deliberately *not*
replayed into executor workers (a pool of workers all tracing into one
``cProfile`` would be meaningless), and it is never consulted on the
disabled path — :mod:`repro.obs` only calls in here when the master
switch is on.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from collections.abc import Iterator
from contextlib import contextmanager
from typing import TextIO

from repro._validation import check_positive_int

__all__ = [
    "profile_disable",
    "profile_enable",
    "profiled",
    "profiling_names",
    "top_stats",
]

#: Span names armed for profiling; ``None`` means profiling is off.
_names: frozenset[str] | None = None

#: Top-N rows attached per profiled span.
_top_n: int = 20

#: The one live profiler (cProfile cannot nest).
_live: cProfile.Profile | None = None


def profile_enable(names: frozenset[str] | set[str], top_n: int = 20) -> None:
    """Arm span-level profiling for spans named in ``names``."""
    # Per-process debugging state, toggled once around a run by the CLI
    # or a test; never mutated concurrently with traced work.
    global _names, _top_n
    _top_n = check_positive_int(top_n, "top_n")
    _names = frozenset(names)


def profile_disable() -> None:
    """Disarm span-level profiling."""
    global _names
    _names = None


def profiling_names() -> frozenset[str] | None:
    """The armed span names (``None`` when span profiling is off)."""
    return _names


def maybe_start(name: str) -> cProfile.Profile | None:
    """Start a profiler for span ``name`` if armed and none is live."""
    global _live
    if _names is None or name not in _names or _live is not None:
        return None
    profiler = cProfile.Profile()
    _live = profiler
    profiler.enable()
    return profiler


def stop(profiler: cProfile.Profile) -> list[dict[str, object]]:
    """Stop a profiler started by :func:`maybe_start`; return top rows."""
    global _live
    profiler.disable()
    if _live is profiler:
        _live = None
    return top_stats(profiler, _top_n)


def top_stats(
    profiler: cProfile.Profile, top_n: int
) -> list[dict[str, object]]:
    """The ``top_n`` functions by cumulative time, as plain dicts."""
    stats = pstats.Stats(profiler, stream=io.StringIO())
    rows: list[dict[str, object]] = []
    # ``Stats.stats`` predates typeshed; fetch it dynamically so the
    # module stays strict-clean on every stub version.
    raw: dict[tuple[str, int, str], tuple[int, int, float, float, dict]] = (
        getattr(stats, "stats", {})
    )
    entries = sorted(
        raw.items(),
        key=lambda item: item[1][3],  # cumulative time
        reverse=True,
    )
    for (filename, line, function), (
        primitive_calls,
        ncalls,
        tottime,
        cumtime,
        _callers,
    ) in entries[:top_n]:
        rows.append(
            {
                "function": f"{filename}:{line}({function})",
                "ncalls": ncalls,
                "primitive_calls": primitive_calls,
                "tottime": tottime,
                "cumtime": cumtime,
            }
        )
    return rows


@contextmanager
def profiled(stream: TextIO, top_n: int = 30) -> Iterator[cProfile.Profile]:
    """Profile the enclosed block; print a cumulative report to ``stream``.

    Backs the ``--profile`` CLI flag on ``repro.__main__`` and
    ``repro.bench.runner``.
    """
    top_n = check_positive_int(top_n, "top_n")
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative")
        stream.write(f"-- profile (top {top_n} by cumulative time) --\n")
        stats.print_stats(top_n)
