"""Block profiling: :func:`profiled` backs the ``--profile`` CLI flag.

It runs one :class:`cProfile.Profile` over a whole block and prints the
top-N report (by cumulative time) to a stream.  Profiling is a
per-process debugging aid: it is not replayed into executor workers (a
pool of workers all tracing into one ``cProfile`` would be
meaningless).  For a per-layer time split, read the ``repro.obs`` span
tree instead.
"""

from __future__ import annotations

import cProfile
import pstats
from collections.abc import Iterator
from contextlib import contextmanager
from typing import TextIO

from repro._validation import check_positive_int

__all__ = ["profiled"]


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
