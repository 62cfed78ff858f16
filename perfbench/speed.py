"""Host speed, sampled on the benchmark's own CPU while it measures.

The benchmark's host is shared, and a CPU's speed switches between
regimes that last from seconds to minutes: a fixed pure-Python loop took
26 ms in one 3-s window and 41 ms a minute later.  CPU time shows the
same change as wall time, so it is not scheduling delay.  Ten runs of
the same code spread by 28-42% of their median, whatever statistic a
run reports, because they saw different regimes.

So every reported time is rescaled to a fixed reference speed.  While
the benchmark measures, a helper process pinned to the benchmark's CPU
wakes every ``PERIOD_S`` and times a fixed pure-Python loop in its own
CPU time, so being preempted by the benchmark does not count.  A timed
interval is multiplied by ``REFERENCE_S`` over the mean loop time
sampled during it.  A change to the program moves the rescaled time as
it moves the raw one; a slower regime stretches the interval and the
loop alike, and cancels.  ``README.md`` gives the spreads measured with
and without it.

The sampler takes about 2% of the CPU, the same share in every run.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import Any

#: The loop's CPU time at the reference speed, in seconds.  Rescaled
#: times read in seconds at that speed.
REFERENCE_S = 0.00085

#: Seconds between samples.
PERIOD_S = 0.05

#: An interval shorter than this is widened about its middle to this
#: length before its samples are taken, so that it has several.
MIN_WINDOW_S = 1.0


def loop_seconds() -> float:
    """CPU time of the fixed loop, run once."""
    start = time.process_time()
    total = 0
    for i in range(10_000):
        total += i * i
    return time.process_time() - start


class Speedometer:
    """Context manager running the sampler on this process's CPU.

    Entering pins this process, and the processes it starts later, to
    one CPU and starts the sampler there; leaving stops it and keeps its
    samples for :meth:`rescale`.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._sampler: subprocess.Popen[str] | None = None

    def __enter__(self) -> "Speedometer":
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self._sampler = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc: object) -> None:
        sampler, self._sampler = self._sampler, None
        if sampler is None:
            return
        try:
            out, _ = sampler.communicate("", timeout=60)
        except BaseException:
            sampler.kill()
            sampler.wait()
            raise
        if sampler.returncode != 0:
            raise RuntimeError(f"speed sampler exited with {sampler.returncode}")
        self.samples = [(t, s) for t, s in json.loads(out)]

    def rescale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured from ``start`` to ``end`` (``time.perf_counter``
        stamps), at the reference speed."""
        middle, half = (start + end) / 2, max(end - start, MIN_WINDOW_S) / 2
        inside = [s for t, s in self.samples if middle - half <= t <= middle + half]
        if not inside:
            raise RuntimeError(f"no speed samples from {start:.3f} to {end:.3f}")
        return seconds * REFERENCE_S / statistics.fmean(inside)

    def summary(self) -> dict[str, Any]:
        loops = [s for _, s in self.samples]
        return {
            "n": len(loops),
            "min_s": min(loops),
            "median_s": statistics.median(loops),
            "max_s": max(loops),
        }


def sample(cpu: int) -> None:
    """Time the loop every ``PERIOD_S`` until stdin closes; then print the
    samples as JSON ``[[perf_counter stamp, loop CPU seconds], ...]``."""
    os.sched_setaffinity(0, {cpu})
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        samples.append((time.perf_counter(), loop_seconds()))
    sys.stdout.write(json.dumps(samples))


if __name__ == "__main__":
    sample(int(sys.argv[1]))
