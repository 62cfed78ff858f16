"""Tests for the block profiler behind ``--profile``."""

from __future__ import annotations

import io

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import profiling


def _busy() -> int:
    return sum(i * i for i in range(10_000))


class TestBlockProfiler:
    def test_profiled_prints_report(self):
        stream = io.StringIO()
        with profiling.profiled(stream, top_n=10):
            _busy()
        report = stream.getvalue()
        assert "top 10 by cumulative time" in report
        assert "function calls" in report

    def test_profiled_reports_even_on_error(self):
        stream = io.StringIO()
        with pytest.raises(RuntimeError):
            with profiling.profiled(stream):
                raise RuntimeError("boom")
        assert "cumulative" in stream.getvalue()

    def test_top_n_validated(self):
        with pytest.raises(ConfigurationError):
            with profiling.profiled(io.StringIO(), top_n=0):
                pass
