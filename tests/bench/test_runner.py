"""Tests for the standalone benchmark runner CLI."""

import pytest

from repro.bench import runner

pytestmark = pytest.mark.slow


class TestRunnerCli:
    def test_figures_registered(self):
        assert set(runner.FIGURES) == {"fig5", "fig6", "fig7", "fig8", "ablations"}

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["fig99"])

    def test_fig5_quick_runs(self, capsys):
        assert runner.main(["fig5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert "SHAPE VIOLATIONS" not in out

    def test_fig8_quick_runs(self, capsys):
        assert runner.main(["fig8", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 8a" in out
        assert "Fig. 8b" in out
