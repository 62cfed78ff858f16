"""Smoke tests for the figure harnesses (tiny grids, one simulated Fig. 5 grid)."""

import pytest

from repro.bench import fig5, fig7, fig8

pytestmark = pytest.mark.slow


class TestFig5Harness:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig5.run_fig5(utilizations=(0.6, 0.9), with_simulation=False)

    def test_row_count(self, rows):
        assert len(rows) == 4 * 2  # four configs x two utilizations

    def test_shape_checks_pass(self, rows):
        assert fig5.check_shape(rows) == []

    def test_render_contains_all_configs(self, rows):
        text = fig5.render(rows)
        for label in ("N=10, Q=0.2", "N=100, Q=0.5"):
            assert label in text

    def test_model_tracks_simulation(self):
        rows = fig5.run_fig5(utilizations=(0.7, 0.9), horizon=8_000.0)
        assert fig5.check_simulation(rows) == []

    def test_relative_error_nan_handling(self, rows):
        # Without simulation the error is NaN-ish; accessing it must not
        # raise for near-zero simulated values.
        for row in rows:
            _ = row.utilization


class TestFig7Harness:
    @pytest.fixture(scope="class")
    def rows(self):
        # Two price points, coarse strategy grid: minutes -> seconds.
        return fig7.run_fig7(
            loads="spread", gamma=0.0, ratios=[0.3, 0.7], strategy_step=5
        )

    def test_rows_cover_ratios(self, rows):
        assert [r.price_ratio for r in rows] == [0.3, 0.7]

    def test_efficiency_bounded(self, rows):
        for row in rows:
            for value in row.efficiency.values():
                assert 0.0 <= value <= 1.0

    def test_all_alphas_present(self, rows):
        for row in rows:
            assert set(row.efficiency) == set(fig7.ALPHAS)

    def test_render(self, rows):
        text = fig7.render(rows)
        assert "utilitarian" in text and "max-min" in text


class TestFig8Harness:
    def test_fig8a_small(self):
        rows = fig8.run_fig8a(sizes=(2, 3))
        assert [r.n_clouds for r in rows] == [2, 3]
        assert all(r.seconds > 0 for r in rows)
        assert rows[0].states <= rows[1].states
        assert "Fig. 8a" in fig8.render_8a(rows)

    def test_fig8b_small(self):
        rows = fig8.run_fig8b(sizes=(2,), tabu_distances=(2,), vms=10)
        assert len(rows) == 1
        assert rows[0].converged
        assert "Fig. 8b" in fig8.render_8b(rows)
