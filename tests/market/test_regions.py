"""Tests for the price-region analysis."""

import pytest

from repro.bench.fig7 import Fig7Row
from repro.exceptions import ConfigurationError
from repro.market.regions import analyze_regions


def row(ratio, utilitarian, proportional, maxmin, equilibrium=(1, 1, 1)):
    return Fig7Row(
        loads="spread",
        gamma=0.0,
        price_ratio=ratio,
        equilibrium=equilibrium,
        iterations=3,
        efficiency={
            "utilitarian": utilitarian,
            "proportional": proportional,
            "max-min": maxmin,
        },
        welfare={"utilitarian": 1.0, "proportional": 1.0, "max-min": 1.0},
        evaluator=None,  # the region analysis reads efficiencies only
        strategy_spaces=(),
    )


@pytest.fixture
def paper_shaped_rows():
    """A synthetic sweep with the paper's three-regions structure."""
    return [
        row(0.1, 0.3, 0.95, 0.5),
        row(0.3, 0.5, 0.90, 0.7),
        row(0.5, 0.7, 0.60, 0.95),
        row(0.7, 0.9, 0.40, 0.80),
        row(0.9, 0.95, 0.20, 0.50),
        row(1.0, 0.0, 0.0, 0.0, equilibrium=(0, 0, 0)),
    ]


class TestAnalyzeRegions:
    def test_three_regions_recovered(self, paper_shaped_rows):
        report = analyze_regions(paper_shaped_rows, tolerance=0.1)
        assert report.region("proportional").best_ratio == 0.1
        assert report.region("max-min").best_ratio == 0.5
        assert report.region("utilitarian").best_ratio == 0.9

    def test_region_ranges_use_tolerance(self, paper_shaped_rows):
        report = analyze_regions(paper_shaped_rows, tolerance=0.1)
        proportional = report.region("proportional")
        assert proportional.low == 0.1
        assert proportional.high == 0.3  # 0.90 is within 0.1 of 0.95

    def test_collapse_ratio_reported(self, paper_shaped_rows):
        report = analyze_regions(paper_shaped_rows)
        assert report.collapse_ratios == (1.0,)

    def test_unknown_objective_rejected(self, paper_shaped_rows):
        report = analyze_regions(paper_shaped_rows)
        with pytest.raises(ConfigurationError):
            report.region("egalitarian")

    def test_empty_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            analyze_regions([])
