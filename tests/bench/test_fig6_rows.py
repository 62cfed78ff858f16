"""Tests for Fig. 6 row error metrics (pure logic, no model runs)."""

import pytest

from repro.bench.fig6 import Fig6Row, _relative_error, check_shape
from repro.perf.params import PerformanceParams


def params(lent, borrowed, forward=0.0, rho=0.5):
    return PerformanceParams(
        lent_mean=lent, borrowed_mean=borrowed, forward_rate=forward, utilization=rho
    )


def row(approx, exact, panel="test", share=1, rate=7.0):
    return Fig6Row(
        panel=panel, target_share=share, target_rate=rate, approx=approx, exact=exact
    )


class TestRelativeError:
    def test_plain_relative_error(self):
        assert _relative_error(1.1, 1.0) == pytest.approx(0.1)

    def test_floor_guards_small_truths(self):
        # Near-zero truths use the 0.05 floor instead of exploding.
        assert _relative_error(0.01, 0.001) == pytest.approx(0.009 / 0.05)

    def test_exact_match_is_zero(self):
        assert _relative_error(2.5, 2.5) == 0.0


class TestFig6Row:
    def test_error_properties(self):
        r = row(params(0.9, 2.1), params(1.0, 2.0))
        assert r.lent_error == pytest.approx(0.1)
        assert r.borrowed_error == pytest.approx(0.05)
        # net: approx 1.2, exact 1.0, normalized by traffic I+O = 3.0.
        assert r.net_error == pytest.approx(0.2 / 3.0)

    def test_net_error_uses_difference_not_components(self):
        # Biases in I and O can cancel in O - I (the paper's point about
        # the cost-relevant difference staying accurate).
        r = row(params(0.8, 1.8), params(1.0, 2.0))
        assert r.lent_error == pytest.approx(0.2)
        assert r.net_error == pytest.approx(0.0)


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([
            row(params(0.30, 0.50), params(0.31, 0.49), panel="2sc"),
            row(params(1.00, 2.10), params(1.10, 2.00), panel="2sc", share=9, rate=8.0),
            row(params(0.50, 17.0), params(0.50, 17.0), panel="10sc"),
            row(params(9.0, 9.5), params(9.0, 9.5), panel="100vm(rho=0.8)", share=10),
        ], []),
        # The 2-SC S=1 band is 0.15 (the parent's lambda=7 point).
        ([row(params(0.2445, 0.40), params(0.2939, 0.40), panel="2sc")],
         ["2sc S=1 lambda=7.0: Ibar error 0.168 >= 0.15 (0.2445 approx against 0.2939 exact)"]),
        # At S=9 it is 0.45, and the heaviest load keeps the bias direction.
        ([row(params(1.0, 2.0), params(1.3, 2.0), panel="2sc", share=9, rate=5.0)], []),
        ([row(params(1.2, 1.9), params(1.1, 2.0), panel="2sc", share=9, rate=8.0)],
         ["2sc S=9 lambda=8.0: Ibar overestimated", "2sc S=9 lambda=8.0: Obar underestimated"]),
        ([row(params(1.0, 2.0), params(2.0, 2.0), panel="2sc", share=9, rate=5.0)],
         ["2sc S=9 lambda=5.0: Ibar error 0.500 >= 0.45 (1.0000 approx against 2.0000 exact)"]),
        ([row(params(0.1, 2.0), params(1.0, 1.0), panel="10sc")],
         ["10sc S=1 lambda=7.0: err(O-I) 0.950 >= 0.6"]),
        ([row(params(0.5, 18.5), params(0.5, 18.5), panel="10sc")],
         ["10sc S=1 lambda=7.0: Obar above the 18-VM pool"]),
        ([row(params(10.5, 10.5), params(10.5, 10.5), panel="100vm(rho=0.9)", share=10)],
         ["100vm(rho=0.9) S=10 lambda=7.0: Ibar above the 10 shared VMs",
          "100vm(rho=0.9) S=10 lambda=7.0: Obar above the other SC's 10 VMs"]),
    ],
)
def test_check_shape(rows, expected):
    assert check_shape(rows) == expected
