"""The Fig. 5, Fig. 7 and Fig. 8 paper-claim checks, on hand-built rows."""

import pytest

from repro.bench import fig5, fig7, fig8
from repro.bench.fig5 import Fig5Row
from repro.bench.fig7 import Fig7Row
from repro.bench.fig8 import Fig8aRow, Fig8bRow
from repro.bench.scenarios import fig5_configurations


@pytest.mark.parametrize(
    "model, simulated, flagged",
    [(0.119, 0.1, False), (0.121, 0.1, True), (0.0025, 0.0009, False),
     (0.0030, 0.0009, True), (0.0030, 0.0020, True)],
)
def test_fig5_simulation_check(model, simulated, flagged):
    row = Fig5Row(fig5_configurations()[0], 7.0, 0.7, model, simulated)
    message = f"N=10, Q=0.2, lambda=7: model P_f {model:.4f} against {simulated:.4f} simulated"
    assert fig5.check_simulation([row]) == ([message] if flagged else [])


class PeakEvaluator:
    """SC ``i``'s utility peaks at sharing ``peaks[i]``, whatever the others do."""

    def __init__(self, peaks):
        self.peaks = peaks

    def utility(self, profile, index):
        return -float((profile[index] - self.peaks[index]) ** 2)


def panel(*points, loads="spread", gamma=0.0):
    """Rows at (price ratio, equilibrium[, utility peaks]); the peaks default to a Nash point."""
    return [
        Fig7Row(
            loads=loads, gamma=gamma, price_ratio=ratio, equilibrium=equilibrium,
            iterations=2, efficiency={}, welfare={},
            evaluator=PeakEvaluator(peaks[0] if peaks else equilibrium),
            strategy_spaces=[range(11)] * 3,
        )
        for ratio, equilibrium, *peaks in points
    ]


@pytest.mark.parametrize(
    "rows, expected",
    [
        (panel((0.1, (2, 2, 2)), (0.5, (2, 2, 2))), []),
        (panel((0.3, (2, 2, 2)), (0.5, (2, 2, 2), (2, 3, 2))),
         ["C^G/C^P=0.5: (2, 2, 2) is not a Nash equilibrium"]),
        (panel((0.3, (0, 0, 0)), (0.5, (0, 0, 0))),
         ["the federation never forms at any price ratio"]),
        ([], ["the federation never forms at any price ratio"]),
        # 7a: UF0 with spread loads shares 3 VMs in total at some mid-range price.
        (panel((0.1, (1, 1, 1)), (0.5, (1, 0, 1))), ["no mid-range price sustains 3 shared VMs"]),
        (panel((0.1, (1, 1, 1)), (0.5, (1, 0, 1)), loads="high"), []),
        # 7b: UF1 with spread loads shares at most 3 VMs per SC.
        (panel((0.1, (1, 1, 1)), (0.5, (3, 3, 3)), gamma=1.0), []),
        (panel((0.1, (1, 1, 1)), (0.5, (10, 10, 10)), gamma=1.0),
         ["C^G/C^P=0.5: UF1 share (10, 10, 10) above 3"]),
        # 7d: UF1 with medium loads forms a federation at some ratio up to 0.5.
        (panel((0.5, (1, 1, 1)), (0.7, (1, 1, 1)), loads="medium", gamma=1.0), []),
        (panel((0.3, (0, 0, 0)), (0.55, (1, 1, 1)), loads="medium", gamma=1.0),
         ["no UF1 federation at price ratios up to 0.5"]),
    ],
)
def test_fig7_check(rows, expected):
    assert fig7.check_shape(rows) == expected


def game(k, distance, iterations, converged=True):
    return Fig8bRow(k, distance, iterations, converged, model_evaluations=10 * k)


@pytest.mark.parametrize(
    "check, rows, expected",
    [
        (fig8.check_8a, [Fig8aRow(2, 540, 0.04), Fig8aRow(3, 1530, 0.3)], []),
        (fig8.check_8a, [Fig8aRow(2, 540, 0.04), Fig8aRow(3, 500, 0.3)],
         ["8a: target chain states do not grow with K"]),
        (fig8.check_8a, [Fig8aRow(10, 9000, 301.0)], ["8a K=10: 301.0 s >= 300 s"]),
        (fig8.check_8b, [game(2, 1, 3), game(3, 1, 5)], []),
        (fig8.check_8b, [game(2, 4, 2), game(4, 4, 5, converged=False)],
         ["8b K=4 distance 4: not converged", "8b distance 4: rounds grew with K"]),
    ],
)
def test_fig8_checks(check, rows, expected):
    assert check(rows) == expected
