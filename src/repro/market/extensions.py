"""Cost-function extensions sketched in the paper's Sect. VII.

The base cost (Eq. 1) prices only SLA overflow.  The paper names three
future extensions; two are implemented here because they change the
economics without changing the performance models:

- **Power-aware cost** (:class:`PowerAwareCost`): running a VM locally
  has an energy cost; lending keeps a VM busy (the guest pays the energy
  through the federation price), while forwarding work out saves local
  energy.  Operators with expensive power prefer exporting load.
- **Data-transfer cost** (:class:`TransferAwareCost`): every request
  served remotely (federation or public cloud) pays a per-request
  transfer fee, penalizing excessive remote placement.

Both compose with the base cost and slot into the market game through
:class:`ExtendedUtilityEvaluator`, which overrides only the cost method
of the standard evaluator.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Callable

from repro._validation import check_non_negative, require
from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.market.cost import operating_cost
from repro.market.evaluator import UtilityEvaluator
from repro.perf.base import PerformanceModel
from repro.perf.params import PerformanceParams

#: An extension cost function: ``(cloud, params) -> cost``.
CostFunction = Callable[[SmallCloud, PerformanceParams], float]


class PowerAwareCost:
    """Eq. (1) plus the energy cost of busy local VMs.

    Args:
        energy_price: cost per busy-VM-second of local electricity.
    """

    def __init__(self, energy_price: float) -> None:
        self.energy_price = check_non_negative(energy_price, "energy_price")

    def __call__(self, cloud: SmallCloud, params: PerformanceParams) -> float:
        busy_vms = params.utilization * cloud.vms
        return operating_cost(cloud, params) + self.energy_price * busy_vms


class TransferAwareCost:
    """Eq. (1) plus a per-remote-request data-transfer fee.

    Args:
        transfer_price: cost per VM-second of remotely served work
            (borrowed VMs and public-cloud forwards both pay it).
    """

    def __init__(self, transfer_price: float) -> None:
        self.transfer_price = check_non_negative(transfer_price, "transfer_price")

    def __call__(self, cloud: SmallCloud, params: PerformanceParams) -> float:
        remote_work = params.borrowed_mean + params.forward_rate / cloud.service_rate
        return operating_cost(cloud, params) + self.transfer_price * remote_work


class ExtendedUtilityEvaluator(UtilityEvaluator):
    """A :class:`UtilityEvaluator` with a pluggable cost function.

    The baseline cost is adjusted consistently: the no-sharing reference
    is re-priced through the same extension (with zero lending/borrowing),
    so the Eq. (2) cost *reduction* compares like with like.

    Args:
        cost_function: callable ``(cloud, params) -> cost`` (one of the
            extension classes above, or any custom callable).
        **kwargs: forwarded to :class:`UtilityEvaluator`.
    """

    def __init__(
        self,
        scenario: FederationScenario,
        model: PerformanceModel,
        cost_function: CostFunction,
        **kwargs: Any,
    ) -> None:
        require(callable(cost_function), "cost_function must be callable")
        super().__init__(scenario, model, **kwargs)
        self.cost_function = cost_function
        self._extended_baselines = [
            self._baseline_extended(i) for i in range(len(scenario))
        ]

    def _baseline_extended(self, index: int) -> float:
        base = self.baseline(index)
        cloud = self.scenario[index].with_shared(0)
        params = PerformanceParams(
            lent_mean=0.0,
            borrowed_mean=0.0,
            forward_rate=base.forward_rate,
            utilization=base.utilization,
        )
        return self.cost_function(cloud, params)

    def cost(self, sharing: Sequence[int], index: int) -> float:
        """Extended cost of SC ``index`` under ``sharing``."""
        cloud = self.scenario[index].with_shared(int(sharing[index]))
        return self.cost_function(cloud, self.params(sharing)[index])

    def utility(self, sharing: Sequence[int], index: int) -> float:
        """Eq. (2) utility against the consistently extended baseline."""
        from repro.market.utility import utility as utility_fn

        if sharing[index] == 0:
            return 0.0
        base = self.baseline(index)
        params = self.params(sharing)[index]
        return utility_fn(
            baseline_cost=self._extended_baselines[index],
            cost=self.cost(sharing, index),
            baseline_utilization=base.utilization,
            utilization=params.utilization,
            gamma=self.gamma,
        )
