"""Tests for the isolation bound on total forwarding."""

import pytest

from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.perf.detailed import DetailedModel
from repro.queueing.forwarding import NoSharingModel


def scenario(share=2):
    return FederationScenario((
        SmallCloud(name="a", vms=5, arrival_rate=3.5, shared_vms=share),
        SmallCloud(name="b", vms=5, arrival_rate=4.2, shared_vms=share),
    ))


def isolated_total_forwarding(scn):
    """Upper bound: every SC runs alone and forwards on its own."""
    return sum(
        NoSharingModel(c.vms, c.arrival_rate, c.service_rate, c.sla_bound).forward_rate
        for c in scn
    )


class TestForwardingBounds:
    def test_no_sharing_hits_the_upper_bound(self):
        scn = scenario(share=0)
        params = DetailedModel().evaluate(scn)
        total = sum(p.forward_rate for p in params)
        assert total == pytest.approx(isolated_total_forwarding(scn), rel=1e-4)
