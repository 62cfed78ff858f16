"""Tests for the exact detailed CTMC (Sect. III-B)."""

import pytest

from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.perf.detailed import DetailedModel
from repro.queueing.forwarding import NoSharingModel


def make_scenario(*clouds):
    return FederationScenario(tuple(clouds))


def small_2sc(share_a=2, share_b=2, rate_a=4.0, rate_b=5.0, vms=5):
    # Deliberately small: these chains are solved exactly in-test.
    return make_scenario(
        SmallCloud(name="a", vms=vms, arrival_rate=rate_a, shared_vms=share_a),
        SmallCloud(name="b", vms=vms, arrival_rate=rate_b, shared_vms=share_b),
    )


class TestDegenerateCases:
    def test_single_sc_matches_no_sharing_model(self):
        scenario = make_scenario(
            SmallCloud(name="solo", vms=6, arrival_rate=4.0)
        )
        params = DetailedModel().evaluate(scenario)[0]
        reference = NoSharingModel(6, 4.0, 1.0, 0.2)
        assert params.forward_rate == pytest.approx(reference.forward_rate, rel=1e-6)
        assert params.utilization == pytest.approx(reference.utilization, rel=1e-6)
        assert params.lent_mean == 0.0
        assert params.borrowed_mean == 0.0

    def test_zero_shares_decouple_the_federation(self):
        scenario = small_2sc(share_a=0, share_b=0)
        params = DetailedModel().evaluate(scenario)
        for i, cloud in enumerate(scenario):
            reference = NoSharingModel(
                cloud.vms, cloud.arrival_rate, cloud.service_rate, cloud.sla_bound
            )
            assert params[i].lent_mean == 0.0
            assert params[i].borrowed_mean == 0.0
            assert params[i].forward_rate == pytest.approx(
                reference.forward_rate, rel=1e-6
            )


class TestConservation:
    def test_total_lent_equals_total_borrowed(self):
        params = DetailedModel().evaluate(small_2sc())
        total_lent = sum(p.lent_mean for p in params)
        total_borrowed = sum(p.borrowed_mean for p in params)
        assert total_lent == pytest.approx(total_borrowed, rel=1e-9)

    def test_two_sc_mirror(self):
        a, b = DetailedModel().evaluate(small_2sc())
        assert a.lent_mean == pytest.approx(b.borrowed_mean, rel=1e-9)
        assert b.lent_mean == pytest.approx(a.borrowed_mean, rel=1e-9)

    def test_share_limits_respected(self):
        scenario = small_2sc(share_a=1, share_b=1)
        for p, cloud in zip(DetailedModel().evaluate(scenario), scenario):
            assert p.lent_mean <= cloud.shared_vms + 1e-9

    def test_three_sc_federation_solves(self):
        # Tight SLA + loose tail tolerance keep the 3-SC joint chain at a
        # few thousand states; the full-precision version is a Fig. 6
        # benchmark concern, not a unit-test one.
        scenario = make_scenario(
            SmallCloud(name="a", vms=2, arrival_rate=1.0, shared_vms=1, sla_bound=0.1),
            SmallCloud(name="b", vms=2, arrival_rate=1.4, shared_vms=1, sla_bound=0.1),
            SmallCloud(name="c", vms=2, arrival_rate=1.7, shared_vms=1, sla_bound=0.1),
        )
        params = DetailedModel(tail_epsilon=1e-6).evaluate(scenario)
        assert sum(p.lent_mean for p in params) == pytest.approx(
            sum(p.borrowed_mean for p in params), rel=1e-9
        )
        assert all(0.0 <= p.utilization <= 1.0 for p in params)


class TestSharingEffects:
    def test_sharing_reduces_total_forwarding(self):
        without = DetailedModel().evaluate(small_2sc(share_a=0, share_b=0))
        with_sharing = DetailedModel().evaluate(small_2sc(share_a=2, share_b=2))
        assert sum(p.forward_rate for p in with_sharing) < sum(
            p.forward_rate for p in without
        )

    def test_exact_total_forwarding_lies_in_the_pooling_bracket(self):
        # Isolation forwards the most; one merged system with every VM,
        # all the load, the tightest SLA and the slowest service forwards
        # the least.  Real sharing lands in between.
        scenario = small_2sc()
        total = sum(p.forward_rate for p in DetailedModel().evaluate(scenario))
        isolated = sum(
            NoSharingModel(c.vms, c.arrival_rate, c.service_rate, c.sla_bound).forward_rate
            for c in scenario
        )
        merged = NoSharingModel(
            sum(c.vms for c in scenario),
            sum(c.arrival_rate for c in scenario),
            min(c.service_rate for c in scenario),
            min(c.sla_bound for c in scenario),
        ).forward_rate
        assert merged < total < isolated

    def test_hot_sc_is_net_borrower(self):
        # rate_b > rate_a: SC b should borrow more than it lends.
        a, b = DetailedModel().evaluate(small_2sc(rate_a=2.0, rate_b=4.8))
        assert b.net_borrowed > 0.0
        assert a.net_borrowed < 0.0

    def test_utilization_rises_for_the_lender(self):
        lonely = DetailedModel().evaluate(small_2sc(share_a=0, share_b=0))
        sharing = DetailedModel().evaluate(small_2sc(share_a=2, share_b=2))
        # The cooler SC (a) picks up guests, raising its busy fraction.
        assert sharing[0].utilization > lonely[0].utilization


class TestStateSpace:
    def test_reachable_space_smaller_than_product(self):
        model = DetailedModel()
        scenario = small_2sc()
        space, _ = model.build(scenario)
        q_max_a = model._q_max(scenario, 0)
        q_max_b = model._q_max(scenario, 1)
        product = (q_max_a + 1) * (q_max_b + 1) * 3 * 3
        assert len(space) <= product

    def test_max_states_guard(self):
        from repro.exceptions import StateSpaceError

        with pytest.raises(StateSpaceError):
            DetailedModel(max_states=10).evaluate(small_2sc())
