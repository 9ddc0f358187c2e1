"""Scenario enumeration: coverage, id safety, tags, sampled doubles."""

import pytest

from repro.core.survivability import analyze_survivability
from repro.sweep.scenarios import (
    KIND_DOUBLE,
    KIND_LINK,
    KIND_ROUTER,
    TAG_ARTICULATION,
    TAG_BRIDGE,
    _unrank_pair,
    enumerate_scenarios,
    link_scenario_id,
    router_scenario_id,
)


class TestSingleEnumeration:
    def test_one_scenario_per_link_and_router(self, fig1):
        network, _meta = fig1
        plan = enumerate_scenarios(network)
        links = {s for s in plan.scenarios if s.kind == KIND_LINK}
        routers = {s for s in plan.scenarios if s.kind == KIND_ROUTER}
        assert len(links) == len({link.subnet for link in network.links})
        assert len(routers) == len(network.routers)
        assert plan.singles == len(plan.scenarios)
        assert not plan.truncated

    def test_ids_are_chaos_and_checkpoint_safe(self, fig1):
        network, _meta = fig1
        plan = enumerate_scenarios(network)
        for scenario in plan.scenarios:
            # ":" would break REPRO_CHAOS parsing (rsplit on ":"), "/"
            # would break checkpoint filenames.
            assert ":" not in scenario.scenario_id
            assert "/" not in scenario.scenario_id

    def test_enumeration_is_deterministic(self, fig1):
        network, _meta = fig1
        first = enumerate_scenarios(network)
        second = enumerate_scenarios(network)
        assert [s.scenario_id for s in first.scenarios] == [
            s.scenario_id for s in second.scenarios
        ]

    def test_static_tags_ride_along(self, backbone_net):
        network, _spec = backbone_net
        report = analyze_survivability(network)
        plan = enumerate_scenarios(network, survivability=report)
        by_id = {s.scenario_id: s for s in plan.scenarios}
        for router in report.articulation_routers:
            assert TAG_ARTICULATION in by_id[router_scenario_id(router)].tags
        for subnet in report.bridge_links:
            assert TAG_BRIDGE in by_id[link_scenario_id(str(subnet))].tags

    def test_router_scenario_fails_exactly_that_router(self, fig1):
        network, _meta = fig1
        plan = enumerate_scenarios(network)
        for scenario in plan.scenarios:
            if scenario.kind == KIND_ROUTER:
                assert len(scenario.failed_routers) == 1
                assert scenario.failed_subnets == ()
            elif scenario.kind == KIND_LINK:
                assert len(scenario.failed_subnets) == 1
                assert scenario.failed_routers == ()


class TestDoubles:
    def test_depth_2_adds_pairs_under_budget(self, fig1):
        network, _meta = fig1
        plan = enumerate_scenarios(network, depth=2, double_budget=10)
        doubles = [s for s in plan.scenarios if s.kind == KIND_DOUBLE]
        assert len(doubles) == 10
        assert plan.doubles_sampled == 10
        assert plan.doubles_possible == plan.singles * (plan.singles - 1) // 2

    def test_small_budget_samples_deterministically(self, fig1):
        network, _meta = fig1
        first = enumerate_scenarios(network, depth=2, double_budget=5, seed=42)
        second = enumerate_scenarios(network, depth=2, double_budget=5, seed=42)
        assert [s.scenario_id for s in first.scenarios] == [
            s.scenario_id for s in second.scenarios
        ]

    def test_seed_changes_the_sample(self, fig1):
        network, _meta = fig1
        a = enumerate_scenarios(network, depth=2, double_budget=5, seed=0)
        b = enumerate_scenarios(network, depth=2, double_budget=5, seed=1)
        ids_a = {s.scenario_id for s in a.scenarios if s.kind == KIND_DOUBLE}
        ids_b = {s.scenario_id for s in b.scenarios if s.kind == KIND_DOUBLE}
        assert ids_a != ids_b

    def test_large_budget_enumerates_every_pair(self, fig1):
        network, _meta = fig1
        plan = enumerate_scenarios(network, depth=2, double_budget=10**9)
        doubles = [s for s in plan.scenarios if s.kind == KIND_DOUBLE]
        assert len(doubles) == plan.doubles_possible
        assert len({s.scenario_id for s in doubles}) == len(doubles)

    def test_double_unions_the_failure_sets(self, fig1):
        network, _meta = fig1
        plan = enumerate_scenarios(network, depth=2, double_budget=10**9)
        for scenario in plan.scenarios:
            if scenario.kind == KIND_DOUBLE:
                assert (
                    len(scenario.failed_routers) + len(scenario.failed_subnets) == 2
                )

    def test_unrank_pair_covers_all_pairs(self):
        n = 7
        pairs = {_unrank_pair(rank, n) for rank in range(n * (n - 1) // 2)}
        assert pairs == {(i, j) for i in range(n) for j in range(i + 1, n)}


class TestBounds:
    def test_max_scenarios_truncates_and_says_so(self, fig1):
        network, _meta = fig1
        plan = enumerate_scenarios(network, max_scenarios=3)
        assert len(plan.scenarios) == 3
        assert plan.truncated

    def test_bad_depth_rejected(self, fig1):
        network, _meta = fig1
        with pytest.raises(ValueError, match="depth"):
            enumerate_scenarios(network, depth=3)

    def test_negative_budget_rejected(self, fig1):
        network, _meta = fig1
        with pytest.raises(ValueError, match="budget"):
            enumerate_scenarios(network, depth=2, double_budget=-1)

    def test_negative_max_scenarios_rejected(self, fig1):
        # A negative cap would slice from the end: a partial plan.
        network, _meta = fig1
        with pytest.raises(ValueError, match="max scenarios"):
            enumerate_scenarios(network, max_scenarios=-1)
