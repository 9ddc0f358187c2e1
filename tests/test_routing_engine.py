"""Control-plane simulation tests."""

import pytest

from repro.model import Network
from repro.net import Prefix
from repro.routing import RoutingSimulation, TransferTable

from tests.routing_reference import FullResendSimulation, state


def simulate(configs, **kw):
    net = Network.from_configs(configs)
    return RoutingSimulation(net, **kw).run()


CHAIN = {
    # r1 --- r2 --- r3, one OSPF instance, LANs on r1 and r3.
    "r1": (
        "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n"
        "!\ninterface Ethernet0\n ip address 10.1.0.1 255.255.255.0\n"
        "!\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
        " network 10.1.0.0 0.0.0.255 area 0\n"
    ),
    "r2": (
        "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
        "!\ninterface Serial1\n ip address 10.0.0.5 255.255.255.252\n"
        "!\nrouter ospf 1\n network 10.0.0.0 0.0.0.7 area 0\n"
    ),
    "r3": (
        "interface Serial0\n ip address 10.0.0.6 255.255.255.252\n"
        "!\ninterface Ethernet0\n ip address 10.3.0.1 255.255.255.0\n"
        "!\nrouter ospf 1\n network 10.0.0.4 0.0.0.3 area 0\n"
        " network 10.3.0.0 0.0.0.255 area 0\n"
    ),
}


class TestIgpPropagation:
    def test_remote_lan_learned(self):
        sim = simulate(CHAIN)
        route = sim.lookup("r1", "10.3.0.50")
        assert route is not None
        assert route.protocol == "ospf"

    def test_metric_counts_hops(self):
        sim = simulate(CHAIN)
        route = sim.lookup("r1", "10.3.0.50")
        assert route.metric == 2  # r3 -> r2 -> r1

    def test_connected_beats_igp(self):
        sim = simulate(CHAIN)
        route = sim.lookup("r1", "10.1.0.5")
        assert route.protocol == "connected"

    def test_trace_follows_chain(self):
        sim = simulate(CHAIN)
        assert sim.trace("r1", "10.3.0.50") == ["r1", "r2", "r3"]

    def test_process_route_count(self):
        sim = simulate(CHAIN)
        count = sim.process_route_count(("r2", "ospf", 1))
        # r2's OSPF carries both p2p subnets plus both LANs.
        assert count == 4

    def test_reachable_destinations_sorted(self):
        sim = simulate(CHAIN)
        dests = sim.reachable_destinations("r1")
        assert dests == sorted(dests)
        assert Prefix("10.3.0.0/24") in dests

    def test_requires_run(self):
        net = Network.from_configs(CHAIN)
        sim = RoutingSimulation(net)
        with pytest.raises(RuntimeError):
            sim.lookup("r1", "10.3.0.50")


class TestFailures:
    def test_router_failure_cuts_path(self):
        sim = simulate(CHAIN, failed_routers=["r2"])
        assert not sim.can_reach("r1", "10.3.0.50")

    def test_link_failure_cuts_path(self):
        sim = simulate(CHAIN, failed_subnets=["10.0.0.4/30"])
        assert not sim.can_reach("r1", "10.3.0.50")
        assert sim.can_reach("r1", "10.0.0.2")  # first hop still up

    def test_no_failures_baseline(self):
        sim = simulate(CHAIN)
        assert sim.can_reach("r1", "10.3.0.50")


class TestFailureValidation:
    def test_unknown_router_rejected_with_near_miss(self):
        net = Network.from_configs(CHAIN)
        with pytest.raises(ValueError) as exc:
            RoutingSimulation(net, failed_routers=["r22"])
        assert "r22" in str(exc.value)
        assert "r2" in str(exc.value)  # the near-miss is suggested

    def test_unknown_subnet_rejected_with_overlap_hint(self):
        net = Network.from_configs(CHAIN)
        with pytest.raises(ValueError) as exc:
            RoutingSimulation(net, failed_subnets=["10.0.0.0/24"])
        message = str(exc.value)
        assert "10.0.0.0/24" in message
        assert "10.0.0.0/30" in message  # overlapping real link subnet

    def test_unknown_subnet_without_overlap_still_named(self):
        net = Network.from_configs(CHAIN)
        with pytest.raises(ValueError, match="192.168.0.0/24"):
            RoutingSimulation(net, failed_subnets=["192.168.0.0/24"])

    def test_interface_prefix_is_a_valid_failure_target(self):
        # The r1 LAN matches no link (single-router subnet) but is a
        # real interface prefix: failing it must be accepted.
        sim = simulate(CHAIN, failed_subnets=["10.1.0.0/24"])
        assert not sim.can_reach("r3", "10.1.0.50")

    def test_validate_false_skips_the_check(self):
        net = Network.from_configs(CHAIN)
        sim = RoutingSimulation(net, failed_routers=["ghost"], validate=False)
        assert sim.run().can_reach("r1", "10.3.0.50")

    def test_a_table_compiled_for_another_network_is_rejected(self):
        table = TransferTable(Network.from_configs(CHAIN))
        with pytest.raises(ValueError, match="another network"):
            RoutingSimulation(Network.from_configs(CHAIN), table=table)


class TestDivergenceHandling:
    def test_default_raises_on_divergence(self):
        net = Network.from_configs(CHAIN)
        with pytest.raises(RuntimeError, match="no convergence"):
            RoutingSimulation(net).run(max_iterations=1)

    def test_degrade_mode_returns_partial_result(self):
        net = Network.from_configs(CHAIN)
        sim = RoutingSimulation(net).run(max_iterations=1, on_divergence="degrade")
        assert sim.diverged and not sim.converged
        # Queries work on the partial RIBs instead of raising.
        assert sim.lookup("r1", "10.1.0.5") is not None

    def test_converged_run_reports_converged(self):
        sim = simulate(CHAIN)
        assert sim.converged and not sim.diverged

    def test_unknown_policy_rejected(self):
        net = Network.from_configs(CHAIN)
        with pytest.raises(ValueError, match="on_divergence"):
            RoutingSimulation(net).run(on_divergence="explode")


class TestStaticAndRedistribution:
    def test_static_route_in_rib(self):
        configs = dict(CHAIN)
        configs["r1"] += "ip route 99.0.0.0 255.0.0.0 10.0.0.2\n"
        sim = simulate(configs)
        assert sim.lookup("r1", "99.1.2.3").protocol == "static"

    def test_redistribute_static_spreads(self):
        configs = dict(CHAIN)
        configs["r1"] = configs["r1"].replace(
            "router ospf 1\n",
            "router ospf 1\n redistribute static subnets\n",
        ) + "ip route 99.0.0.0 255.0.0.0 10.0.0.2\n"
        sim = simulate(configs)
        route = sim.lookup("r3", "99.1.2.3")
        assert route is not None
        assert route.protocol == "ospf"
        assert route.redistributed

    def test_redistribution_route_map_tag(self):
        configs = dict(CHAIN)
        configs["r1"] = (
            configs["r1"].replace(
                "router ospf 1\n",
                "router ospf 1\n redistribute static route-map T subnets\n",
            )
            + "ip route 99.0.0.0 255.0.0.0 10.0.0.2\n"
            + "route-map T permit 10\n set tag 42\n"
        )
        sim = simulate(configs)
        assert sim.lookup("r3", "99.1.2.3").tag == 42

    def test_distribute_list_out_filters(self):
        configs = dict(CHAIN)
        configs["r3"] = configs["r3"].replace(
            "router ospf 1\n",
            "router ospf 1\n distribute-list 9 out\n",
        ) + "access-list 9 deny 10.3.0.0 0.0.0.255\naccess-list 9 permit any\n"
        sim = simulate(configs)
        assert not sim.can_reach("r1", "10.3.0.50")


BGP_PAIR = {
    "a": (
        "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n"
        "!\nrouter bgp 65001\n network 20.0.0.0 mask 255.0.0.0\n"
        " neighbor 10.0.0.2 remote-as 65002\n"
    ),
    "b": (
        "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
        "!\nrouter bgp 65002\n neighbor 10.0.0.1 remote-as 65001\n"
    ),
}


class TestBgp:
    def test_ebgp_exchange_and_as_path(self):
        sim = simulate(BGP_PAIR)
        route = sim.lookup("b", "20.1.2.3")
        assert route is not None
        assert route.as_path == (65001,)
        assert route.admin_distance == 20

    def test_as_path_loop_prevention(self):
        configs = dict(BGP_PAIR)
        # a third router in AS 65001 peering with b would reject the route.
        configs["c"] = (
            "interface Serial0\n ip address 10.0.0.5 255.255.255.252\n"
            "!\nrouter bgp 65001\n neighbor 10.0.0.6 remote-as 65002\n"
        )
        configs["b"] = (
            "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
            "!\ninterface Serial1\n ip address 10.0.0.6 255.255.255.252\n"
            "!\nrouter bgp 65002\n neighbor 10.0.0.1 remote-as 65001\n"
            " neighbor 10.0.0.5 remote-as 65001\n"
        )
        sim = simulate(configs)
        assert not sim.can_reach("c", "20.1.2.3")

    def test_ibgp_no_readvertisement(self):
        # x -ebgp- y -ibgp- z -ibgp- w: w must NOT learn x's route via z.
        configs = {
            "x": (
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n"
                "!\nrouter bgp 65001\n network 20.0.0.0 mask 255.0.0.0\n"
                " neighbor 10.0.0.2 remote-as 65002\n"
            ),
            "y": (
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
                "!\ninterface Serial1\n ip address 10.0.0.5 255.255.255.252\n"
                "!\nrouter bgp 65002\n neighbor 10.0.0.1 remote-as 65001\n"
                " neighbor 10.0.0.6 remote-as 65002\n"
            ),
            "z": (
                "interface Serial0\n ip address 10.0.0.6 255.255.255.252\n"
                "!\ninterface Serial1\n ip address 10.0.0.9 255.255.255.252\n"
                "!\nrouter bgp 65002\n neighbor 10.0.0.5 remote-as 65002\n"
                " neighbor 10.0.0.10 remote-as 65002\n"
            ),
            "w": (
                "interface Serial0\n ip address 10.0.0.10 255.255.255.252\n"
                "!\nrouter bgp 65002\n neighbor 10.0.0.9 remote-as 65002\n"
            ),
        }
        sim = simulate(configs)
        assert sim.can_reach("z", "20.1.2.3")  # one IBGP hop: fine
        assert not sim.can_reach("w", "20.1.2.3")  # two hops: full-mesh rule

    def test_neighbor_distribute_list_in(self):
        configs = dict(BGP_PAIR)
        configs["b"] = configs["b"].replace(
            " neighbor 10.0.0.1 remote-as 65001\n",
            " neighbor 10.0.0.1 remote-as 65001\n"
            " neighbor 10.0.0.1 distribute-list 7 in\n",
        ) + "access-list 7 deny 20.0.0.0 0.255.255.255\naccess-list 7 permit any\n"
        sim = simulate(configs)
        assert not sim.can_reach("b", "20.1.2.3")

    def test_convergence_is_reported(self):
        sim = simulate(BGP_PAIR)
        assert sim.iterations >= 1


class TestFullTemplatesConverge:
    def test_enterprise_simulation(self, enterprise_net):
        net, _spec = enterprise_net
        sim = RoutingSimulation(net).run()
        # Every interior router learns a route toward the hub LAN.
        interior = sorted(r for r in net.routers if "-r" in r)
        lan = net.routers[interior[0]].config.interfaces["FastEthernet0/0"].prefix
        other = interior[-1]
        assert sim.can_reach(other, lan.network + 1)

    def test_fig1_example_simulation(self, fig1):
        net, _meta = fig1
        sim = RoutingSimulation(net).run()
        # R1 (enterprise interior) reaches R3's LAN over OSPF.
        r3_lan = net.routers["R3"].config.interfaces["Ethernet0/0"].prefix
        assert sim.can_reach("R1", r3_lan.network + 1)


class TestRouteReflection:
    """RFC 4456 reflection: clients learn through the RR, and the plain
    full-mesh rule still blocks multi-hop IBGP without a reflector."""

    RR_TOPOLOGY = {
        # ext -ebgp- client1 -ibgp- rr -ibgp- client2
        "ext": (
            "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n"
            "!\nrouter bgp 64900\n network 20.0.0.0 mask 255.0.0.0\n"
            " neighbor 10.0.0.2 remote-as 65002\n"
        ),
        "client1": (
            "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
            "!\ninterface Serial1\n ip address 10.0.0.5 255.255.255.252\n"
            "!\nrouter bgp 65002\n neighbor 10.0.0.1 remote-as 64900\n"
            " neighbor 10.0.0.6 remote-as 65002\n"
        ),
        "rr": (
            "interface Serial0\n ip address 10.0.0.6 255.255.255.252\n"
            "!\ninterface Serial1\n ip address 10.0.0.9 255.255.255.252\n"
            "!\nrouter bgp 65002\n"
            " neighbor 10.0.0.5 remote-as 65002\n"
            " neighbor 10.0.0.5 route-reflector-client\n"
            " neighbor 10.0.0.10 remote-as 65002\n"
            " neighbor 10.0.0.10 route-reflector-client\n"
        ),
        "client2": (
            "interface Serial0\n ip address 10.0.0.10 255.255.255.252\n"
            "!\nrouter bgp 65002\n neighbor 10.0.0.9 remote-as 65002\n"
        ),
    }

    def test_client_learns_through_reflector(self):
        sim = simulate(self.RR_TOPOLOGY)
        route = sim.lookup("client2", "20.1.2.3")
        assert route is not None
        assert route.via_ibgp

    def test_reflector_itself_learns(self):
        sim = simulate(self.RR_TOPOLOGY)
        assert sim.can_reach("rr", "20.1.2.3")

    def test_without_client_flag_route_stops_at_rr(self):
        flat = {
            name: text.replace(" neighbor 10.0.0.5 route-reflector-client\n", "")
            .replace(" neighbor 10.0.0.10 route-reflector-client\n", "")
            for name, text in self.RR_TOPOLOGY.items()
        }
        sim = simulate(flat)
        assert sim.can_reach("rr", "20.1.2.3")
        assert not sim.can_reach("client2", "20.1.2.3")

    def test_backbone_template_distributes_external_routes(self):
        """The RR-based backbone design actually works in simulation:
        every router's RIB holds the externally announced prefix."""
        from repro.synth.templates.backbone import build_backbone

        configs, _spec = build_backbone("bbs", 8, 12, seed=3, pop_size=4)
        net = Network.from_configs(configs)
        # Inject a route at one border by announcing it over EBGP: simulate
        # with the border's BGP originating its network statement, which
        # the template already configures.
        sim = RoutingSimulation(net).run()
        announced = next(
            stmt.prefix()
            for router in net.routers.values()
            if router.config.bgp_process
            for stmt in router.config.bgp_process.networks
        )
        reached = sum(
            1 for name in net.routers if sim.can_reach(name, announced.network + 1)
        )
        assert reached == len(net.routers)


class TestInterfaceDistributeLists:
    """Per-interface distribute-lists (the paper configlet's
    'distribute-list 44 in Serial1/0.5')."""

    def make(self, iface_qualifier):
        configs = dict(CHAIN)
        # Filter r1's inbound OSPF routes on its Serial0 only.
        configs["r1"] = configs["r1"].replace(
            "router ospf 1\n",
            f"router ospf 1\n distribute-list 44 in{iface_qualifier}\n",
        ) + (
            "access-list 44 deny 10.3.0.0 0.0.0.255\n"
            "access-list 44 permit any\n"
        )
        return configs

    def test_filter_on_the_adjacency_interface_applies(self):
        sim = simulate(self.make(" Serial0"))
        assert not sim.can_reach("r1", "10.3.0.50")

    def test_filter_on_another_interface_does_not_apply(self):
        sim = simulate(self.make(" Ethernet0"))
        assert sim.can_reach("r1", "10.3.0.50")

    def test_unqualified_filter_applies_everywhere(self):
        sim = simulate(self.make(""))
        assert not sim.can_reach("r1", "10.3.0.50")


class TestLocalPreference:
    """BGP LOCAL_PREF in the decision process: higher wins within BGP,
    set by inbound route maps, never carried across EBGP."""

    def topology(self):
        # b peers with two upstreams (x preferred via local-pref 200).
        return {
            "x": (
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n"
                "!\nrouter bgp 65001\n network 20.0.0.0 mask 255.0.0.0\n"
                " neighbor 10.0.0.2 remote-as 65002\n"
            ),
            "y": (
                "interface Serial0\n ip address 10.0.0.5 255.255.255.252\n"
                "!\nrouter bgp 65003\n network 20.0.0.0 mask 255.0.0.0\n"
                " neighbor 10.0.0.6 remote-as 65002\n"
            ),
            "b": (
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
                "!\ninterface Serial1\n ip address 10.0.0.6 255.255.255.252\n"
                "!\nrouter bgp 65002\n"
                " neighbor 10.0.0.1 remote-as 65001\n"
                " neighbor 10.0.0.1 route-map PREFER in\n"
                " neighbor 10.0.0.5 remote-as 65003\n"
                "!\nroute-map PREFER permit 10\n set local-preference 200\n"
            ),
        }

    def test_higher_local_pref_wins(self):
        sim = simulate(self.topology())
        route = sim.lookup("b", "20.1.1.1")
        assert route.local_pref == 200
        assert route.as_path == (65001,)

    def test_without_policy_both_equal(self):
        configs = self.topology()
        configs["b"] = configs["b"].replace(
            " neighbor 10.0.0.1 route-map PREFER in\n", ""
        )
        sim = simulate(configs)
        route = sim.lookup("b", "20.1.1.1")
        assert route.local_pref == 100

    def test_local_pref_not_exported_over_ebgp(self):
        configs = self.topology()
        # Add a downstream EBGP customer of b.
        configs["c"] = (
            "interface Serial0\n ip address 10.0.0.9 255.255.255.252\n"
            "!\nrouter bgp 65004\n neighbor 10.0.0.10 remote-as 65002\n"
        )
        configs["b"] = configs["b"].replace(
            "router bgp 65002\n",
            "router bgp 65002\n neighbor 10.0.0.9 remote-as 65004\n",
        ).replace(
            "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n",
            "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
            "!\ninterface Serial2\n ip address 10.0.0.10 255.255.255.252\n",
        )
        sim = simulate(configs)
        route = sim.lookup("c", "20.1.1.1")
        assert route is not None
        assert route.local_pref == 100


class TestOspfCosts:
    """OSPF interface costs derive from bandwidth (ref 100 Mbit)."""

    def test_bandwidth_changes_metric(self):
        configs = dict(CHAIN)
        # r1's Serial0 is a T1: cost 100000/1544 = 64.
        configs["r1"] = configs["r1"].replace(
            "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n",
            "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n"
            " bandwidth 1544\n",
        )
        sim = simulate(configs)
        route = sim.lookup("r1", "10.3.0.50")
        # Last hop into r1 costs 64 instead of 1; r2's hop stays 1.
        assert route.metric == 64 + 1

    def test_default_remains_hop_count(self):
        sim = simulate(CHAIN)
        assert sim.lookup("r1", "10.3.0.50").metric == 2

    def test_cost_steers_path_choice(self):
        # Square: r1-r2-r4 (fast) vs r1-r3-r4 (slow serial on r1<-r3 path).
        configs = {
            "r1": (
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n"
                "!\ninterface Serial1\n ip address 10.0.0.5 255.255.255.252\n"
                " bandwidth 64\n"
                "!\nrouter ospf 1\n network 10.0.0.0 0.0.0.7 area 0\n"
            ),
            "r2": (
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
                "!\ninterface Serial1\n ip address 10.0.0.9 255.255.255.252\n"
                "!\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
                " network 10.0.0.8 0.0.0.3 area 0\n"
            ),
            "r3": (
                "interface Serial0\n ip address 10.0.0.6 255.255.255.252\n"
                "!\ninterface Serial1\n ip address 10.0.0.13 255.255.255.252\n"
                "!\nrouter ospf 1\n network 10.0.0.4 0.0.0.3 area 0\n"
                " network 10.0.0.12 0.0.0.3 area 0\n"
            ),
            "r4": (
                "interface Serial0\n ip address 10.0.0.10 255.255.255.252\n"
                "!\ninterface Serial1\n ip address 10.0.0.14 255.255.255.252\n"
                "!\ninterface Ethernet0\n ip address 10.4.0.1 255.255.255.0\n"
                "!\nrouter ospf 1\n network 10.0.0.8 0.0.0.7 area 0\n"
                " network 10.4.0.0 0.0.0.255 area 0\n"
            ),
        }
        sim = simulate(configs)
        assert sim.trace("r1", "10.4.0.9") == ["r1", "r2", "r4"]


class TestDefaultInformationOriginate:
    def test_default_floods_through_ospf(self):
        configs = dict(CHAIN)
        configs["r1"] = configs["r1"].replace(
            "router ospf 1\n",
            "router ospf 1\n default-information originate\n",
        )
        sim = simulate(configs)
        route = sim.lookup("r3", "99.99.99.99")  # only the default matches
        assert route is not None
        assert route.prefix == Prefix("0.0.0.0/0")
        assert route.protocol == "ospf"

    def test_no_default_without_origination(self):
        sim = simulate(CHAIN)
        assert not sim.can_reach("r3", "99.99.99.99")


class TestSummaryAddress:
    """OSPF summary-address collapses redistributed routes (the enterprise
    "craft a small number of key routes" move of §3.1)."""

    def topology(self, with_summary: bool):
        summary = " summary-address 99.0.0.0 255.0.0.0\n" if with_summary else ""
        configs = dict(CHAIN)
        configs["r1"] = (
            configs["r1"].replace(
                "router ospf 1\n",
                "router ospf 1\n redistribute static subnets\n" + summary,
            )
            + "ip route 99.1.0.0 255.255.0.0 10.0.0.2\n"
            + "ip route 99.2.0.0 255.255.0.0 10.0.0.2\n"
            + "ip route 99.3.0.0 255.255.0.0 10.0.0.2\n"
        )
        return configs

    def test_summary_collapses_specifics(self):
        sim = simulate(self.topology(with_summary=True))
        rib = sim.process_ribs[("r3", "ospf", 1)]
        assert Prefix("99.0.0.0/8") in rib
        assert Prefix("99.1.0.0/16") not in rib
        assert sim.can_reach("r3", "99.2.5.5")

    def test_without_summary_specifics_flood(self):
        sim = simulate(self.topology(with_summary=False))
        rib = sim.process_ribs[("r3", "ospf", 1)]
        assert Prefix("99.1.0.0/16") in rib
        assert Prefix("99.0.0.0/8") not in rib

    def test_roundtrip(self):
        from repro.ios import parse_config, serialize_config

        text = "router ospf 1\n summary-address 99.0.0.0 255.0.0.0\n"
        first = parse_config(text)
        second = parse_config(serialize_config(first))
        assert first.ospf_processes == second.ospf_processes


class TestEdgeCases:
    def test_shutdown_interface_originates_nothing(self):
        configs = dict(CHAIN)
        configs["r3"] = configs["r3"].replace(
            "interface Ethernet0\n ip address 10.3.0.1 255.255.255.0\n",
            "interface Ethernet0\n ip address 10.3.0.1 255.255.255.0\n shutdown\n",
        )
        sim = simulate(configs)
        assert not sim.can_reach("r1", "10.3.0.50")

    def test_longest_prefix_match(self):
        configs = dict(CHAIN)
        configs["r1"] += (
            "ip route 10.3.0.0 255.255.255.128 10.0.0.2\n"
            "ip route 10.3.0.0 255.255.255.0 10.0.0.2\n"
        )
        net = Network.from_configs(configs)
        sim = RoutingSimulation(net).run()
        route = sim.lookup("r1", "10.3.0.5")
        assert route.prefix == Prefix("10.3.0.0/25")

    def test_failed_router_has_no_rib(self):
        sim = simulate(CHAIN, failed_routers=["r3"])
        assert sim.router_rib("r3") == {}
        assert sim.reachable_destinations("r3") == []

    def test_lookup_unknown_router(self):
        sim = simulate(CHAIN)
        assert sim.lookup("ghost", "10.0.0.1") is None

    def test_trace_stops_on_loop_or_dead_end(self):
        sim = simulate(CHAIN, failed_subnets=["10.0.0.4/30"])
        path = sim.trace("r1", "10.3.0.50")
        assert path[0] == "r1"
        assert len(path) <= 3

    def test_static_route_beats_igp(self):
        configs = dict(CHAIN)
        # r1 statically routes r3's LAN somewhere else: AD 1 beats OSPF 110.
        configs["r1"] += "ip route 10.3.0.0 255.255.255.0 10.0.0.2\n"
        sim = simulate(configs)
        assert sim.lookup("r1", "10.3.0.50").protocol == "static"

    def test_connected_subnet_always_present(self):
        sim = simulate(CHAIN)
        for router in CHAIN:
            rib = sim.router_rib(router)
            assert any(r.protocol == "connected" for r in rib.values())


P2P = "255.255.255.252"


def interface(name, address, mask=P2P, options=""):
    return f"interface {name}\n ip address {address} {mask}\n{options}!\n"


#: One OSPF process covering every 10/8 and 99/8 interface.
OSPF_ALL = (
    "router ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n"
    " network 99.0.0.0 0.255.255.255 area 0\n"
)


class TestSemiNaiveEdges:
    """Each transfer edge sends only what changed since it last read its
    source.  These topologies break a simulator whose marks are shared
    between edges, or whose new routes leave in stamp order rather than
    the source RIB's order; the reference re-sends everything."""

    def assert_matches_reference(self, configs, *failed_subnets):
        network = Network.from_configs(configs)
        for failure in ((),) + tuple((subnet,) for subnet in failed_subnets):
            for budget in (1, 2, 1000):
                runs = [
                    engine(network, failed_subnets=failure).run(
                        max_iterations=budget, on_divergence="degrade"
                    )
                    for engine in (RoutingSimulation, FullResendSimulation)
                ]
                assert state(runs[0]) == state(runs[1]), (failure, budget)
        return RoutingSimulation(network).run()

    def test_parallel_links_keep_one_mark_per_adjacency_direction(self):
        # r1 and r2 share two links.  r1's inbound distribute-list and
        # slow bandwidth sit on Serial0 only, so the two directions of
        # the adjacency filter and cost differently.  The model forms one
        # adjacency per process pair, on the first link.
        configs = {
            "r1": (
                interface("Serial0", "10.0.0.1", options=" bandwidth 1544\n")
                + interface("Serial1", "10.0.0.5")
                + interface("Ethernet0", "10.1.0.1", "255.255.255.0")
                + OSPF_ALL
                + " distribute-list 44 in Serial0\n"
                + "access-list 44 deny 10.2.0.0 0.0.0.255\n"
                + "access-list 44 permit any\n"
            ),
            "r2": (
                interface("Serial0", "10.0.0.2")
                + interface("Serial1", "10.0.0.6")
                + interface("Ethernet0", "10.2.0.1", "255.255.255.0")
                + interface("Ethernet1", "10.3.0.1", "255.255.255.0")
                + OSPF_ALL
            ),
        }
        sim = self.assert_matches_reference(configs, "10.0.0.0/30", "10.0.0.4/30")
        r1_ospf = sim.process_ribs[("r1", "ospf", 1)]
        assert Prefix("10.2.0.0/24") not in r1_ospf  # filtered on the way in
        assert r1_ospf[Prefix("10.3.0.0/24")].metric == 64  # 100000 // 1544
        assert sim.lookup("r2", "10.1.0.9").metric == 1

    def test_adjacencies_sharing_a_link_keep_their_own_marks(self):
        # Three routers on one Ethernet: three adjacencies, one subnet.
        lan = "255.255.255.0"
        configs = {
            name: (
                interface("Ethernet0", f"10.9.0.{host}", lan)
                + interface("Ethernet1", f"10.{host}.0.1", lan)
                + OSPF_ALL
            )
            for name, host in (("a", 1), ("b", 2), ("c", 3))
        }
        sim = self.assert_matches_reference(configs)
        for router in ("b", "c"):
            route = sim.lookup(router, "10.1.0.9")
            assert (route.metric, route.via_router) == (1, "a")

    def test_summary_folds_new_routes_in_source_order(self):
        # r2 redistributes OSPF 1 into OSPF 2 under a 99/8 summary.  In
        # round 1 r2 learns 99.2/16 over two hops (via r4), then 99.1/16
        # and 99.3/16 from r1, then 99.2/16 over one hop from r3: the
        # improvement keeps its early slot in the RIB but takes the
        # newest stamp.  Round 2 redistributes all three at metric 1;
        # the first one sent becomes the summary, and in RIB order that
        # is r3's route, in stamp order r1's.
        configs = {
            "r1": (
                interface("Serial0", "10.0.0.9")
                + interface("Ethernet0", "99.1.0.1", "255.255.0.0")
                + interface("Ethernet1", "99.3.0.1", "255.255.0.0")
                + OSPF_ALL
            ),
            "r2": (
                interface("Serial0", "10.0.0.5")
                + interface("Serial1", "10.0.0.10")
                + interface("Serial2", "10.0.0.13")
                + interface("Serial3", "172.16.0.1")
                + OSPF_ALL
                + "router ospf 2\n redistribute ospf 1 subnets\n"
                " summary-address 99.0.0.0 255.0.0.0\n"
                " network 172.16.0.0 0.0.0.3 area 0\n"
            ),
            "r3": (
                interface("Serial0", "10.0.0.1")
                + interface("Serial1", "10.0.0.14")
                + interface("Ethernet0", "99.2.0.1", "255.255.0.0")
                + OSPF_ALL
            ),
            "r4": interface("Serial0", "10.0.0.2") + interface("Serial1", "10.0.0.6") + OSPF_ALL,
            "r5": (
                interface("Serial0", "172.16.0.2")
                + "router ospf 2\n network 172.16.0.0 0.0.0.3 area 0\n"
            ),
        }
        sim = self.assert_matches_reference(configs, "10.0.0.12/30")
        folded = sim.process_ribs[("r2", "ospf", 2)]
        assert [p for p in folded if Prefix("99.0.0.0/8").contains(p)] == [
            Prefix("99.0.0.0/8")
        ]
        assert folded[Prefix("99.0.0.0/8")].origin_router == "r3"
        assert sim.lookup("r5", "99.3.1.1").prefix == Prefix("99.0.0.0/8")

    def test_source_route_improved_after_it_was_read_is_resent(self):
        # Adjacencies run r1-r3 (slow into r3), r3-r4, r1-r2, r2-r3.  In
        # round 1 r3 learns r1's LAN over the slow link (1562), passes it
        # to r4, then improves it to 2 through r2; r3 -> r4 must re-send
        # it in round 2.
        configs = {
            "r1": (
                interface("Serial0", "10.0.0.1")
                + interface("Serial1", "10.0.0.9")
                + interface("Ethernet0", "10.1.0.1", "255.255.255.0")
                + OSPF_ALL
            ),
            "r2": interface("Serial0", "10.0.0.10") + interface("Serial1", "10.0.0.13") + OSPF_ALL,
            "r3": (
                interface("Serial0", "10.0.0.2", options=" bandwidth 64\n")
                + interface("Serial1", "10.0.0.5")
                + interface("Serial2", "10.0.0.14")
                + OSPF_ALL
            ),
            "r4": interface("Serial0", "10.0.0.6") + OSPF_ALL,
        }
        sim = self.assert_matches_reference(configs, "10.0.0.8/30")
        partial = RoutingSimulation(Network.from_configs(configs)).run(
            max_iterations=1, on_divergence="degrade"
        )
        assert partial.lookup("r4", "10.1.0.9").metric == 1563  # read before
        assert sim.lookup("r4", "10.1.0.9").metric == 3  # r1-r2-r3-r4

    def test_parallel_bgp_sessions_keep_their_own_marks(self):
        # Two EBGP sessions between the same two BGP processes; only the
        # first filters 20/8, so 20/8 arrives over the second.
        configs = {
            "a": (
                interface("Serial0", "10.0.0.1")
                + interface("Serial1", "10.0.0.5")
                + "router bgp 65001\n network 20.0.0.0 mask 255.0.0.0\n"
                " network 30.0.0.0 mask 255.0.0.0\n"
                " neighbor 10.0.0.2 remote-as 65002\n"
                " neighbor 10.0.0.6 remote-as 65002\n"
            ),
            "b": (
                interface("Serial0", "10.0.0.2")
                + interface("Serial1", "10.0.0.6")
                + "router bgp 65002\n neighbor 10.0.0.1 remote-as 65001\n"
                " neighbor 10.0.0.1 distribute-list 7 in\n"
                " neighbor 10.0.0.5 remote-as 65001\n"
                "access-list 7 deny 20.0.0.0 0.255.255.255\n"
                "access-list 7 permit any\n"
            ),
        }
        sim = self.assert_matches_reference(configs)
        assert sim.can_reach("b", "20.1.2.3")
        assert sim.can_reach("b", "30.1.2.3")
