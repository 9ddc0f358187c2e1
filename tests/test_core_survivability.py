"""Survivability analysis tests (§8.1)."""

from repro.core.survivability import (
    analyze_survivability,
    articulation_routers,
    bridge_links,
    instance_couplings,
    physical_topology,
    static_route_conflicts,
)
from repro.model import Network
from repro.net import Prefix

CHAIN = {
    "a": "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n",
    "b": (
        "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
        "!\ninterface Serial1\n ip address 10.0.0.5 255.255.255.252\n"
    ),
    "c": "interface Serial0\n ip address 10.0.0.6 255.255.255.252\n",
}


class TestPhysical:
    def test_topology_graph(self):
        net = Network.from_configs(CHAIN)
        graph = physical_topology(net)
        assert set(graph.nodes) == {"a", "b", "c"}
        assert graph.number_of_edges() == 2

    def test_chain_articulation_point(self):
        net = Network.from_configs(CHAIN)
        assert articulation_routers(net) == ["b"]

    def test_chain_bridges(self):
        net = Network.from_configs(CHAIN)
        assert bridge_links(net) == [Prefix("10.0.0.0/30"), Prefix("10.0.0.4/30")]

    def test_ring_has_no_spof(self):
        ring = dict(CHAIN)
        ring["a"] += "interface Serial1\n ip address 10.0.0.9 255.255.255.252\n"
        ring["c"] += "interface Serial1\n ip address 10.0.0.10 255.255.255.252\n"
        net = Network.from_configs(ring)
        assert articulation_routers(net) == []
        assert bridge_links(net) == []

    def test_backbone_core_is_redundant(self, backbone_net):
        net, _spec = backbone_net
        # The PoP-ring design keeps the core 2-connected except for
        # single-homed access routers.
        graph = physical_topology(net)
        import networkx as nx

        assert nx.is_connected(graph)


class TestInstanceCouplings:
    def test_net5_glue_redundancy(self, net5_small):
        net, spec = net5_small
        couplings = instance_couplings(net)
        glue = set(spec.notes["glue_ab_routers"])
        # Find the coupling carried by the glue routers.
        matching = [c for c in couplings if c.routers == glue]
        assert matching, "the compartment glue must appear as a coupling"
        assert matching[0].redundancy == len(glue)
        assert "redistribution" in matching[0].mechanisms

    def test_net5_has_ebgp_couplings(self, net5_small):
        net, _spec = net5_small
        couplings = instance_couplings(net)
        assert any("ebgp" in c.mechanisms for c in couplings)

    def test_enterprise_border_coupling(self, enterprise_net):
        net, _spec = enterprise_net
        couplings = instance_couplings(net)
        # BGP instance couples to the OSPF instance through the borders.
        assert couplings
        assert all(c.redundancy >= 1 for c in couplings)

    def test_single_point_of_failure_flag(self):
        configs = {
            "border": (
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n"
                "!\ninterface Serial1\n ip address 10.0.1.1 255.255.255.252\n"
                "!\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
                "!\nrouter eigrp 9\n network 10.0.1.0 0.0.0.3\n"
                " redistribute ospf 1 metric 100\n"
            ),
            "left": (
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
                "!\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
            ),
            "right": (
                "interface Serial0\n ip address 10.0.1.2 255.255.255.252\n"
                "!\nrouter eigrp 9\n network 10.0.1.0 0.0.0.3\n"
            ),
        }
        net = Network.from_configs(configs)
        (coupling,) = instance_couplings(net)
        assert coupling.is_single_point_of_failure
        assert coupling.routers == {"border"}


class TestStaticConflicts:
    def test_shared_destination_flagged(self):
        configs = dict(CHAIN)
        configs["a"] += "ip route 99.0.0.0 255.0.0.0 10.0.0.2\n"
        configs["c"] += "ip route 99.0.0.0 255.0.0.0 10.0.0.5\n"
        net = Network.from_configs(configs)
        conflicts = static_route_conflicts(net)
        assert conflicts == {Prefix("99.0.0.0/8"): ["a", "c"]}

    def test_unique_destinations_not_flagged(self):
        configs = dict(CHAIN)
        configs["a"] += "ip route 99.0.0.0 255.0.0.0 10.0.0.2\n"
        net = Network.from_configs(configs)
        assert static_route_conflicts(net) == {}


class TestFullReport:
    def test_report_shape(self, net5_small):
        net, _spec = net5_small
        report = analyze_survivability(net)
        assert isinstance(report.articulation_routers, list)
        assert isinstance(report.couplings, list)
        # Hub-and-spoke compartments make hubs articulation points.
        assert report.articulation_routers
        # The fragile-couplings view is a subset of all couplings.
        assert set(
            (c.instance_a, c.instance_b) for c in report.fragile_couplings
        ) <= set((c.instance_a, c.instance_b) for c in report.couplings)


class TestBoundedCouplings:
    """The ``max_couplings`` knob the executor's degradation ladder uses."""

    def test_coupling_cap_truncates_and_flags(self, fig1):
        net, _ = fig1
        full = analyze_survivability(net)
        capped = analyze_survivability(net, max_couplings=0)
        assert len(full.couplings) > 0
        assert not full.truncated
        assert len(capped.couplings) == 0
        assert capped.truncated

    def test_generous_cap_matches_full(self, fig1):
        net, _ = fig1
        full = analyze_survivability(net)
        capped = analyze_survivability(net, max_couplings=10_000)
        assert len(capped.couplings) == len(full.couplings)
        assert not capped.truncated
