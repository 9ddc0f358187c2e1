"""Cross-validation between the two substrates.

The static set-algebra analysis (repro.core.reachability) and the dynamic
control-plane simulator (repro.routing) answer overlapping questions; when
both can answer, they must agree.  These tests keep the two honest with
each other.
"""

import pytest

from repro.core import ReachabilityAnalysis
from repro.model import Network
from repro.routing import RoutingSimulation
from repro.synth.templates.net15 import build_net15


@pytest.fixture(scope="module")
def net15_pair():
    configs, spec = build_net15(scale=0.3, name="xval")
    network = Network.from_configs(configs, name="xval")
    analysis = ReachabilityAnalysis(network)
    simulation = RoutingSimulation(network).run()
    return network, spec, analysis, simulation


class TestReachabilityVsSimulation:
    def test_site_isolation_agrees(self, net15_pair):
        network, spec, analysis, simulation = net15_pair
        left_lan = None
        right_lan = None
        for name, router in network.routers.items():
            for iface in router.config.interfaces.values():
                if iface.kind != "FastEthernet" or iface.prefix is None:
                    continue
                if name in spec.notes["left_ospf_routers"]:
                    left_lan = (name, iface.prefix)
                elif name in spec.notes["right_ospf_routers"]:
                    right_lan = (name, iface.prefix)
        assert left_lan and right_lan

        # Static analysis: no route toward the other site's block.
        from repro.net import Prefix

        ab2 = Prefix(spec.notes["ab2"][0])
        ab4 = Prefix(spec.notes["ab4"][0])
        assert not analysis.can_send(ab2, ab4)

        # Dynamic simulation agrees: a left router has no RIB entry for a
        # right-site LAN host, and vice versa.
        left_router, left_prefix = left_lan
        right_router, right_prefix = right_lan
        assert not simulation.can_reach(left_router, right_prefix.network + 1)
        assert not simulation.can_reach(right_router, left_prefix.network + 1)

    def test_intra_site_reachability_agrees(self, net15_pair):
        network, spec, analysis, simulation = net15_pair
        left = spec.notes["left_ospf_routers"]
        # Any left router reaches any other left router's LAN both ways.
        lans = [
            (name, iface.prefix)
            for name in left
            for iface in network.routers[name].config.interfaces.values()
            if iface.kind == "FastEthernet" and iface.prefix is not None
        ]
        if len(lans) >= 2:
            (router_a, prefix_a), (router_b, prefix_b) = lans[0], lans[-1]
            assert simulation.can_reach(router_a, prefix_b.network + 1)
            assert simulation.can_reach(router_b, prefix_a.network + 1)
            assert analysis.can_communicate(prefix_a, prefix_b)

    def test_predicted_load_bounds_simulated_load(self, net15_pair):
        network, _spec, analysis, simulation = net15_pair
        instances = analysis.instances
        for instance in instances:
            if instance.protocol != "ospf":
                continue
            predicted = analysis.predicted_route_load(instance.instance_id)
            # Simulated per-process route counts include per-link subnets,
            # which the instance-level origins summarize; compare against
            # the summarized static bound with generous slack in one
            # direction only: simulation must not exceed the static bound
            # by more than the number of unsummarized internal subnets.
            simulated = max(
                simulation.process_route_count(key) for key in instance.processes
            )
            internal_subnets = sum(
                1
                for key in instance.processes
                for _n in network.processes[key].covered_interfaces
            )
            assert simulated <= predicted + internal_subnets

    def test_external_world_unreachable_without_admittance(self, net15_pair):
        network, spec, _analysis, simulation = net15_pair
        # An external destination outside A1/A3/A5 has no route anywhere.
        some_router = spec.notes["left_ospf_routers"][1]
        assert not simulation.can_reach(some_router, "8.8.8.8")


#: A router that declares ``router eigrp 20`` before ``router eigrp 10``
#: and redistributes EIGRP into OSPF without naming an AS.
IDLESS_REDISTRIBUTE = {
    "A": """hostname A
interface Loopback0
 ip address 10.10.0.1 255.255.255.0
interface Loopback1
 ip address 10.20.0.1 255.255.255.0
interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
router eigrp 20
 network 10.20.0.0 0.0.0.255
router eigrp 10
 network 10.10.0.0 0.0.0.255
router ospf 1
 redistribute eigrp subnets
 network 10.0.0.0 0.0.0.3 area 0
""",
    "B": """hostname B
interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
""",
}


def test_idless_redistribute_reads_the_same_process_in_both_substrates():
    # One source rule: a ``redistribute`` without an id reads the
    # lowest-id process of that protocol (EIGRP 10 here), whatever the
    # declaration order, in the set algebra and in the simulator alike.
    from repro.net import Prefix

    network = Network.from_configs(IDLESS_REDISTRIBUTE, name="idless")
    lowest, other = Prefix("10.10.0.0/24"), Prefix("10.20.0.0/24")

    simulation = RoutingSimulation(network).run()
    peer_rib = simulation.process_ribs[("B", "ospf", 1)]
    assert lowest in peer_rib
    assert other not in peer_rib

    analysis = ReachabilityAnalysis(network)
    ospf = next(i for i in analysis.instances if i.protocol == "ospf")
    assert analysis.routes_of(ospf.instance_id).covers(lowest)
    assert not analysis.routes_of(ospf.instance_id).overlaps(other)
