"""Route pathway graph tests (§3.3, Figures 7 and 10)."""

import pytest

from repro.core import build_instance_graph, compute_instances, route_pathway
from repro.core import pathways as pathways_module
from repro.core.instances import instance_of
from repro.core.pathways import ROUTER_RIB, route_pathways
from repro.model import Network
from repro.synth.templates.example_fig1 import build_example_networks
from tests.test_compress_certify import CASES


@pytest.fixture(scope="module")
def split_networks():
    """The Figure 1 example analyzed per administrative domain, so the
    enterprise sees the backbone as external (as in Figure 7)."""
    configs, meta = build_example_networks()
    enterprise = Network.from_configs(
        {name: configs[name] for name in meta["enterprise_routers"]},
        name="enterprise",
    )
    backbone = Network.from_configs(
        {name: configs[name] for name in meta["backbone_routers"]},
        name="backbone",
    )
    return enterprise, backbone


class TestFig7Enterprise:
    def test_router1_pathway(self, split_networks):
        enterprise, _ = split_networks
        pathway = route_pathway(enterprise, "R1")
        # Figure 7(a): Router RIB <- OSPF instance <- BGP instance <- external.
        assert pathway.layers[ROUTER_RIB] == 0
        assert pathway.reaches_external
        assert pathway.external_depth() == 3

    def test_router1_sees_one_ospf_instance_directly(self, split_networks):
        enterprise, _ = split_networks
        pathway = route_pathway(enterprise, "R1")
        depth_one = [n for n, d in pathway.layers.items() if d == 1]
        assert len(depth_one) == 1

    def test_border_router_direct_instances(self, split_networks):
        enterprise, _ = split_networks
        pathway = route_pathway(enterprise, "R2")
        # R2 runs ospf 64, ospf 128, and BGP: three depth-1 instances.
        depth_one = [n for n, d in pathway.layers.items() if d == 1]
        assert len(depth_one) == 3
        assert pathway.external_depth() == 2


class TestFig7Backbone:
    def test_router5_pathway(self, split_networks):
        _, backbone = split_networks
        pathway = route_pathway(backbone, "R5")
        # Figure 7(b): external routes arrive via the BGP instance directly.
        assert pathway.external_depth() == 2
        depth_one = [n for n, d in pathway.layers.items() if d == 1]
        assert len(depth_one) == 2  # the OSPF instance and the BGP instance

    def test_backbone_ospf_not_on_external_path(self, split_networks):
        _, backbone = split_networks
        instances = compute_instances(backbone)
        pathway = route_pathway(backbone, "R5", instances=instances)
        ospf_id = next(i.instance_id for i in instances if i.protocol == "ospf")
        # The hallmark: external routes never flow through the IGP, so the
        # OSPF instance has no incoming edge in the pathway graph.
        assert not list(pathway.graph.predecessors(ospf_id))


class TestNet5Pathway:
    def test_middle_router_depth_at_least_three(self, net5_small):
        net, spec = net5_small
        pathway = route_pathway(net, spec.notes["middle_router"])
        # §5.1: external routes cross at least 3 layers of protocols and
        # redistribution before reaching the middle of net5.
        assert pathway.external_depth() is not None
        assert pathway.external_depth() >= 3

    def test_unknown_router_raises(self, net5_small):
        net, _ = net5_small
        with pytest.raises(KeyError):
            route_pathway(net, "nonexistent")


class TestPathwayShape:
    def test_bfs_layer_invariant(self, split_networks):
        enterprise, _ = split_networks
        pathway = route_pathway(enterprise, "R1")
        # BFS guarantees a source is discovered at most one layer beyond
        # its consumer (bidirectional exchanges create same-layer edges).
        for source, target in pathway.graph.edges:
            assert pathway.layers[source] <= pathway.layers[target] + 1

    def test_depth_property(self, split_networks):
        enterprise, _ = split_networks
        pathway = route_pathway(enterprise, "R1")
        assert pathway.depth == max(pathway.layers.values())

    def test_instances_listing(self, split_networks):
        enterprise, _ = split_networks
        pathway = route_pathway(enterprise, "R1")
        assert all(isinstance(i, int) for i in pathway.instances)


class TestPolicyLocation:
    """§3.3: pathways locate the policies affecting a router's routes."""

    def test_enterprise_pathway_carries_border_policy(self, split_networks):
        enterprise, _ = split_networks
        pathway = route_pathway(enterprise, "R1")
        # R2's EXT-SUMMARY route map governs what R1 can ever learn.
        names = {name for _s, _t, name in pathway.policies}
        assert "EXT-SUMMARY" in names

    def test_backbone_pathway_has_no_redistribution_policies(self, split_networks):
        _, backbone = split_networks
        pathway = route_pathway(backbone, "R5")
        assert pathway.policies == []

    def test_net5_pathway_locates_compartment_policies(self, net5_small):
        net, spec = net5_small
        pathway = route_pathway(net, spec.notes["middle_router"])
        names = {name for _s, _t, name in pathway.policies}
        # The address-based compartment route maps of §6.1.
        assert any(name.startswith("INTO-EIGRP") for name in names)
        assert any(name.startswith("FROM-EIGRP") for name in names)


def _dual_ospf_configs(map_r1: str, map_r2: str):
    """Two routers, two links, two OSPF instances spanning both routers.

    Each router redistributes ospf 2 into ospf 1 under its own route map,
    so the instance graph carries two *parallel* redistribution edges
    between the same pair of instances (a MultiDiGraph necessity).
    """
    template = (
        "hostname {name}\n"
        "interface Serial0\n ip address 10.0.0.{host} 255.255.255.252\n"
        "!\ninterface Serial1\n ip address 10.0.1.{host} 255.255.255.252\n"
        "!\nroute-map {rmap} permit 10\n"
        "!\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
        " redistribute ospf 2 route-map {rmap} subnets\n"
        "!\nrouter ospf 2\n network 10.0.1.0 0.0.0.3 area 0\n"
    )
    return {
        "r1": template.format(name="r1", host=1, rmap=map_r1),
        "r2": template.format(name="r2", host=2, rmap=map_r2),
    }


class TestParallelRedistributionEdges:
    """Parallel MultiDiGraph edges between one instance pair (§3.3)."""

    def test_distinct_route_maps_on_parallel_edges_both_collected(self):
        net = Network.from_configs(_dual_ospf_configs("MAP-A", "MAP-B"))
        instances = compute_instances(net)
        assert len(instances) == 2  # ospf 1 and ospf 2, each spanning both
        pathway = route_pathway(net, "r1")
        names = {name for _s, _t, name in pathway.policies}
        # Each parallel edge carries its own policy; losing either means
        # the audit would miss a route map that shapes r1's routes.
        assert names == {"MAP-A", "MAP-B"}

    def test_parallel_edges_share_pathway_endpoints(self):
        net = Network.from_configs(_dual_ospf_configs("MAP-A", "MAP-B"))
        pathway = route_pathway(net, "r1")
        endpoints = {(s, t) for s, t, _name in pathway.policies}
        assert len(endpoints) == 1  # same instance pair, two policies

    def test_same_route_map_on_parallel_edges_deduplicated(self):
        net = Network.from_configs(_dual_ospf_configs("MAP-SAME", "MAP-SAME"))
        pathway = route_pathway(net, "r1")
        assert len(pathway.policies) == 1
        assert pathway.policies[0][2] == "MAP-SAME"


class TestBoundedDepth:
    """The ``max_depth`` knob the executor's degradation ladder uses."""

    def test_depth_cap_sets_truncated(self, fig1):
        from repro.core import build_instance_graph

        net, _ = fig1
        instances = compute_instances(net)
        graph = build_instance_graph(net, instances)
        full = route_pathway(net, "R1", instances=instances, instance_graph=graph)
        capped = route_pathway(
            net, "R1", instances=instances, instance_graph=graph, max_depth=1
        )
        assert not full.truncated
        assert capped.truncated

    def test_generous_depth_is_exact(self, fig1):
        from repro.core import build_instance_graph

        net, _ = fig1
        instances = compute_instances(net)
        graph = build_instance_graph(net, instances)
        capped = route_pathway(
            net, "R1", instances=instances, instance_graph=graph, max_depth=100
        )
        assert not capped.truncated


def _shape(pathway):
    """Everything a pathway search produces, in insertion order."""
    return {
        "layers": list(pathway.layers.items()),
        "policies": list(pathway.policies),
        "truncated": pathway.truncated,
        "external_depth": pathway.external_depth(),
        "nodes": list(pathway.graph.nodes(data="label")),
        "edges": list(pathway.graph.edges(data="kind")),
    }


class TestRoutePathways:
    """One search per attachment signature equals one search per router."""

    @pytest.mark.parametrize("max_depth", [None, 2])
    @pytest.mark.parametrize("name,configs", CASES, ids=[c[0] for c in CASES])
    def test_matches_a_fresh_search_per_router(self, name, configs, max_depth, monkeypatch):
        network = Network.from_configs(configs, name=name)
        instances = compute_instances(network)
        graph = build_instance_graph(network, instances)
        membership = instance_of(instances)
        signatures = {
            tuple(membership[proc.key].instance_id for proc in network.processes_on(router))
            for router in network.routers
        }

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return route_pathway(*args, **kwargs)

        # route_pathways must reach the search through the module
        # attribute: wrappers installed there see every search it runs.
        monkeypatch.setattr(pathways_module, "route_pathway", counted)
        shared = route_pathways(
            network, instances=instances, instance_graph=graph, max_depth=max_depth
        )

        assert len(calls) == len(signatures)
        assert list(shared) == sorted(network.routers)
        for router, pathway in shared.items():
            assert pathway.router == router
            fresh = route_pathway(
                network, router, instances=instances, instance_graph=graph,
                max_depth=max_depth,
            )
            assert _shape(pathway) == _shape(fresh), router

    def test_builds_instances_and_graph_when_not_given(self, fig1):
        net, _ = fig1
        shared = route_pathways(net)
        assert {router: _shape(p) for router, p in shared.items()} == {
            router: _shape(route_pathway(net, router)) for router in sorted(net.routers)
        }

    def test_rib_label_does_not_name_the_router(self, fig1):
        net, _ = fig1
        pathway = route_pathway(net, "R1")
        assert pathway.graph.nodes[ROUTER_RIB]["label"] == "Router RIB"
