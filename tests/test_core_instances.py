"""Routing instance computation tests (§3.2)."""

from repro.core import build_instance_graph, compute_instances
from repro.core.instances import find_external_adjacent_instances, instance_of
from repro.core.process_graph import EXTERNAL_NODE
from repro.model import Network


class TestFloodFill:
    def test_fig1_instances(self, fig1):
        net, meta = fig1
        instances = compute_instances(net)
        got = sorted((i.protocol, tuple(sorted(i.routers))) for i in instances)
        want = sorted((p, tuple(sorted(r))) for p, r in meta["expected_instances"])
        assert got == want

    def test_instance_ids_start_at_one_and_are_dense(self, fig1):
        net, _ = fig1
        instances = compute_instances(net)
        assert [i.instance_id for i in instances] == list(range(1, len(instances) + 1))

    def test_deterministic(self, fig1):
        net, _ = fig1
        a = compute_instances(net)
        b = compute_instances(net)
        assert [(i.instance_id, i.protocol, i.routers) for i in a] == [
            (i.instance_id, i.protocol, i.routers) for i in b
        ]

    def test_bgp_instance_asn(self, fig1):
        net, meta = fig1
        instances = compute_instances(net)
        asns = {i.asn for i in instances if i.protocol == "bgp"}
        assert asns == {meta["enterprise_as"], meta["backbone_as"]}

    def test_process_membership_partition(self, fig1):
        net, _ = fig1
        instances = compute_instances(net)
        all_keys = [key for inst in instances for key in inst.processes]
        assert len(all_keys) == len(set(all_keys)) == len(net.processes)

    def test_ebgp_is_a_boundary(self, fig1):
        net, _ = fig1
        instances = compute_instances(net)
        bgp_instances = [i for i in instances if i.protocol == "bgp"]
        assert len(bgp_instances) == 2  # EBGP between them did not merge

    def test_merge_ebgp_ablation(self, fig1):
        # Dropping the EBGP boundary (the DESIGN.md ablation) collapses the
        # two BGP ASs into a single instance.
        net, _ = fig1
        merged = compute_instances(net, merge_ebgp=True)
        bgp_instances = [i for i in merged if i.protocol == "bgp"]
        assert len(bgp_instances) == 1
        assert bgp_instances[0].asn is None  # mixed ASs

    def test_process_ids_have_no_network_semantics(self):
        # Same pid on two routers that are NOT adjacent => two instances.
        config = (
            "interface Ethernet0\n ip address 10.{n}.0.1 255.255.255.0\n"
            "!\nrouter ospf 7\n network 10.{n}.0.0 0.0.0.255 area 0\n"
        )
        net = Network.from_configs(
            {"r1": config.format(n=1), "r2": config.format(n=2)}
        )
        instances = compute_instances(net)
        assert len(instances) == 2

    def test_label(self, fig1):
        net, _ = fig1
        instances = compute_instances(net)
        bgp = next(i for i in instances if i.protocol == "bgp" and i.asn == 12762)
        assert "BGP AS 12762" in bgp.label


class TestExternalAdjacency:
    def test_fig1_external_instances(self, fig1):
        net, meta = fig1
        instances = compute_instances(net)
        external_ids = find_external_adjacent_instances(net, instances)
        by_id = {i.instance_id: i for i in instances}
        external_protocols = {by_id[i].protocol for i in external_ids}
        # Only the backbone BGP instance peers with the missing R7.
        assert external_protocols == {"bgp"}
        external_asns = {by_id[i].asn for i in external_ids}
        assert external_asns == {meta["backbone_as"]}

    def test_igp_with_external_interface_is_external(self, tier2_net):
        net, spec = tier2_net
        instances = compute_instances(net)
        external_ids = find_external_adjacent_instances(net, instances)
        singles = [
            i for i in instances if i.protocol != "bgp" and i.size == 1
        ]
        assert singles  # staging instances exist
        assert all(i.instance_id in external_ids for i in singles)


class TestInstanceGraph:
    def test_fig1_graph_nodes(self, fig1):
        net, _ = fig1
        instances = compute_instances(net)
        graph = build_instance_graph(net, instances)
        ids = {n for n in graph.nodes if isinstance(n, int)}
        assert ids == {i.instance_id for i in instances}
        assert EXTERNAL_NODE in graph.nodes

    def test_fig1_redistribution_edges(self, fig1):
        net, _ = fig1
        instances = compute_instances(net)
        graph = build_instance_graph(net, instances)
        bgp_ent = next(i for i in instances if i.protocol == "bgp" and i.asn == 64780)
        ospf_128 = next(
            i for i in instances
            if i.protocol == "ospf" and i.routers == {"R1", "R2", "R3"}
        )
        kinds = {
            data["kind"]
            for _u, _v, data in graph.edges(data=True)
            if _u == bgp_ent.instance_id and _v == ospf_128.instance_id
        }
        assert "redistribution" in kinds

    def test_fig1_ebgp_edge(self, fig1):
        net, _ = fig1
        instances = compute_instances(net)
        graph = build_instance_graph(net, instances)
        bgp_ids = sorted(
            i.instance_id for i in instances if i.protocol == "bgp"
        )
        kinds = {
            data["kind"]
            for u, v, data in graph.edges(data=True)
            if isinstance(u, int) and isinstance(v, int) and sorted((u, v)) == bgp_ids
        }
        assert kinds == {"ebgp"}

    def test_external_edge_touches_backbone_bgp_only(self, fig1):
        net, meta = fig1
        instances = compute_instances(net)
        graph = build_instance_graph(net, instances)
        touched = {
            v for u, v, d in graph.edges(data=True)
            if u == EXTERNAL_NODE and d["kind"] == "external"
        }
        by_id = {i.instance_id: i for i in instances}
        assert {by_id[i].asn for i in touched} == {meta["backbone_as"]}

    def test_node_sizes(self, fig1):
        net, _ = fig1
        instances = compute_instances(net)
        graph = build_instance_graph(net, instances)
        for instance in instances:
            assert graph.nodes[instance.instance_id]["size"] == instance.size


class TestNet5Structure:
    def test_instance_count(self, net5_small):
        net, spec = net5_small
        instances = compute_instances(net)
        assert len(instances) == len(spec.expected_instances) == 24

    def test_instance_sizes_match_ground_truth(self, net5_small):
        net, spec = net5_small
        instances = compute_instances(net)
        got = sorted((i.protocol, i.size) for i in instances)
        want = sorted((e.protocol, e.size) for e in spec.expected_instances)
        assert got == want

    def test_internal_as_count(self, net5_small):
        net, spec = net5_small
        instances = compute_instances(net)
        asns = {i.asn for i in instances if i.protocol == "bgp"}
        assert len(asns) == spec.internal_as_count == 14

    def test_glue_routers_bridge_compartments(self, net5_small):
        net, spec = net5_small
        instances = compute_instances(net)
        membership = instance_of(instances)
        glue = spec.notes["glue_ab_routers"][0]
        protocols = {key[1] for key in net.processes if key[0] == glue}
        assert protocols == {"eigrp", "bgp"}
        eigrp_instances = {
            membership[key].instance_id
            for key in net.processes
            if key[0] == glue and key[1] == "eigrp"
        }
        assert len(eigrp_instances) == 2  # member of both compartments


class TestBoundedProcesses:
    """The ``max_processes`` knob the executor's degradation ladder uses."""

    def test_process_cap_shrinks_the_result(self, fig1):
        net, _ = fig1
        full = compute_instances(net)
        capped = compute_instances(net, max_processes=1)
        assert 0 < len(capped) < len(full)

    def test_generous_cap_matches_full(self, fig1):
        net, _ = fig1
        full = compute_instances(net)
        capped = compute_instances(net, max_processes=10_000)
        assert len(capped) == len(full)


class TestOneSidedRemoteAs:
    """An in-network session is EBGP when the two processes' ASNs
    differ, whichever end's ``neighbor`` statement names ``remote-as``."""

    CONFIGS = {
        "A": (
            "hostname A\n"
            "interface Serial0\n"
            " ip address 10.0.0.1 255.255.255.252\n"
            "router bgp 1\n"
            " neighbor 10.0.0.2 remote-as 2\n"
        ),
        "B": (
            "hostname B\n"
            "interface Serial0\n"
            " ip address 10.0.0.2 255.255.255.252\n"
            "router bgp 2\n"
            " neighbor 10.0.0.1 description upstream\n"
        ),
    }

    def test_one_instance_per_as_and_one_ebgp_edge_pair(self):
        net = Network.from_configs(self.CONFIGS)
        assert [(s.remote_as, s.is_resolved, s.is_ebgp) for s in net.bgp_sessions] == [
            (2, True, True),
            (None, True, True),
        ]
        instances = compute_instances(net)
        by_as = {i.asn: i for i in instances}
        assert sorted(by_as) == [1, 2] and len(instances) == 2
        graph = build_instance_graph(net, instances)
        edges = sorted(
            (u, v, data["kind"])
            for u, v, data in graph.edges(data=True)
            if u != EXTERNAL_NODE and v != EXTERNAL_NODE
        )
        a, b = by_as[1].instance_id, by_as[2].instance_id
        assert edges == sorted([(a, b, "ebgp"), (b, a, "ebgp")])
