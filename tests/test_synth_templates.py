"""Template ground-truth recovery: the analyzer must blindly rediscover
what each generator built, from serialized IOS text alone."""

from collections import Counter

import pytest

from repro.core import compute_instances
from repro.core.instances import find_external_adjacent_instances
from repro.model import Network
from repro.synth.templates.enterprise import build_enterprise
from repro.synth.templates.hybrid import build_hybrid
from repro.synth.templates.net5 import build_net5


def recovered_instances(configs):
    net = Network.from_configs(configs)
    return net, compute_instances(net)


class TestEnterpriseTemplate:
    @pytest.mark.parametrize("igp", ["ospf", "eigrp", "rip"])
    def test_igp_variants(self, igp):
        configs, spec = build_enterprise("e", 20, 10, seed=2, igp=igp)
        net, instances = recovered_instances(configs)
        got = sorted((i.protocol, i.size) for i in instances)
        want = sorted((e.protocol, e.size) for e in spec.expected_instances)
        assert got == want

    def test_two_igp_instances_variant(self):
        configs, spec = build_enterprise(
            "e2", 21, 15, seed=3, n_igp_instances=2
        )
        _net, instances = recovered_instances(configs)
        ospf = [i for i in instances if i.protocol == "ospf"]
        assert len(ospf) == 2

    def test_external_interfaces_recovered_exactly(self):
        configs, spec = build_enterprise("e3", 22, 12, seed=4, n_borders=2)
        net = Network.from_configs(configs)
        assert net.external_interfaces == set(spec.external_interfaces)

    def test_without_filters(self):
        configs, spec = build_enterprise("e4", 23, 8, seed=5, with_filters=False)
        assert all("access-group" not in text for text in configs.values())


class TestHybridTemplate:
    def test_instance_multiset_matches_ground_truth(self):
        configs, spec = build_hybrid("h", 24, 40, seed=6)
        _net, instances = recovered_instances(configs)
        got = Counter((i.protocol, i.size) for i in instances)
        want = Counter((e.protocol, e.size) for e in spec.expected_instances)
        assert got == want

    def test_external_igp_leaves_recovered(self):
        configs, spec = build_hybrid("h2", 25, 60, seed=7, p_leaf_external=0.5)
        net, instances = recovered_instances(configs)
        external_ids = find_external_adjacent_instances(net)
        got_external_igp = sum(
            1
            for i in instances
            if i.protocol != "bgp" and i.instance_id in external_ids
        )
        want = sum(
            1 for e in spec.expected_instances if e.protocol != "bgp" and e.external
        )
        assert got_external_igp == want

    def test_no_bgp_variant(self):
        configs, spec = build_hybrid("h3", 26, 20, seed=8, use_bgp=False)
        net = Network.from_configs(configs)
        assert not any(r.config.bgp_process for r in net.routers.values())
        # Static uplinks still give the network an edge.
        assert net.external_interfaces

    def test_router_count_exact(self):
        configs, spec = build_hybrid("h4", 27, 37, seed=9)
        assert len(configs) == 37 == spec.router_count


class TestNet5Template:
    def test_scaling_preserves_structure(self):
        for scale in (0.1, 0.25):
            configs, spec = build_net5(scale=scale, name="n5s")
            _net, instances = recovered_instances(configs)
            assert len(instances) == 24
            bgp_asns = {i.asn for i in instances if i.protocol == "bgp"}
            assert len(bgp_asns) == 14

    def test_full_scale_router_count(self):
        # Generation only (no parse): the full-scale net5 is 881 routers.
        configs, spec = build_net5(scale=1.0, name="n5f")
        assert len(configs) == 881 == spec.router_count

    def test_three_named_compartments_dominate(self, net5_small):
        _net, spec = net5_small
        eigrp_sizes = sorted(
            (e.size for e in spec.expected_instances if e.protocol == "eigrp"),
            reverse=True,
        )
        assert eigrp_sizes[0] > sum(eigrp_sizes[1:]) / 2


class TestNet15Template:
    def test_six_instances(self, net15_full):
        net, spec = net15_full
        instances = compute_instances(net)
        assert len(instances) == 6
        assert Counter(i.protocol for i in instances) == {"bgp": 4, "ospf": 2}

    def test_router_count_79(self, net15_full):
        net, _spec = net15_full
        assert len(net) == 79

    def test_policies_in_ground_truth(self, net15_full):
        _net, spec = net15_full
        assert set(spec.notes["policies"]) == {"A1", "A2", "A3", "A4", "A5"}
