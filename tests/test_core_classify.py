"""Design classification tests (§7)."""

from collections import Counter

from repro.core import classify_design, compute_instances
from repro.core.classify import DesignClass, is_staging_instance
from repro.core.instances import find_external_adjacent_instances


class TestTemplateClassification:
    def test_enterprise(self, enterprise_net):
        net, spec = enterprise_net
        evidence = classify_design(net)
        assert evidence.design == DesignClass.ENTERPRISE
        assert evidence.bgp_redistributed_into_igp
        assert evidence.igp_to_igp_redistribution_count == 0

    def test_backbone(self, backbone_net):
        net, spec = backbone_net
        evidence = classify_design(net)
        assert evidence.design == DesignClass.BACKBONE
        assert not evidence.bgp_redistributed_into_igp
        assert evidence.largest_bgp_instance_size == len(net.routers)
        assert evidence.ebgp_external_sessions >= 2

    def test_tier2_is_not_a_textbook_backbone(self, tier2_net):
        net, spec = tier2_net
        evidence = classify_design(net)
        assert evidence.design == DesignClass.UNCLASSIFIABLE
        assert evidence.staging_instance_count == spec.notes["staging_instances"]

    def test_net5_unclassifiable(self, net5_small):
        net, _spec = net5_small
        evidence = classify_design(net)
        assert evidence.design == DesignClass.UNCLASSIFIABLE
        assert evidence.internal_as_count == 14

    def test_net15_unclassifiable(self, net15_full):
        net, _spec = net15_full
        evidence = classify_design(net)
        assert evidence.design == DesignClass.UNCLASSIFIABLE


class TestCorpusClassification:
    def test_section7_counts(self, small_corpus):
        designs = Counter(
            classify_design(cn.network()).design for cn in small_corpus
        )
        assert designs[DesignClass.BACKBONE] == 4
        assert designs[DesignClass.ENTERPRISE] == 7
        assert designs[DesignClass.UNCLASSIFIABLE] == 20

    def test_every_network_matches_its_ground_truth(self, small_corpus):
        for cn in small_corpus:
            evidence = classify_design(cn.network())
            assert evidence.design == cn.spec.design, cn.name

    def test_backbones_never_redistribute_bgp_into_igp(self, small_corpus):
        for cn in small_corpus:
            evidence = classify_design(cn.network())
            if evidence.design == DesignClass.BACKBONE:
                assert not evidence.bgp_redistributed_into_igp


class TestStagingDetection:
    def test_staging_definition(self, tier2_net):
        net, _spec = tier2_net
        instances = compute_instances(net)
        external_ids = find_external_adjacent_instances(net)
        staging = [
            i for i in instances if is_staging_instance(i, external_ids)
        ]
        assert staging
        assert all(i.size == 1 and i.protocol != "bgp" for i in staging)

    def test_multi_router_instance_is_not_staging(self, enterprise_net):
        net, _spec = enterprise_net
        instances = compute_instances(net)
        external_ids = find_external_adjacent_instances(net)
        assert not any(is_staging_instance(i, external_ids) for i in instances)
