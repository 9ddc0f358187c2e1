"""The feeder-table pathway search against the graph-building reference.

:func:`~repro.core.pathways.route_pathway` walks a
:class:`~repro.core.pathways.FeederTable` compiled once per instance
graph and records plain data; the reference
(:mod:`tests.pathways_reference`) walks the instance graph's views and
builds an ``nx.DiGraph`` per search.  On every synth template of the
routing differential, plus a hub-shaped hybrid with the shape of the
study corpus' shattered hybrids (150 routers, 84 instances, 101
attachment signatures) and a ring where one router runs two processes
of one instance, and at ``max_depth`` unset, 1, 2 and 3, every
router's pathway must match the reference's: layers and policies in
order, the depth figures, the graph's nodes and edges in order, and the
analysis-payload entry.  Seeded random instance graphs (parallel edges,
repeated and missing route maps, self-loops, unlabelled nodes, edges
without a kind) must match as well, and ``route_pathways`` must build no
graph at all.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.compress.payload import pathway_payload
from repro.core.instances import build_instance_graph, compute_instances
from repro.core.pathways import route_pathway, route_pathways
from repro.core.process_graph import EXTERNAL_NODE
from repro.model import Network
from repro.synth.templates.hybrid import build_hybrid

from tests import pathways_reference as reference
from tests.test_routing_differential import TEMPLATES


def _ospf_ring():
    """Three routers in one OSPF instance, R1 through two processes: one
    router whose signature names one instance twice."""
    sides = {
        "R1": (["10.0.0.1", "10.0.0.5"], [("1", "10.0.0.0 0.0.0.3"), ("2", "10.0.0.4 0.0.0.3")]),
        "R2": (["10.0.0.2", "10.0.0.9"], [("1", "10.0.0.0 0.0.0.255")]),
        "R3": (["10.0.0.6", "10.0.0.10"], [("1", "10.0.0.0 0.0.0.255")]),
    }
    configs = {}
    for router, (addresses, processes) in sides.items():
        lines = [f"hostname {router}"]
        for index, address in enumerate(addresses):
            lines += [f"interface Serial{index}", f" ip address {address} 255.255.255.252", "!"]
        for pid, network in processes:
            lines += [f"router ospf {pid}", f" network {network} area 0", "!"]
        configs[router] = "\n".join(lines) + "\n"
    return configs


CASES = dict(
    TEMPLATES,
    hub=lambda: build_hybrid("hub", 33, 150, seed=5, leaf_size_range=(1, 2))[0],
    ospf_ring=_ospf_ring,
)

MAX_DEPTHS = (None, 1, 2, 3)


@pytest.fixture(scope="module", params=sorted(CASES))
def analyzed(request):
    network = Network.from_configs(CASES[request.param](), name=request.param)
    instances = compute_instances(network)
    return network, instances, build_instance_graph(network, instances)


def shape(pathway) -> dict:
    """Everything a search answers, in insertion order where it has one."""
    return {
        "router": pathway.router,
        "layers": list(pathway.layers.items()),
        "policies": list(pathway.policies),
        "truncated": pathway.truncated,
        "depth": pathway.depth,
        "external_depth": pathway.external_depth(),
        "instances": pathway.instances,
        "reaches_external": pathway.reaches_external,
        "nodes": list(pathway.graph.nodes(data="label")),
        "edges": list(pathway.graph.edges(data="kind")),
    }


def assert_same(pathway, expected) -> None:
    assert shape(pathway) == shape(expected), expected.router
    assert pathway_payload(pathway) == reference.pathway_payload(expected), expected.router


@pytest.mark.parametrize("max_depth", MAX_DEPTHS)
def test_route_pathways_match_the_reference(analyzed, max_depth):
    network, instances, graph = analyzed
    found = route_pathways(network, instances=instances, instance_graph=graph, max_depth=max_depth)
    expected = reference.route_pathways(
        network, instances=instances, instance_graph=graph, max_depth=max_depth
    )
    assert list(found) == list(expected)
    for router in expected:
        assert_same(found[router], expected[router])


@pytest.mark.parametrize("max_depth", MAX_DEPTHS)
def test_lone_searches_match_the_reference(analyzed, max_depth):
    network, instances, graph = analyzed
    for router in sorted(network.routers):
        assert_same(
            route_pathway(
                network, router, instances=instances, instance_graph=graph, max_depth=max_depth
            ),
            reference.route_pathway(
                network, router, instances=instances, instance_graph=graph, max_depth=max_depth
            ),
        )


def random_instance_graph(rng: random.Random, instances) -> nx.MultiDiGraph:
    """An instance graph over *instances* with the awkward cases the
    templates lack: self-loops, parallel edges with equal, distinct or no
    route maps, nodes without a label and edges without a kind."""
    nodes = [EXTERNAL_NODE] + [instance.instance_id for instance in instances]
    graph = nx.MultiDiGraph()
    for node in nodes:
        if rng.random() < 0.7:
            graph.add_node(node, label=f"node {node}")
        else:
            graph.add_node(node)
    for _ in range(rng.randint(0, 3 * len(nodes))):
        source, target = rng.choice(nodes), rng.choice(nodes)
        data = {}
        if rng.random() < 0.9:
            data["kind"] = rng.choice(["redistribution", "ebgp", "external"])
        if rng.random() < 0.5:
            data["route_map"] = rng.choice(["", "MAP-A", "MAP-B", "MAP-C"])
        for _copy in range(rng.choice([1, 1, 2, 3])):
            graph.add_edge(source, target, **data)
    return graph


@pytest.mark.parametrize("seed", range(12))
def test_random_instance_graphs_match_the_reference(seed):
    rng = random.Random(seed)
    template = sorted(CASES)[seed % len(CASES)]
    network = Network.from_configs(CASES[template](), name=template)
    instances = compute_instances(network)
    graph = random_instance_graph(rng, instances)
    for max_depth in MAX_DEPTHS:
        found = route_pathways(
            network, instances=instances, instance_graph=graph, max_depth=max_depth
        )
        expected = reference.route_pathways(
            network, instances=instances, instance_graph=graph, max_depth=max_depth
        )
        for router in expected:
            assert_same(found[router], expected[router])


def test_route_pathways_builds_no_graph(monkeypatch):
    """``nx.MultiDiGraph`` overrides ``add_edge``, so the count sees only
    ``nx.DiGraph`` pathway graphs, not the instance graph."""
    network = Network.from_configs(CASES["hub"](), name="hub")
    instances = compute_instances(network)
    calls = []
    add_edge = nx.DiGraph.add_edge

    def counted(self, *args, **kwargs):
        calls.append(type(self))
        return add_edge(self, *args, **kwargs)

    monkeypatch.setattr(nx.DiGraph, "add_edge", counted)
    reference.route_pathways(network, instances=instances)
    assert calls and set(calls) == {nx.DiGraph}  # the count sees per-search graphs
    calls.clear()
    pathways = route_pathways(network, instances=instances)
    assert calls == []
    # The corpus shape: 150 routers, 84 instances, 101 signatures.
    searches = {id(pathway.layers) for pathway in pathways.values()}
    assert (len(pathways), len(instances), len(searches)) == (150, 84, 101)
    pathways[sorted(pathways)[0]].graph  # built when read
    assert calls
