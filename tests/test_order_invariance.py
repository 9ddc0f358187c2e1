"""Analysis results must not depend on config ingestion order.

The analyses iterate dict-backed indexes (interfaces, processes,
sessions) whose insertion order follows the order configs were handed
to :meth:`Network.from_configs` — which varies with filesystem listing
order.  Every consumer whose *output* (or whose behavior under a
truncation bound) could leak that order now sorts explicitly; these
tests feed the same network in shuffled orders and demand identical
results, including under ``max_edges`` / ``max_couplings`` truncation
where construction order decides what survives.
"""

import json
import random

import pytest

from repro.compress import analysis_payload
from repro.core.process_graph import build_process_graph
from repro.core.survivability import instance_couplings
from repro.model import Network
from repro.synth.templates.enterprise import build_enterprise
from repro.synth.templates.net5 import build_net5


def _shuffles(configs, n=3):
    items = list(configs.items())
    for seed in range(n):
        shuffled = items[:]
        random.Random(seed).shuffle(shuffled)
        yield Network.from_configs(dict(shuffled), name="shuffled")


CONFIGS_NET5 = build_net5(scale=0.04, name="inv")[0]
CONFIGS_ENT = build_enterprise("inv", 1, 24, seed=3, n_borders=2, n_igp_instances=2)[0]


@pytest.mark.parametrize("configs", [CONFIGS_NET5, CONFIGS_ENT], ids=["net5", "ent"])
def test_full_analysis_payload_is_order_invariant(configs):
    # The raw payload, not its canonical form: canonical re-indexing
    # would hide order-dependent instance numbering.
    payloads = [
        json.dumps(analysis_payload(network), sort_keys=True)
        for network in _shuffles(configs)
    ]
    assert len(set(payloads)) == 1


def test_address_map_winner_is_order_invariant():
    # Duplicate-address misconfiguration: whichever interface "owns" the
    # address must not depend on which router parsed first.
    base = {
        "a1": "hostname a1\ninterface Serial0/0\n ip address 10.0.0.1 255.255.255.252\n",
        "b2": "hostname b2\ninterface Serial0/1\n ip address 10.0.0.1 255.255.255.252\n",
    }
    forward = Network.from_configs(base, name="dup")
    backward = Network.from_configs(dict(reversed(base.items())), name="dup")
    assert forward.address_map == backward.address_map
    # Sorted-first-wins: a1's interface takes the contested address.
    assert forward.address_map[(10 << 24) + 1][0] == "a1"


@pytest.mark.parametrize("max_edges", [10, 25, 60, None])
def test_process_graph_truncation_is_order_invariant(max_edges):
    snapshots = []
    for network in _shuffles(CONFIGS_ENT):
        graph = build_process_graph(network, max_edges=max_edges)
        snapshots.append(
            (
                sorted(map(str, graph.nodes())),
                sorted(
                    (str(u), str(v), data.get("kind"))
                    for u, v, data in graph.edges(data=True)
                ),
                graph.graph["truncated"],
            )
        )
    assert all(snapshot == snapshots[0] for snapshot in snapshots)


@pytest.mark.parametrize("max_couplings", [1, 2])
def test_coupling_truncation_is_order_invariant(max_couplings):
    # Under a bound, *which* instance pairs make the cut depends on
    # iteration order — which must therefore be canonical.
    snapshots = []
    for network in _shuffles(CONFIGS_ENT):
        couplings = instance_couplings(network, max_couplings=max_couplings)
        snapshots.append(
            [
                (c.instance_a, c.instance_b, sorted(c.routers), sorted(c.mechanisms))
                for c in couplings
            ]
        )
    assert all(snapshot == snapshots[0] for snapshot in snapshots)


def test_link_ends_are_sorted():
    for network in _shuffles(CONFIGS_NET5, n=2):
        for link in network.links:
            ends = [(end.router, end.interface) for end in link.ends]
            assert ends == sorted(ends)
