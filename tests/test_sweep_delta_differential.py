"""Sweep deltas against the string-keyed reference.

:func:`repro.sweep.scenario_delta` compares each surviving router's RIB
with the baseline by prefix and formats only the lost and gained pairs;
the reference (:mod:`tests.sweep_delta_reference`) formats every pair
and takes set differences.  On every routing-differential template, for
the no-failure scenario, every single failure and a seeded sample of
double failures, both must produce the same payload: counts, samples in
order, ``changed_paths`` and ``partitioned_instances``.  Two more networks
pin the sample order, which is string order (``10.0.0.0/8`` sorts before
``9.0.0.0/8``): one where a failure loses routes, one where it gains
some (no template's failure gains a route).
"""

from __future__ import annotations

import pytest

from repro.model import Network
from repro.routing import RoutingSimulation, TransferTable
from repro.sweep import Scenario, compute_baseline, enumerate_scenarios, scenario_delta

from tests.sweep_delta_reference import reference_baseline, reference_delta
from tests.test_routing_differential import DOUBLE_BUDGET, TEMPLATES

#: r3's loopbacks: numeric order 2, 9, 10, 20, 100; string order differs.
LOOPBACKS = ("9.0.0.1", "10.0.0.1", "100.0.0.1", "2.0.0.1", "20.0.0.1")


def _ospf_router(name, interfaces):
    lines = [f"hostname {name}", "!"]
    for iface, address, mask in interfaces:
        lines += [f"interface {iface}", f" ip address {address} {mask}", "!"]
    lines += ["router ospf 1", " network 0.0.0.0 255.255.255.255 area 0", "!"]
    return "\n".join(lines) + "\n"


def string_order_configs():
    """r1 — r2 — r3 in one OSPF instance; r3 holds five /8 loopbacks."""
    p2p = "255.255.255.252"
    return {
        "r1": _ospf_router("r1", [("Serial0/0", "192.168.12.1", p2p)]),
        "r2": _ospf_router(
            "r2",
            [("Serial0/0", "192.168.12.2", p2p), ("Serial0/1", "192.168.23.1", p2p)],
        ),
        "r3": _ospf_router(
            "r3",
            [("Serial0/0", "192.168.23.2", p2p)]
            + [(f"Loopback{i}", address, "255.0.0.0") for i, address in enumerate(LOOPBACKS)],
        ),
    }


def _bgp_router(name, asn, links, networks=()):
    """*links*: ``(interface, address, peer address, peer AS)`` per /30."""
    lines = [f"hostname {name}", "!"]
    for iface, address, _peer, _asn in links:
        lines += [f"interface {iface}", f" ip address {address} 255.255.255.252", "!"]
    lines += [f"router bgp {asn}"]
    lines += [f" network {network} mask 255.0.0.0" for network in networks]
    lines += [f" neighbor {peer} remote-as {peer_as}" for _i, _a, peer, peer_as in links]
    return "\n".join(lines + ["!"]) + "\n"


def as_path_loop_configs():
    """o (AS 100) originates 9/8 and 10/8; x (AS 200) hears them through
    y1 (AS 300) and, one AS longer, through v and w (AS 500, 400).  x
    prefers y1's path, which y2 (also AS 300) rejects as an AS-path
    loop, so y2 gains both /8s only when y1 fails."""
    return {
        "o": _bgp_router(
            "o",
            100,
            [("Serial0/0", "172.16.1.1", "172.16.1.2", 300),
             ("Serial0/1", "172.16.2.1", "172.16.2.2", 500)],
            networks=("9.0.0.0", "10.0.0.0"),
        ),
        "y1": _bgp_router(
            "y1",
            300,
            [("Serial0/0", "172.16.1.2", "172.16.1.1", 100),
             ("Serial0/1", "172.16.3.1", "172.16.3.2", 200)],
        ),
        "v": _bgp_router(
            "v",
            500,
            [("Serial0/0", "172.16.2.2", "172.16.2.1", 100),
             ("Serial0/1", "172.16.4.1", "172.16.4.2", 400)],
        ),
        "w": _bgp_router(
            "w",
            400,
            [("Serial0/0", "172.16.4.2", "172.16.4.1", 500),
             ("Serial0/1", "172.16.5.1", "172.16.5.2", 200)],
        ),
        "x": _bgp_router(
            "x",
            200,
            [("Serial0/0", "172.16.3.2", "172.16.3.1", 300),
             ("Serial0/1", "172.16.5.2", "172.16.5.1", 400),
             ("Serial0/2", "172.16.6.1", "172.16.6.2", 300)],
        ),
        "y2": _bgp_router("y2", 300, [("Serial0/0", "172.16.6.2", "172.16.6.1", 200)]),
    }


NETWORKS = dict(
    TEMPLATES, string_order=string_order_configs, as_path_loop=as_path_loop_configs
)


def scenarios(network):
    plan = enumerate_scenarios(network, depth=2, double_budget=DOUBLE_BUDGET, seed=1)
    return [Scenario("no-failure", "none")] + list(plan.scenarios)


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_delta_matches_the_string_keyed_reference(name):
    network = Network.from_configs(NETWORKS[name](), name=name)
    table = TransferTable(network)
    baseline = compute_baseline(network, table=table)
    reference = reference_baseline(network)
    assert baseline.as_dict() == reference.as_dict()
    lost = 0
    for scenario in scenarios(network):
        simulation = RoutingSimulation(
            network,
            failed_routers=scenario.failed_routers,
            failed_subnets=scenario.failed_subnets,
            validate=False,
            table=table,
        ).run(on_divergence="degrade")
        delta = scenario_delta(baseline, simulation, scenario)
        expected = reference_delta(reference, simulation, scenario)
        assert delta == expected, scenario.scenario_id
        # Same keys in the same order, so the JSON payloads are equal too.
        assert list(delta) == list(expected)
        lost += delta["lost_pairs"]
    assert lost > 0  # some failure cuts something off


def _delta(configs, scenario):
    network = Network.from_configs(configs, name="sample_order")
    simulation = RoutingSimulation(
        network,
        failed_routers=scenario.failed_routers,
        failed_subnets=scenario.failed_subnets,
        validate=False,
    ).run()
    return scenario_delta(compute_baseline(network), simulation, scenario)


def test_lost_sample_sorts_as_strings_not_numbers():
    scenario = Scenario(
        "link-192.168.23.0-30", "link", failed_subnets=("192.168.23.0/30",)
    )
    delta = _delta(string_order_configs(), scenario)
    assert delta["lost_pairs"] == 14  # r1 and r2 lose six each, r3 two
    assert delta["lost_sample"] == [
        "r1->10.0.0.0/8",
        "r1->100.0.0.0/8",
        "r1->192.168.23.0/30",
        "r1->2.0.0.0/8",
        "r1->20.0.0.0/8",
        "r1->9.0.0.0/8",
        "r2->10.0.0.0/8",
        "r2->100.0.0.0/8",
        "r2->192.168.23.0/30",
        "r2->2.0.0.0/8",
    ]
    assert delta["partitioned_instances"] == [1]


def test_gained_sample_sorts_as_strings_not_numbers():
    delta = _delta(as_path_loop_configs(), Scenario("router-y1", "router", ("y1",)))
    assert delta["gained_pairs"] == 2
    assert delta["gained_sample"] == ["y2->10.0.0.0/8", "y2->9.0.0.0/8"]
    assert delta["lost_pairs"] == 0
    assert delta["failed_router_pairs"] == 4
